"""Continuation tokens for preemptible queries.

A suspended evaluation leaves the service as an opaque, self-contained
token the client hands back to resume.  Wire format (before base64)::

    MAGIC "VJCT" | version u8 | crc32(body) u32-le | body

where ``body`` is the zlib-compressed canonical JSON payload.  The
payload stamps everything needed to (a) rebuild the identical plan —
canonical query text, the planned view list, algorithm/scheme/mode,
emit flag and quantum budget — and (b) resolve the world it runs in:
the pinned store ``generation`` (MVCC, DESIGN.md §16 — a maintenance
commit no longer expires the token; the chain resumes against the
generation's snapshot until GC reaps it), that generation's
``store_version`` and ``maintenance_epoch`` stamps, and a service-local
session id whose registry entry dies with GC and shutdown.

Version 2 added the ``generation`` stamp; version-1 tokens (pre-MVCC)
are rejected typed as an unsupported version.

Decoding failures are **typed, never crashes**: every way a token can be
damaged — truncated, bit-flipped, re-encoded garbage, a tampered payload
with a dutifully recomputed checksum — surfaces as
:class:`~repro.errors.ContinuationMalformed`; staleness is the service's
call (:class:`~repro.errors.ContinuationExpired`), not the codec's.

:class:`Continuation` is the payload's typed form, built and validated
here so the payload's keys are known to this module alone.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
import zlib
from dataclasses import dataclass

from repro.algorithms.base import Mode
from repro.algorithms.engine import Algorithm
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.errors import ContinuationMalformed, ReproError
from repro.storage.catalog import Scheme
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern

TOKEN_MAGIC = b"VJCT"
TOKEN_VERSION = 2

_HEADER = struct.Struct("<4sBI")


def encode_token(payload: dict) -> str:
    """Serialize a continuation payload to an opaque URL-safe string."""
    raw = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    body = zlib.compress(raw, 6)
    header = _HEADER.pack(
        TOKEN_MAGIC, TOKEN_VERSION, zlib.crc32(body) & 0xFFFFFFFF
    )
    return base64.urlsafe_b64encode(header + body).decode("ascii")


def decode_token(token: str) -> dict:
    """Inverse of :func:`encode_token`.

    Raises:
        ContinuationMalformed: for anything that is not an intact token
            produced by :func:`encode_token` — bad base64, short blob,
            wrong magic, unknown version, checksum mismatch, or an
            undecodable/non-object payload.
    """
    if not isinstance(token, str) or not token:
        raise ContinuationMalformed("empty continuation token")
    try:
        blob = base64.urlsafe_b64decode(token.encode("ascii"))
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise ContinuationMalformed(
            f"continuation token is not valid base64: {exc}"
        ) from None
    if len(blob) < _HEADER.size:
        raise ContinuationMalformed("continuation token is truncated")
    magic, version, crc = _HEADER.unpack_from(blob)
    if magic != TOKEN_MAGIC:
        raise ContinuationMalformed("continuation token has a bad header")
    if version != TOKEN_VERSION:
        raise ContinuationMalformed(
            f"unsupported continuation token version {version}"
            f" (this build speaks version {TOKEN_VERSION})"
        )
    body = blob[_HEADER.size:]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ContinuationMalformed(
            "continuation token failed its integrity checksum"
        )
    try:
        payload = json.loads(zlib.decompress(body).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContinuationMalformed(
            f"continuation token payload is undecodable: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise ContinuationMalformed(
            "continuation token payload must be an object"
        )
    return payload


@dataclass(frozen=True)
class Continuation:
    """One suspended ViewJoin evaluation, as the token carries it."""

    generation: int
    store_version: int
    maintenance_epoch: int
    query: Pattern
    views: list[Pattern]
    scheme: Scheme
    mode: Mode
    emit: bool
    budget: QuantumBudget | None
    #: service-local session id; empty until the run first suspends.
    sid: str = ""
    #: ``None`` before the first quantum has run.
    state: PlanState | None = None
    quanta: int = 0
    #: logical reads, physical reads and page writes accumulated so far.
    io: tuple[int, int, int] = (0, 0, 0)

    def to_payload(self) -> dict:
        return {
            "sid": self.sid,
            "generation": self.generation,
            "store_version": self.store_version,
            "maintenance_epoch": self.maintenance_epoch,
            "query": self.query.to_xpath(),
            "views": [[view.to_xpath(), view.name] for view in self.views],
            "algorithm": Algorithm.VIEWJOIN.value,
            "scheme": self.scheme.value,
            "mode": self.mode.value,
            "emit": self.emit,
            "budget": (
                self.budget.as_dict() if self.budget is not None else None
            ),
            "quanta": self.quanta,
            "io": list(self.io),
            "state": self.state.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Continuation":
        """Validate a decoded token payload, field by field.

        A payload that passed the codec's checksum can still be hostile
        (re-encoded with a fresh checksum); every structural assumption
        is checked here so a bad token dies typed at the boundary, not
        as an ``AttributeError`` inside a cursor.
        """
        def bad(message: str) -> None:
            raise ContinuationMalformed(
                f"continuation payload is invalid: {message}"
            )

        sid = payload.get("sid")
        if not isinstance(sid, str) or not sid:
            bad("missing session id")
        for key in (
            "generation", "store_version", "maintenance_epoch", "quanta"
        ):
            if not isinstance(payload.get(key), int):
                bad(f"{key} must be an int")
        if payload["quanta"] < 1:
            bad("quanta must be positive")
        if payload.get("algorithm") != Algorithm.VIEWJOIN.value:
            bad("only ViewJoin plans are resumable")
        if not isinstance(payload.get("emit"), bool):
            bad("emit must be a bool")
        if not isinstance(payload.get("query"), str):
            bad("query must be a string")
        if not isinstance(payload.get("scheme"), str):
            bad("scheme must be a string")
        if not isinstance(payload.get("mode"), str):
            bad("mode must be a string")
        views_payload = payload.get("views")
        if not isinstance(views_payload, list) or not views_payload:
            bad("views must be a non-empty list")
        for item in views_payload:
            if (
                not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)
                or not (item[1] is None or isinstance(item[1], str))
            ):
                bad("views must be [xpath, name] pairs")
        prior_io = payload.get("io")
        if (
            not isinstance(prior_io, list) or len(prior_io) != 3
            or any(
                not isinstance(value, int) or value < 0
                for value in prior_io
            )
        ):
            bad("io must be three non-negative ints")
        try:
            query = parse_pattern(payload["query"])
            views = [
                parse_pattern(xpath, name=name)
                for xpath, name in views_payload
            ]
            scheme = Scheme.parse(payload["scheme"])
            mode = Mode.parse(payload["mode"])
        except ReproError as exc:
            raise ContinuationMalformed(
                f"continuation plan is invalid: {exc}"
            ) from None
        return cls(
            sid=sid,
            generation=payload["generation"],
            store_version=payload["store_version"],
            maintenance_epoch=payload["maintenance_epoch"],
            query=query,
            views=views,
            scheme=scheme,
            mode=mode,
            emit=payload["emit"],
            budget=QuantumBudget.from_dict(payload.get("budget")),
            state=PlanState.from_payload(payload.get("state")),
            quanta=payload["quanta"],
            io=tuple(prior_io),
        )
