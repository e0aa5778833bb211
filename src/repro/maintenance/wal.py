"""The durable, replayable update log (write-ahead log).

One length-prefixed, checksummed JSON record per line in ``wal.jsonl``
inside a ``save_catalog`` store directory::

    58 {"crc":1234567890,"lsn":1,"op":{"kind":"insert-subtree",...}}

The prefix is the byte length of the JSON body; ``crc`` is the CRC32 of
the canonical ``{"lsn",...,"op":...}`` encoding.  Together they make
every corruption class detectable: a *torn* append (crash mid-write)
fails the length check, a *garbled* record (bit rot) fails the CRC.
A line without the prefix (a bare JSON object) is an invalid record.

LSNs are contiguous and start at 1.  The store manifest records the
highest LSN its pages reflect (``wal_lsn``), so recovery is a pure
function of the two files: replay every record with ``lsn > wal_lsn``.
Commits append (and fsync) the log **before** any view page or manifest
is touched; a crash mid-commit therefore loses nothing — the old
manifest still points at the old pages, and the logged tail replays on
the next :func:`repro.maintenance.engine.recover_store`.

Torn-tail tolerance: an invalid **final** record is the signature of a
crash mid-append — nothing after it was ever acknowledged — so readers
stop at the last valid record instead of failing, and the next
:meth:`UpdateLog.append` truncates the torn bytes before writing.  An
invalid record *followed by valid ones* is genuine corruption and stays
a typed :class:`~repro.errors.MaintenanceError`.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Iterable, Sequence

from repro.errors import FaultInjected, MaintenanceError
from repro.maintenance.deltas import Delta, delta_from_dict, delta_to_dict
from repro.resilience import faults

WAL_FILENAME = "wal.jsonl"


class _InvalidRecord(MaintenanceError):
    """Internal: one record failed its length/checksum/shape check.

    Only ever raised (and caught) inside :meth:`UpdateLog._records`,
    where the scan decides whether the bad record is a tolerable torn
    tail or genuine corruption."""


def _canonical(lsn: int, op: dict) -> str:
    return json.dumps(
        {"lsn": lsn, "op": op}, separators=(",", ":"), sort_keys=True
    )


def _record_line(lsn: int, op: dict) -> str:
    crc = zlib.crc32(_canonical(lsn, op).encode("utf-8")) & 0xFFFFFFFF
    body = json.dumps(
        {"crc": crc, "lsn": lsn, "op": op},
        separators=(",", ":"), sort_keys=True,
    )
    return f"{len(body.encode('utf-8'))} {body}\n"


class UpdateLog:
    """Append-only delta log bound to one file path."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = pathlib.Path(path)
        self._tip: int | None = None
        self._torn_tail = False
        self._valid_end = 0

    def exists(self) -> bool:
        return self.path.exists()

    @property
    def torn_tail_detected(self) -> bool:
        """True when the most recent scan stopped at a torn tail."""
        return self._torn_tail

    def tip(self) -> int:
        """Highest valid LSN in the log (0 when empty or absent).

        Cached: only :meth:`append` and a scan refresh it, so records
        another writer appended since are not seen here (``append``
        checks the file's length and rescans; this does not).
        """
        if self._tip is None:
            self._tip = 0
            for lsn, __ in self._records():
                self._tip = lsn
        return self._tip

    def append(self, deltas: Sequence[Delta]) -> int:
        """Durably append ``deltas`` as consecutive records; returns the
        new tip LSN.  The file is fsynced before returning.  A torn tail
        left by an earlier crash is truncated first, so new records are
        never appended after garbage."""
        lsn = self._ensure_clean_tail()
        lines = []
        for delta in deltas:
            lsn += 1
            lines.append(_record_line(lsn, delta_to_dict(delta)))
        if not lines:
            return lsn
        blob = intended = "".join(lines).encode("utf-8")
        crashed = False
        state = faults.STATE
        if state is not None:
            blob, crashed = state.wal_append(blob)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        if crashed:
            self._tip = None  # partial bytes hit disk; rescan next read
            raise FaultInjected(
                f"injected torn fault at wal-append ({self.path})"
            )
        self._tip = lsn
        if blob == intended:
            # Records this object wrote unaltered extend the verified
            # prefix; after a garbled write it stays short of the file,
            # so the next append rescans.
            self._valid_end += len(blob)
        return lsn

    def read(self, after: int = 0) -> list[tuple[int, Delta]]:
        """All ``(lsn, delta)`` records with ``lsn > after``, in order."""
        out = []
        for lsn, payload in self._records():
            if lsn > after:
                out.append((lsn, delta_from_dict(payload)))
        return out

    def replay(self) -> Iterable[tuple[int, Delta]]:
        """Every record in order (alias for ``read(after=0)``)."""
        return self.read(after=0)

    def _ensure_clean_tail(self) -> int:
        """Drop torn trailing bytes (crash debris); returns the tip LSN.

        A long-lived log (one per store-backed service) is scanned once:
        while the file is exactly as long as the prefix this object has
        verified or written, the cached tip stands.  Any other length —
        another writer's records, a torn or garbled append — forces the
        full rescan.
        """
        if (
            self._tip is not None
            and not self._torn_tail
            and self._file_size() == self._valid_end
        ):
            return self._tip
        records = list(self._records())
        tip = records[-1][0] if records else 0
        if self._torn_tail:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_end)
            self._torn_tail = False
        self._tip = tip
        return tip

    def _file_size(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    @staticmethod
    def _parse_record(text: str) -> tuple[int, dict]:
        """One record line -> ``(lsn, op)``; raises :class:`_InvalidRecord`
        with a reason for every invalid shape (torn, garbled, or a line
        without the length prefix)."""
        prefix, sep, body = text.partition(" ")
        if not sep or not prefix.isdigit():
            raise _InvalidRecord("bad length prefix")
        if len(body.encode("utf-8")) != int(prefix):
            raise _InvalidRecord(
                f"length mismatch (declared {prefix},"
                f" got {len(body.encode('utf-8'))})"
            )
        record = json.loads(body)
        crc = record.get("crc")
        lsn = int(record["lsn"])
        op = record["op"]
        expected = zlib.crc32(_canonical(lsn, op).encode("utf-8")) & 0xFFFFFFFF
        if crc != expected:
            raise _InvalidRecord(
                f"checksum mismatch (recorded {crc}, computed {expected})"
            )
        return lsn, op

    def _records(self) -> Iterable[tuple[int, dict]]:
        self._torn_tail = False
        self._valid_end = 0
        if not self.path.exists():
            return
        blob = self.path.read_bytes()
        lines = blob.split(b"\n")
        offset = 0
        expected = 0
        for line_no, raw in enumerate(lines, start=1):
            line_end = min(offset + len(raw) + 1, len(blob))
            stripped = raw.strip()
            if not stripped:
                offset = line_end
                continue
            try:
                text = stripped.decode("utf-8")
                lsn, payload = self._parse_record(text)
            except (_InvalidRecord, ValueError, KeyError, TypeError,
                    UnicodeDecodeError) as exc:
                if any(rest.strip() for rest in lines[line_no:]):
                    raise MaintenanceError(
                        f"corrupt update log {self.path}:{line_no}: {exc}"
                    ) from exc
                # Invalid final record: a torn append, not corruption —
                # nothing after it was acknowledged, so tolerate it.
                self._torn_tail = True
                return
            expected += 1
            if lsn != expected:
                raise MaintenanceError(
                    f"update log {self.path}:{line_no}: LSN {lsn}"
                    f" breaks the contiguous sequence (expected"
                    f" {expected})"
                )
            self._valid_end = line_end
            offset = line_end
            yield lsn, payload
