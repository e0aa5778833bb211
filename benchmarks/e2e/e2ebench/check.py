"""Answer checking against the naive matcher, outside the timed spans.

Every operation is counted as attempted.  Inside the timed region an
answer is only fingerprinted: the first answer per (query, generation)
is kept, a repeat must carry the same fingerprint.  After the region
every kept answer is compared, as sorted match keys, with
``repro.tpq.naive.find_embeddings`` on that generation's document; a
wrong one fails every operation that returned it.
"""

from __future__ import annotations

from array import array

from repro import parse_pattern
from repro.tpq.naive import find_embeddings


def oracle_keys(document, text: str) -> list[tuple[int, ...]]:
    return [
        tuple(node.start for node in match)
        for match in find_embeddings(document, parse_pattern(text))
    ]


def pack_keys(keys: list[tuple[int, ...]]) -> tuple[int, array]:
    """Match keys as one flat array: a kept 50 000-match answer must not
    leave 50 000 GC-tracked tuples on the measured process's heap."""
    arity = len(keys[0]) if keys else 0
    return arity, array("q", [label for key in keys for label in key])


def unpack_keys(packed: tuple[int, array]) -> list[tuple[int, ...]]:
    arity, flat = packed
    return [tuple(flat[i:i + arity]) for i in range(0, len(flat), arity)]


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (query text, generation) -> [fingerprint, payload, uses]
        self._answers: dict[tuple, list] = {}

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def error(self, what: str) -> None:
        """An operation that raised or was refused."""
        self.attempted += 1
        self.fail(what)

    def done(self) -> None:
        """An operation with no answer of its own to check (a commit)."""
        self.attempted += 1

    def has(self, text: str, generation) -> bool:
        return (text, generation) in self._answers

    def answer(self, text: str, generation, fingerprint, payload=None) -> None:
        self.attempted += 1
        entry = self._answers.get((text, generation))
        if entry is None:
            self._answers[(text, generation)] = [
                fingerprint, fingerprint if payload is None else payload, 1,
            ]
        elif entry[0] != fingerprint:
            self.fail(f"{text} @generation {generation}: answer changed")
        else:
            entry[2] += 1

    def verify(self, document_of, keys_of) -> None:
        """Compare every kept answer with the oracle.

        ``document_of(generation)`` must be called with non-decreasing
        generations (the storm replays its deltas); ``keys_of(payload)``
        turns a kept answer into match keys.
        """
        for (text, generation), entry in sorted(
            self._answers.items(), key=lambda item: item[0][1]
        ):
            expected = oracle_keys(document_of(generation), text)
            if sorted(keys_of(entry[1])) != expected:
                self.fail(
                    f"{text} @generation {generation}: differs from the"
                    " oracle", count=entry[2],
                )
        self._answers.clear()
