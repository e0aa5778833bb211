"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlParseError(ReproError):
    """Raised when XML text cannot be parsed into a document tree."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PatternParseError(ReproError):
    """Raised when an XPath-fragment string cannot be parsed into a TPQ."""


class PatternError(ReproError):
    """Raised when a tree pattern violates a structural requirement.

    For example: duplicate element types inside one pattern, or a view set
    that shares element types across views (both disallowed in the paper's
    simplified query model, Section II).
    """


class CoverageError(ReproError):
    """Raised when a view set cannot answer a query (not a covering set)."""


class StorageError(ReproError):
    """Raised for storage-layer failures (bad pages, bad pointers, codecs)."""


class PagerError(StorageError):
    """Raised for page-file level failures (out-of-range page ids, etc.)."""


class EvaluationError(ReproError):
    """Raised when a query cannot be evaluated with the requested engine.

    For example: asking InterJoin to evaluate a twig query, or asking for a
    storage scheme the chosen algorithm does not support (paper Table I).
    """


class SelectionError(ReproError):
    """Raised when view selection cannot produce a covering subset."""


class ServiceError(ReproError):
    """Raised by the query service for lifecycle/contract violations.

    For example: evaluating a job whose views were not warmed up even
    though the caller promised a warm catalog, or dispatching parallel
    work from a service whose catalog cannot be snapshotted.
    """


class StoreCorrupt(StorageError):
    """Raised when stored bytes fail integrity verification.

    Carries enough context to quarantine the damaged unit: the page ids
    that failed their checksum and the views (if known) whose manifests
    reference them.  Raised by checksum-verified page reads, by
    :func:`repro.storage.persistence.load_catalog` with ``verify=True``,
    and by :func:`repro.resilience.guard.verify_store`.
    """

    def __init__(
        self,
        message: str,
        pages: tuple[int, ...] = (),
        views: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.pages = tuple(pages)
        self.views = tuple(views)


class QueryTimeout(ServiceError):
    """Raised when a query (or batch) exceeds its deadline.

    The bounded-time alternative to a hang: parallel dispatch abandons
    outstanding work, recycles the worker pool, and surfaces this typed
    failure instead of blocking on a stalled worker forever.
    """


class WorkerLost(ServiceError):
    """Raised when a worker process died and capped retries ran out.

    A killed pool worker breaks the whole :class:`ProcessPoolExecutor`;
    the service respawns the pool and resubmits the unfinished jobs a
    bounded number of times before giving up with this error.
    """


class ContinuationError(ServiceError):
    """Base class for continuation-token failures of preemptible queries.

    A suspended evaluation travels as an opaque token
    (:mod:`repro.service.continuation`); resuming it can fail in exactly
    two typed ways — the token bytes are damaged, or the token is intact
    but the world it described no longer exists.
    """


class ContinuationMalformed(ContinuationError):
    """Raised when a continuation token cannot be decoded.

    Covers truncated/bit-flipped/garbage tokens (bad base64, bad magic,
    checksum mismatch, undecodable payload) and structurally invalid
    payloads.  Never indicates a server-side state change — retrying with
    the original, uncorrupted token is safe.
    """


class ContinuationExpired(ContinuationError):
    """Raised when an intact continuation token is no longer resumable.

    The suspended position referenced state that is gone: its pinned
    store generation was garbage-collected, a quarantine or
    ``QueryService.drop`` removed a view it planned over from the live
    generation, the service shut down, or another service instance
    issued the token.  A maintenance commit or a pool respawn alone does
    not expire a token.  The client must restart the query from
    ``POST /query``.
    """


class FaultInjected(ReproError):
    """Raised by a deterministic fault-injection point simulating a crash.

    Only ever raised when a :class:`repro.resilience.faults.FaultPlan`
    is installed (``REPRO_FAULTS`` or an explicit plan); production code
    paths never see it.  Crash-atomicity tests assert that the state a
    ``FaultInjected`` interrupts is still loadable/replayable.
    """


class DatasetError(ReproError):
    """Raised when a synthetic-dataset generator receives bad parameters."""


class MaintenanceError(ReproError):
    """Raised by the incremental view-maintenance subsystem.

    For example: a delta addressing a node that does not exist, an
    attempt to delete the document root, or a corrupt update-log record.
    """


class LintError(ReproError):
    """Raised by the repro-lint analyzer for unusable inputs.

    For example: a baseline file that is not valid JSON, or a lint target
    path outside the analyzed package root.
    """
