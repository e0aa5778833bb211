"""Multi-process query service with plan and result caching.

Public surface::

    from repro.service import QueryService

    service = QueryService(catalog)          # or QueryService.open(store)
    service.register("//a//b")               # service.drop(name) undoes it
    service.warmup(queries)
    one   = service.evaluate("//a//b//c")
    batch = service.evaluate_batch(queries)
    fast  = service.evaluate_parallel(queries, workers=4)

Every read goes through one pipeline (resolve → lookup → materialize →
execute → settle; see :mod:`repro.service.core`).  ``evaluate_batch``
and ``evaluate_parallel`` are byte-identical to a loop of ``evaluate``
in match keys and merged work/I-O counters (the determinism contract),
while duplicate eval nodes within (and across) batches run once and
replay to every consumer (:mod:`repro.service.shared`);
:class:`EvalJob`/:func:`run_job` are the lower level explicit-plan API
the benchmark harness drives.

Preemptible serving sits next to the batch API: ``evaluate_quantum``
answers the first quantum of a query under a
:class:`~repro.algorithms.preempt.QuantumBudget` and — when suspended —
returns a :class:`QuantumOutcome` carrying an opaque continuation token;
``resume_quantum`` picks the run back up, one quantum per call, until
``done``.  Concatenated pages are byte-identical to the one-shot
answer, and dead tokens (generation garbage-collected, a planned view
quarantined or dropped, shutdown) die as typed
:class:`~repro.errors.ContinuationExpired`.  The asyncio HTTP front end
in :mod:`repro.server` is a thin shell over these two calls.
"""

from repro.service.continuation import decode_token, encode_token
from repro.service.core import (
    BatchResult,
    QuantumOutcome,
    QueryOutcome,
    QueryService,
)
from repro.service.jobs import (
    EvalJob,
    JobFailure,
    JobResult,
    merge_results,
    run_job,
)
from repro.service.shared import SharedStats, node_digest, node_key
from repro.service.streams import StreamCache
from repro.service.worker import run_worker_jobs

__all__ = [
    "BatchResult",
    "EvalJob",
    "JobFailure",
    "JobResult",
    "QuantumOutcome",
    "QueryOutcome",
    "QueryService",
    "SharedStats",
    "StreamCache",
    "decode_token",
    "encode_token",
    "merge_results",
    "node_digest",
    "node_key",
    "run_job",
    "run_worker_jobs",
]
