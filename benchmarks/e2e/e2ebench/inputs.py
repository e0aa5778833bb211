"""Benchmark inputs: everything the program receives, made from the seed.

One XMark document (``STANDARD_SCALE`` unless ``--smoke``) with the 14
paper queries and their covering views serves all four workloads.  The
seed drives the document, the ``service_mix`` request stream and the
``update_storm`` deltas; query classes, the service pool and its Zipf
rank order are fixed in this file so that two seeds measure the same
workload on two documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import ViewCatalog
from repro.datasets import xmark as xmark_data
from repro.datasets.updates import random_update_sequence
from repro.workloads import xmark as xmark_queries

SCALE = xmark_queries.STANDARD_SCALE
SMOKE_SCALE = 0.5
#: The ``QueryService`` default scheme; every view is materialized in it.
SCHEME = "LEp"
#: Heavy = 51 200-56 880 matches at scale 4; the other 11 are light
#: (100-3 411 matches).  Fixed by name, not by measurement.
HEAVY_NAMES = ("Q8", "Q9", "Q11")

#: ``service_mix``: a group is four single requests, then one batch
#: (request ``i`` is a batch when ``i % 5 == 4``).
SINGLES_PER_GROUP = 4
BATCH_SIZE = 12
ZIPF_EXPONENT = 1.1
RESULT_CACHE_SIZE = 16

#: ``update_storm``: each round is one commit, then these live reads and
#: one pinned read.
LIVE_READS_PER_ROUND = 4
#: Deltas are generated up front (``random_update_sequence`` applies each
#: one to its evolving document, ~35 ms per delta at scale 4), sized for
#: this commit rate plus four passes of slack (a traced run measures two
#: regions, each may overrun by a pass); a storm that outruns them ends
#: early.
MAX_COMMITS_PER_SECOND = 5
MAX_SUBTREE = 5

SPECS = list(xmark_queries.ALL_QUERIES)
LIGHT = [spec for spec in SPECS if spec.name not in HEAVY_NAMES]
HEAVY = [xmark_queries.BY_NAME[name] for name in HEAVY_NAMES]


def _service_pool() -> list[str]:
    """The 11 light queries, then every view pattern of >= 2 nodes used
    as a query (deduplicated, workload order): ~3x the result cache."""
    texts = [spec.query.to_xpath() for spec in LIGHT]
    for spec in SPECS:
        for view in spec.views:
            text = view.to_xpath()
            if len(view.nodes) >= 2 and text not in texts:
                texts.append(text)
    return texts


SERVICE_POOL = _service_pool()


def generate_document(scale: float, seed: int):
    return xmark_data.generate(scale=scale, seed=seed)


def materialize_views(document) -> ViewCatalog:
    """An in-memory catalog holding every covering view in ``SCHEME``."""
    catalog = ViewCatalog(document)
    for spec in SPECS:
        for view in spec.views:
            catalog.add(view, SCHEME)
    return catalog


class ZipfStream:
    """Seeded request texts over ``SERVICE_POOL`` with Zipf
    (``ZIPF_EXPONENT``) frequencies; rank = pool position, so the hot set
    is the same for every seed.

    ``draws(count)`` is a stratified sample: every text appears exactly
    its Zipf share of ``count`` times (largest remainder) and only the
    order is random.  Plain independent draws made the slow tail of a
    pass depend on which rare, expensive texts happened to be drawn
    (the light tail percentile spread 31 % over ten seeds).
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        weights = [
            rank ** -ZIPF_EXPONENT for rank in range(1, len(SERVICE_POOL) + 1)
        ]
        self._shares = [weight / sum(weights) for weight in weights]

    def draws(self, count: int) -> list[str]:
        quotas = [share * count for share in self._shares]
        counts = [int(quota) for quota in quotas]
        by_remainder = sorted(
            range(len(quotas)), key=lambda i: quotas[i] - counts[i],
            reverse=True,
        )
        for index in by_remainder[:count - sum(counts)]:
            counts[index] += 1
        texts = [
            text for text, times in zip(SERVICE_POOL, counts)
            for _ in range(times)
        ]
        self._rng.shuffle(texts)
        return texts

    def groups(self, count: int):
        """``count`` request groups of the stream: the texts of the
        single requests, then those of the batch."""
        singles = self.draws(count * SINGLES_PER_GROUP)
        batched = self.draws(count * BATCH_SIZE)
        for group in range(count):
            yield (
                singles[group * SINGLES_PER_GROUP:(group + 1) * SINGLES_PER_GROUP],
                batched[group * BATCH_SIZE:(group + 1) * BATCH_SIZE],
            )


@dataclass
class Inputs:
    """What one run is made from; ``document`` is the harness's own copy
    (oracle, delta generation) — every set-up generates the program's."""

    seed: int
    scale: float = SCALE
    document: object = field(init=False)

    def __post_init__(self):
        self.document = generate_document(self.scale, self.seed)

    def deltas(self, seconds: float) -> list:
        count = int(MAX_COMMITS_PER_SECOND * seconds) + 4 * len(LIGHT)
        deltas, _final = random_update_sequence(
            self.document, count=count, seed=self.seed,
            max_subtree=MAX_SUBTREE,
        )
        return deltas
