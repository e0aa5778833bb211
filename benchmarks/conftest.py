"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark module measures wall-clock time through pytest-benchmark
*and* writes the paper-shaped result table (per-query × per-combo, with
machine-independent work counters) to ``benchmarks/results/<exp>.txt`` so
EXPERIMENTS.md can record paper-vs-measured without scraping test output.

Scales are chosen so the full suite finishes in minutes on one machine;
override with the ``REPRO_BENCH_SCALE`` environment variable (a multiplier
applied to every dataset scale).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.datasets import nasa as nasa_data
from repro.datasets import xmark as xmark_data
from repro.storage.catalog import ViewCatalog

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Dataset scales standing in for the paper's "standard" documents.
XMARK_SCALE = 2.0 * _SCALE
NASA_SCALE = 3.0 * _SCALE


def write_report(name: str, *sections: str) -> None:
    """Persist an experiment's text report under benchmarks/results/.

    A scaled run (``REPRO_BENCH_SCALE`` != 1, e.g. the CI smoke leg) is
    not the recorded experiment and leaves the committed tables alone.
    """
    if _SCALE != 1.0:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n\n".join(sections) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def xmark_doc():
    return xmark_data.generate(scale=XMARK_SCALE, seed=42)


@pytest.fixture(scope="session")
def nasa_doc():
    return nasa_data.generate(scale=NASA_SCALE, seed=42)


@pytest.fixture(scope="session")
def xmark_catalog(xmark_doc):
    with ViewCatalog(xmark_doc) as catalog:
        yield catalog


@pytest.fixture(scope="session")
def nasa_catalog(nasa_doc):
    with ViewCatalog(nasa_doc) as catalog:
        yield catalog
