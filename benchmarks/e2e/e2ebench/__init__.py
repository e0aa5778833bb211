"""End-to-end + per-layer benchmark of the ViewJoin stack.

The harness drives the program only through names exported from
``repro``'s public ``__init__``s / ``docs/API.md`` and times those calls
from outside, so it keeps working across refactors of the internals.
``run.py`` is the entry point; ``README.md`` is the glossary.
"""

from __future__ import annotations

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"

_SRC = REPO_ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"the benchmark measures the program under {_SRC}/repro, which is"
        " missing; run it from a checkout of the whole repository"
    )
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
