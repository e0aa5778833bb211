"""repro-lint tests: one fixture per rule (positive + suppressed +
baseline), CLI exit codes on seeded violations, and the self-check that
the repository itself is lint-clean against the committed baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import lint_package, lint_text
from repro.analysis.baseline import write_baseline
from repro.analysis.core import Finding
from repro.cli import main
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes(findings):
    return sorted({f.code for f in findings})


# -- RL101 fixtures: hot-path purity, retired into RL201 ----------------------
#
# RL101 (the per-file hot-path rule) is retired; RL201 checks a hot
# root's own body as well as its algorithms/-layer callees, so every
# RL101 fixture now fires RL201, anchored at the def line.

RL101_POSITIVE = """\
def scan(entries):  # repro-lint: hot
    out = []
    for entry in entries:
        try:
            out.append(element_of(entry))
        except KeyError:
            pass
    return out
"""

RL101_SUPPRESSED = """\
# repro-lint: hot
def scan(columns, n):  # repro-lint: disable=RL201 (emission only)
    out = []
    for i in range(n):
        out.append(columns.entry(i))
    return out
"""


def test_rl101_flags_record_construction_and_try_in_loop():
    found = lint_text(RL101_POSITIVE, "algorithms/foo.py")
    assert codes(found) == ["RL201"]
    messages = " ".join(f.message for f in found)
    assert "'allocates-records' in its own body" in messages
    assert "'loop-exception-setup' in its own body" in messages
    # A marked root outside algorithms/ still has its own body checked.
    assert codes(lint_text(RL101_POSITIVE, "rl101.py")) == ["RL201"]


def test_rl101_registry_covers_known_hot_functions():
    snippet = (
        "class TagSource:\n"
        "    def collect_from(self, index):\n"
        "        return self.stored.read(index)\n"
    )
    found = lint_text(snippet, "algorithms/access.py")
    assert codes(found) == ["RL201"]
    assert found[0].symbol == "TagSource.collect_from"
    assert "'reference-decode'" in found[0].message
    # The same code under an unregistered path/function is not hot.
    assert lint_text(snippet, "algorithms/other.py") == []


def test_rl101_flags_property_style_record_factories():
    """``cursor.current`` builds a record on the attribute read — no call
    to see — and the engines' admission kernels are registered hot."""
    snippet = (
        "class _ViewJoinRun:\n"
        "    def _add_nodes(self, tag):\n"
        "        cursor = self.cursors[tag]\n"
        "        self.dag.add(tag, cursor.current)\n"
        "        cursor.advance()\n"
    )
    found = lint_text(snippet, "algorithms/viewjoin.py")
    assert codes(found) == ["RL201"]
    assert found[0].symbol == "_ViewJoinRun._add_nodes"
    assert "'allocates-records'" in found[0].message
    # admitting the cursor's own ints is what the rule asks for
    clean = snippet.replace(
        "cursor.current", "cursor.position, cursor.start, cursor.end"
    )
    assert lint_text(clean, "algorithms/viewjoin.py") == []


def test_rl101_suppression_silences_the_line():
    # Program rules anchor at the def line, so that is where the
    # suppression goes (the hot marker moves to the line above).
    assert lint_text(RL101_SUPPRESSED, "algorithms/foo.py") == []


# -- RL102 fixtures: I/O-accounting mirror, retired into RL203 ----------------

RL102_POSITIVE = """\
class Reader:
    def load(self, page_id):
        return self.page_file.read_page_raw(page_id)
"""

RL102_MIRRORED = """\
class Reader:
    def load(self, page_id):
        self.pool.touch(page_id, 0)
        return self.page_file.read_page_raw(page_id)
"""

RL203_COLUMN_ENTRY = """\
class Reader:
    def record(self, index):
        return self._columns.entry(index)
"""


def test_rl102_flags_unmirrored_raw_reads_in_storage():
    found = lint_text(RL102_POSITIVE, "storage/foo.py")
    assert codes(found) == ["RL203"]
    assert found[0].symbol == "Reader.load"
    # Raw page reads need a mirror wherever they happen.
    assert codes(lint_text(RL102_POSITIVE, "algorithms/foo.py")) == ["RL203"]


def test_rl102_touch_in_scope_satisfies_the_mirror():
    assert lint_text(RL102_MIRRORED, "storage/foo.py") == []


def test_rl102_alias_resolution():
    snippet = (
        "class Reader:\n"
        "    def load(self, page_id):\n"
        "        read_raw = self.page_file.read_page_raw\n"
        "        return read_raw(page_id)\n"
    )
    assert codes(lint_text(snippet, "storage/foo.py")) == ["RL203"]


def test_rl203_flags_unmirrored_column_entry_in_storage():
    """In storage/, building a record from the packed columns is a raw
    read too: it needs a pool mirror like read_page_raw does."""
    found = lint_text(RL203_COLUMN_ENTRY, "storage/foo.py")
    assert codes(found) == ["RL203"]
    assert found[0].symbol == "Reader.record"
    mirrored = RL203_COLUMN_ENTRY.replace(
        "        return self._columns.entry(index)",
        "        self.pool.touch(index, 0)\n"
        "        return self._columns.entry(index)",
    )
    assert lint_text(mirrored, "storage/foo.py") == []
    aliased = RL203_COLUMN_ENTRY.replace(
        "        return self._columns.entry(index)",
        "        entry = self._columns.entry\n"
        "        return entry(index)",
    )
    assert codes(lint_text(aliased, "storage/foo.py")) == ["RL203"]
    # The column trigger is storage/-scoped: engines read columns
    # through cursors that mirror for them.
    assert lint_text(RL203_COLUMN_ENTRY, "algorithms/foo.py") == []


# -- RL103: determinism --------------------------------------------------------

RL103_SET_ITERATION = """\
def emit(tags):
    names = set(tags)
    out = []
    for name in names:
        out.append(name)
    return out
"""

RL103_SORTED = """\
def emit(tags):
    names = set(tags)
    return [name for name in sorted(names)]
"""


def test_rl103_flags_unordered_set_iteration():
    found = lint_text(RL103_SET_ITERATION, "algorithms/foo.py")
    assert codes(found) == ["RL103"]
    # Sorting launders the order; set comprehensions stay order-free.
    assert lint_text(RL103_SORTED, "algorithms/foo.py") == []
    assert lint_text(
        "def keep(tags):\n    return {t for t in set(tags)}\n",
        "algorithms/foo.py",
    ) == []


def test_rl103_scope_is_engine_and_service():
    assert lint_text(RL103_SET_ITERATION, "bench/foo.py") == []


def test_rl103_flags_random_and_wall_clock():
    found = lint_text("import random\n", "service/foo.py")
    assert codes(found) == ["RL103"]
    assert lint_text("import random\n", "datasets/foo.py") == []

    found = lint_text(
        "import time\n\ndef now():\n    return time.time()\n",
        "algorithms/foo.py",
    )
    assert codes(found) == ["RL103"]
    assert lint_text(
        "import time\n\ndef tick():\n    return time.perf_counter()\n",
        "algorithms/foo.py",
    ) == []


RL103_RANDOM_OFF_SINK = """\
import random

def shuffle_order(items):
    random.shuffle(items)
    return items
"""


def test_rl103_is_not_subsumed_by_rl202():
    """RL202 sees only what reaches its four sinks; RL103 checks every
    function in scope plus module-level ``random`` imports, so it stays
    a rule of its own."""
    found = lint_text(RL103_RANDOM_OFF_SINK, "service/foo.py")
    assert codes(found) == ["RL103"]
    assert {f.line for f in found} == {1}


def test_rl103_suppression():
    suppressed = RL103_SET_ITERATION.replace(
        "for name in names:",
        "for name in names:  # repro-lint: disable=RL103 (membership only)",
    )
    assert lint_text(suppressed, "algorithms/foo.py") == []


# -- RL104 fixtures: cache coherence, retired into RL204 ---------------------

RL104_POSITIVE = """\
class Planner:
    def register(self, view):
        self._registered.append(view)
"""

RL104_BUMPED = """\
class Planner:
    def register(self, view):
        self._registered.append(view)
        self._bump_generation()
"""

RL104_CATALOG = """\
class ViewCatalog:
    def add(self, key, info):
        self._views[key] = info
"""


def test_rl104_flags_mutation_without_generation_bump():
    found = lint_text(RL104_POSITIVE, "planner.py")
    assert codes(found) == ["RL204"]
    assert found[0].symbol == "Planner.register"
    assert lint_text(RL104_BUMPED, "planner.py") == []
    # The contract is path-scoped: the same class elsewhere is unchecked.
    assert lint_text(RL104_POSITIVE, "algorithms/foo.py") == []


def test_rl104_catalog_contract_requires_version_store():
    found = lint_text(RL104_CATALOG, "storage/catalog.py")
    assert codes(found) == ["RL204"]
    fixed = RL104_CATALOG.replace(
        "self._views[key] = info",
        "self._views[key] = info\n        self.version += 1",
    )
    assert lint_text(fixed, "storage/catalog.py") == []


def test_rl104_init_is_exempt():
    snippet = (
        "class Planner:\n"
        "    def __init__(self):\n"
        "        self._registered = []\n"
    )
    assert lint_text(snippet, "planner.py") == []


RL104_MAINTENANCE_POSITIVE = """\
def install(catalog, document, views):
    catalog.document = document
    catalog._views = dict(views)
"""

RL104_MAINTENANCE_SATISFIED = """\
def install(catalog, document, views):
    catalog.install_maintained(document, views)
"""


def test_rl104_maintenance_mutators_need_install_or_version_bump():
    # Any-receiver contract: assigning catalog-attached view state from
    # maintenance code must go through install_maintained (or bump the
    # catalog version itself), whatever the receiver variable is called.
    found = lint_text(RL104_MAINTENANCE_POSITIVE, "maintenance/engine.py")
    assert codes(found) == ["RL204"]
    assert found[0].symbol == "install"
    assert lint_text(
        RL104_MAINTENANCE_SATISFIED, "maintenance/engine.py"
    ) == []
    bumped = RL104_MAINTENANCE_POSITIVE + "    catalog.version += 1\n"
    assert lint_text(bumped, "maintenance/engine.py") == []
    # Path-scoped: the same function outside maintenance/ is unchecked.
    assert lint_text(RL104_MAINTENANCE_POSITIVE, "algorithms/foo.py") == []
    # Suppressions are line-scoped: RL204 anchors at the def line, so a
    # comment on the mutation line does not silence it.
    at_mutation = RL104_MAINTENANCE_POSITIVE.replace(
        "catalog.document = document",
        "catalog.document = document"
        "  # repro-lint: disable=RL204 (caller installs)",
    )
    assert codes(lint_text(at_mutation, "maintenance/engine.py")) == [
        "RL204"
    ]
    at_def = RL104_MAINTENANCE_POSITIVE.replace(
        "def install(catalog, document, views):",
        "def install(catalog, document, views):"
        "  # repro-lint: disable=RL204 (caller installs)",
    )
    assert lint_text(at_def, "maintenance/engine.py") == []


# -- RL105: exception discipline -----------------------------------------------

def test_rl105_flags_builtin_raises_and_broad_excepts():
    found = lint_text(
        "def f():\n    raise ValueError('bad')\n", "planner.py"
    )
    assert codes(found) == ["RL105"]
    found = lint_text(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        pass\n",
        "planner.py",
    )
    assert codes(found) == ["RL105"]
    found = lint_text(
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except:\n"
        "        pass\n",
        "planner.py",
    )
    assert codes(found) == ["RL105"]


def test_rl105_allows_repro_errors_and_internal_invariants():
    clean = (
        "from repro.errors import StorageError\n"
        "def f():\n"
        "    raise StorageError('bad page')\n"
        "def g():\n"
        "    raise AssertionError  # unreachable\n"
    )
    assert lint_text(clean, "storage/foo.py") == []


def test_rl105_suppression():
    suppressed = (
        "def f():\n"
        "    raise ValueError('bad')  # repro-lint: disable=RL105 (legacy API)\n"
    )
    assert lint_text(suppressed, "planner.py") == []


# -- RL106: wait discipline ----------------------------------------------------

RL106_SLEEP = """\
import time

def poll(worker):
    time.sleep(0.5)
    return worker.status()
"""

RL106_RETRY_LOOP = """\
def fetch(jobs, pool):
    results = []
    for job in jobs:
        try:
            results.append(pool.run(job))
        except OSError:
            continue
    return results
"""

RL106_SANCTIONED = """\
def fetch(job, pool, policy):
    for attempt in policy.attempts("fetch"):
        try:
            return pool.run(job)
        except OSError:
            continue
    return None
"""


def test_rl106_flags_sleep_and_sleep_import():
    # (RL103 independently flags the wall-clock read; RL106 adds the
    # wait-discipline violation.)
    assert "RL106" in codes(lint_text(RL106_SLEEP, "service/poller.py"))
    imported = "from time import sleep\n\ndef f():\n    sleep(1)\n"
    assert "RL106" in codes(lint_text(imported, "maintenance/poller.py"))


def test_rl106_flags_hand_rolled_retry_loop():
    found = lint_text(RL106_RETRY_LOOP, "service/runner.py")
    assert codes(found) == ["RL106"]
    assert "RetryPolicy" in found[0].message


def test_rl106_policy_iteration_sanctions_the_loop():
    assert lint_text(RL106_SANCTIONED, "service/runner.py") == []


def test_rl106_scope_is_service_and_maintenance():
    # The same code outside service/ and maintenance/ is not flagged
    # (bench harnesses and dataset builders may wait however they like).
    assert lint_text(RL106_SLEEP, "bench/driver.py") == []
    assert lint_text(RL106_RETRY_LOOP, "datasets/fetch.py") == []


def test_rl106_suppression():
    suppressed = (
        "import time\n"
        "def f():\n"
        "    time.sleep(1)  # repro-lint: disable=RL106 (test shim)\n"
    )
    assert "RL106" not in codes(lint_text(suppressed, "service/poller.py"))


# -- RL107: batch-loop planning discipline -------------------------------------

RL107_POSITIVE = """\
class QueryService:
    def evaluate_batch(self, queries):
        outcomes = []
        for query in queries:
            plan = self.planner.plan(query)
            self.catalog.add(plan.view, "LE")
            outcomes.append(plan)
        return outcomes
"""

RL107_HOISTED = """\
class QueryService:
    def evaluate_batch(self, queries):
        plans = self._plan_batch(queries)
        self._materialize_batch(plans)
        return [self._outcome_of(plan) for plan in plans]
"""


def test_rl107_flags_per_item_planning_and_catalog_access():
    found = lint_text(RL107_POSITIVE, "service/core.py")
    assert codes(found) == ["RL107"]
    assert len(found) == 2
    messages = " ".join(f.message for f in found)
    assert "_plan_batch" in messages
    assert "self.catalog.add" in messages
    assert all(f.symbol == "QueryService.evaluate_batch" for f in found)


def test_rl107_hoisted_batch_passes():
    # Planning through the batch pre-passes (outside the per-item loop)
    # is the sanctioned shape.
    assert lint_text(RL107_HOISTED, "service/core.py") == []


def test_rl107_registry_is_path_and_qualname_scoped():
    # Same code outside the registered module is unchecked...
    assert lint_text(RL107_POSITIVE, "service/other.py") == []
    # ...and so is an unregistered function in the registered module.
    renamed = RL107_POSITIVE.replace("QueryService", "Other")
    assert lint_text(renamed, "service/core.py") == []


def test_rl107_comprehensions_count_as_loops():
    snippet = (
        "class QueryService:\n"
        "    def evaluate_parallel(self, queries):\n"
        "        return [self.planner.plan(q) for q in queries]\n"
    )
    found = lint_text(snippet, "service/core.py")
    assert codes(found) == ["RL107"]
    assert found[0].symbol == "QueryService.evaluate_parallel"


def test_rl107_catalog_calls_are_receiver_matched():
    # `get` on a non-catalog receiver (a result cache) stays in scope.
    snippet = (
        "class QueryService:\n"
        "    def evaluate_batch(self, queries):\n"
        "        return [self._result_cache.get(q) for q in queries]\n"
    )
    assert lint_text(snippet, "service/core.py") == []


def test_rl107_suppression():
    suppressed = RL107_POSITIVE.replace(
        "plan = self.planner.plan(query)",
        "plan = self.planner.plan(query)"
        "  # repro-lint: disable=RL107 (fallback path)",
    ).replace(
        'self.catalog.add(plan.view, "LE")',
        'self.catalog.add(plan.view, "LE")'
        "  # repro-lint: disable=RL107 (fallback path)",
    )
    assert lint_text(suppressed, "service/core.py") == []


# -- baseline behaviour --------------------------------------------------------

def _write_module(root: Path, rel: str, source: str) -> None:
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")


def test_baseline_grandfathers_known_findings(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "planner.py", "def f():\n    raise ValueError('x')\n")
    baseline = tmp_path / "baseline.json"

    report = lint_package(root=root, baseline_path=baseline)
    assert not report.ok
    assert codes(report.new_findings) == ["RL105"]

    write_baseline(baseline, report.new_findings)
    report = lint_package(root=root, baseline_path=baseline)
    assert report.ok
    assert len(report.baselined) == 1


def test_baseline_reports_stale_entries(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "planner.py", "def f():\n    return 1\n")
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, [
        Finding("RL105", "planner.py", 2, 4, "raises builtin ValueError")
    ])
    report = lint_package(root=root, baseline_path=baseline)
    assert report.ok
    assert len(report.stale_baseline) == 1


def test_malformed_baseline_raises_lint_error(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json", encoding="utf-8")
    with pytest.raises(LintError):
        lint_package(root=tmp_path, baseline_path=baseline)


# -- CLI + seeded violations (acceptance criteria) -----------------------------

#: One seeded violation per fixture family -> (path, source, the one
#: code it fires).  The retired per-file codes keep their fixtures, now
#: fired by the rule that owns the invariant.
SEEDED = {
    "RL101": ("rl101.py", RL101_POSITIVE, "RL201"),
    "RL102": ("storage/rl102.py", RL102_POSITIVE, "RL203"),
    "RL103": ("service/rl103.py", "import random\n", "RL103"),
    "RL104": ("planner.py", RL104_POSITIVE, "RL204"),
    "RL105": ("rl105.py", "def f():\n    raise ValueError('x')\n", "RL105"),
    "RL106": ("service/rl106.py", RL106_RETRY_LOOP, "RL106"),
    "RL107": ("service/core.py", RL107_POSITIVE, "RL107"),
}


@pytest.mark.parametrize("fixture", sorted(SEEDED))
def test_cli_exits_nonzero_on_each_seeded_violation(tmp_path, capsys, fixture):
    rel, source, code = SEEDED[fixture]
    root = tmp_path / "pkg"
    _write_module(root, rel, source)
    baseline = tmp_path / "baseline.json"
    exit_code = main([
        "lint", "--root", str(root), "--baseline", str(baseline), "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["counts"]["per_rule"][code] >= 1
    assert {f["code"] for f in payload["findings"]} == {code}


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(root, "ok.py", "def f():\n    return 1\n")
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "baseline.json"),
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "0 finding(s)" in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(root, "rl105.py", "def f():\n    raise ValueError('x')\n")
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", "--root", str(root), "--baseline", str(baseline),
        "--write-baseline",
    ]) == 0
    capsys.readouterr()
    assert main([
        "lint", "--root", str(root), "--baseline", str(baseline),
    ]) == 0
    assert "1 baselined" in capsys.readouterr().out


# -- self-check ----------------------------------------------------------------

def test_repository_is_lint_clean_against_committed_baseline():
    report = lint_package(
        root=REPO_ROOT / "src" / "repro",
        baseline_path=REPO_ROOT / ".repro-lint-baseline.json",
    )
    assert report.ok, "\n".join(
        f"{f.location()}: {f.code}: {f.message}" for f in report.new_findings
    )
    assert not report.stale_baseline
    assert report.files_checked > 50
