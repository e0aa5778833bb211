"""Whole-program lint tests: call graph construction, effect inference,
the analysis cache, the RL2xx rule family, runner hardening (parse
errors, empty files, stale suppressions), and the SARIF reporter.

Per-file rule fixtures live in ``test_repro_lint.py``; everything here
exercises the interprocedural layer added with the RL2xx rules.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import build_program, lint_package, lint_text
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.core import ModuleInfo
from repro.analysis.dataflow import (
    first_reaching_path,
    pretty_chain,
    reachable,
)
from repro.analysis.effects import AnalysisCache, direct_effects_of
from repro.analysis.reporters import render_sarif
from repro.cli import main


def codes(findings):
    return sorted({f.code for f in findings})


def _write_module(root: Path, rel: str, source: str) -> None:
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")


def _program(sources: dict[str, str]):
    return build_program({
        path: ModuleInfo(path, text) for path, text in sources.items()
    })


# -- call graph ----------------------------------------------------------------


def test_callgraph_resolves_self_method_calls():
    program = _program({"a.py": (
        "class A:\n"
        "    def run(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
    )})
    assert program.graph.edges["a.py::A.run"] == ("a.py::A.helper",)
    assert ("a.py::A.run", "a.py::A.helper") not in program.graph.fuzzy


def test_callgraph_resolves_cross_module_imports():
    program = _program({
        "util.py": "def helper(x):\n    return x + 1\n",
        "app.py": (
            "from repro.util import helper\n\n"
            "def top(x):\n"
            "    return helper(x)\n"
        ),
    })
    assert program.graph.edges["app.py::top"] == ("util.py::helper",)


def test_callgraph_stats_count_nodes_and_edges():
    program = _program({
        "a.py": "def f():\n    return g()\n\ndef g():\n    return 1\n",
    })
    stats = program.graph.stats()
    assert stats["nodes"] == 2
    assert stats["edges"] == 1


# -- effect inference ----------------------------------------------------------


@pytest.mark.parametrize("body,expected", [
    ("    return element_of(x)\n", "allocates-records"),
    ("    return x.current\n", "allocates-records"),
    ("    for i in x:\n        try:\n            pf(i)\n"
     "        except KeyError:\n            pass\n", "loop-exception-setup"),
    ("    return self._columns.entry(x)\n", "raw-page-read"),
    ("    return pf.read_page_raw(x)\n", "raw-page-read"),
    ("    pool.touch(x, 0)\n", "mirrors-accounting"),
    ("    self._views[x] = 1\n", "mutates-view-state"),
    ("    self.version += 1\n", "bumps-generation"),
    ("    lock.acquire()\n", "unbounded-wait"),
    ("    global S\n    S = x\n", "mutates-global"),
    ("    gc.disable()\n", "mutates-global"),
    ("    gc.enable()\n", "mutates-global"),
    ("    gc.freeze()\n", "mutates-global"),
    ("    gc.set_threshold(10_000)\n", "mutates-global"),
    ("    return os.getenv('X')\n", "reads-environment"),
])
def test_direct_effect_extraction(body, expected):
    import ast

    tree = ast.parse(f"def f(self, x, pf, pool, lock):\n{body}")
    effects = direct_effects_of(tree.body[0], "storage/foo.py", "f")
    assert expected in effects


def test_bounded_wait_is_not_an_effect():
    import ast

    tree = ast.parse("def f(lock):\n    lock.acquire(timeout=1.0)\n")
    effects = direct_effects_of(tree.body[0], "a.py", "f")
    assert "unbounded-wait" not in effects


def test_nested_defs_are_excluded_from_enclosing_effects():
    import ast

    tree = ast.parse(
        "def outer():\n"
        "    def inner(x):\n"
        "        return element_of(x)\n"
        "    return inner\n"
    )
    effects = direct_effects_of(tree.body[0], "a.py", "outer")
    assert "allocates-records" not in effects


def test_transitive_effects_and_witness_chain():
    program = _program({
        "util.py": "def helper(x):\n    return element_of(x)\n",
        "app.py": (
            "from repro.util import helper\n\n"
            "def top(x):\n"
            "    return helper(x)\n"
        ),
    })
    fx = program.effects
    assert "allocates-records" not in fx.direct("app.py::top")
    assert "allocates-records" in fx.transitive("app.py::top")
    assert fx.inherited("app.py::top") == {"allocates-records"}
    assert fx.witness("app.py::top", "allocates-records") == [
        "app.py::top", "util.py::helper",
    ]


def test_recursive_functions_converge():
    program = _program({"a.py": (
        "def ping(x):\n"
        "    element_of(x)\n"
        "    return pong(x)\n\n"
        "def pong(x):\n"
        "    return ping(x)\n"
    )})
    fx = program.effects
    # mutual recursion: both members of the SCC see the union
    assert "allocates-records" in fx.transitive("a.py::pong")
    assert "allocates-records" in fx.transitive("a.py::ping")


# -- dataflow helpers ----------------------------------------------------------


def test_reachable_and_first_reaching_path():
    program = _program({
        "util.py": "def helper(x):\n    return element_of(x)\n",
        "app.py": (
            "from repro.util import helper\n\n"
            "def top(x):\n"
            "    return helper(x)\n"
        ),
    })
    forest = reachable(program.graph, ["app.py::top"])
    assert forest["util.py::helper"] == "app.py::top"
    chain = first_reaching_path(
        program.graph, "app.py::top",
        lambda n: n.endswith("::helper"),
    )
    assert chain == ["app.py::top", "util.py::helper"]
    assert pretty_chain(chain) == "top [app.py] -> helper [util.py]"


# -- RL201: transitive hot-path purity -----------------------------------------

RL201_POSITIVE = """\
def helper(entry):
    return element_of(entry)

def scan(entries):  # repro-lint: hot
    out = []
    for e in entries:
        out.append(helper(e))
    return out
"""


def test_rl201_flags_allocation_through_callee():
    found = lint_text(RL201_POSITIVE, "algorithms/foo.py")
    assert codes(found) == ["RL201"]
    # anchored at the hot root's def line, naming the chain
    assert found[0].symbol == "scan"
    assert "helper" in found[0].message
    # fingerprints stay line-free so the baseline survives code motion
    assert not any(ch.isdigit() and ":" in found[0].message
                   for ch in found[0].message.split()[-1])


def test_rl201_clean_when_callee_stays_on_raw_ints():
    clean = RL201_POSITIVE.replace("element_of(entry)", "entry + 1")
    assert lint_text(clean, "algorithms/foo.py") == []


def test_rl201_scoped_to_algorithms_layer():
    assert lint_text(RL201_POSITIVE, "service/foo.py") == []


def test_rl201_def_line_suppression():
    # RL201 anchors at the def line; the hot marker moves to the line
    # above so the suppression can share the def line.
    suppressed = RL201_POSITIVE.replace(
        "def scan(entries):  # repro-lint: hot",
        "# repro-lint: hot\n"
        "def scan(entries):  # repro-lint: disable=RL201 (compat shim)",
    )
    assert lint_text(suppressed, "algorithms/foo.py") == []


# -- RL202: determinism taint --------------------------------------------------

RL202_POSITIVE = """\
def pick_order(tags):
    names = set(tags)
    return [n for n in names]

def merge_results(parts):
    out = []
    for part in parts:
        out.extend(pick_order(part))
    return out
"""


def test_rl202_flags_nondet_source_reaching_merge_sink():
    found = lint_text(RL202_POSITIVE, "service/jobs.py")
    # the per-file RL103 co-fires on the set iteration itself
    assert "RL202" in codes(found)
    taint = [f for f in found if f.code == "RL202"]
    # anchored at the *source* function, naming the sink and the chain
    assert taint[0].symbol == "pick_order"
    assert "merge_results" in taint[0].message


def test_rl202_clean_when_source_sorts():
    clean = RL202_POSITIVE.replace(
        "return [n for n in names]", "return [n for n in sorted(names)]"
    )
    assert lint_text(clean, "service/jobs.py") == []


# -- RL203: accounting-mirror closure ------------------------------------------


def test_rl203_satisfied_by_mirror_in_callee():
    # The mirror is discharged in ``_mirror``: the closure sees it, so
    # the raw read in ``load`` is accounted for.
    source = (
        "class Reader:\n"
        "    def _mirror(self, page_id):\n"
        "        self.pool.touch(page_id, 0)\n\n"
        "    def load(self, page_id):\n"
        "        self._mirror(page_id)\n"
        "        return self.page_file.read_page_raw(page_id)\n"
    )
    assert lint_text(source, "storage/foo.py") == []


def test_rl203_fires_outside_storage_scope():
    source = (
        "class Reader:\n"
        "    def load(self, page_id):\n"
        "        return self.page_file.read_page_raw(page_id)\n"
    )
    assert codes(lint_text(source, "algorithms/foo.py")) == ["RL203"]


# -- RL204: invalidation coverage ----------------------------------------------


def test_rl204_satisfied_by_bump_in_callee():
    # The generation bump is discharged in ``_invalidate``: RL204 walks
    # the closure and is satisfied.
    source = (
        "class Planner:\n"
        "    def _invalidate(self):\n"
        "        self._bump_generation()\n\n"
        "    def register(self, view):\n"
        "        self._registered.append(view)\n"
        "        self._invalidate()\n"
    )
    assert lint_text(source, "planner.py") == []


# -- RL205: preemptibility -----------------------------------------------------

RL205_POSITIVE = """\
class Run:
    def _wait_for_slot(self):
        self.gate.acquire()

    def _get_next(self):
        self._wait_for_slot()
        return None
"""


def test_rl205_flags_unbounded_wait_under_get_next():
    found = lint_text(RL205_POSITIVE, "algorithms/foo.py")
    assert codes(found) == ["RL205"]
    assert found[0].symbol == "Run._get_next"
    assert "unbounded-wait" in found[0].message


def test_rl205_clean_when_wait_is_bounded():
    clean = RL205_POSITIVE.replace(
        "self.gate.acquire()", "self.gate.acquire(timeout=1.0)"
    )
    assert lint_text(clean, "algorithms/foo.py") == []


def test_rl205_flags_global_mutation_under_get_next():
    source = (
        "COUNT = 0\n\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT += 1\n\n"
        "def get_next(cursor):\n"
        "    bump()\n"
        "    return cursor\n"
    )
    found = lint_text(source, "service/foo.py")
    assert codes(found) == ["RL205"]
    assert "mutates-global" in found[0].message


def test_rl205_flags_collector_switch_under_get_next():
    """The interpreter's cyclic collector is process-global state too:
    pausing it is sanctioned around one bulk expansion (reached from the
    drive loop's flush), never from inside a ``get_next`` step, where a
    quantum could suspend with it off."""
    source = (
        "import gc\n\n"
        "class Run:\n"
        "    def _quiet(self):\n"
        "        gc.disable()\n\n"
        "    def _get_next(self):\n"
        "        self._quiet()\n"
        "        return None\n\n"
        "    def _drive(self):\n"
        "        self._quiet()\n"
        "        return self._get_next()\n"
    )
    found = lint_text(source, "algorithms/foo.py")
    assert codes(found) == ["RL205"]
    assert found[0].symbol == "Run._get_next"
    assert "mutates-global" in found[0].message
    assert "Run._quiet" in found[0].message
    # The same switch reached from the drive loop only is not a finding.
    clean = source.replace(
        "    def _get_next(self):\n        self._quiet()\n",
        "    def _get_next(self):\n",
    )
    assert lint_text(clean, "algorithms/foo.py") == []


# -- RL206: snapshot discipline ------------------------------------------------

RL206_POSITIVE = """\
def current_generation(path):
    return read_store_version(path)

def run_job(catalog, job):
    latest = current_generation(job.path)
    return (latest, catalog)
"""


def test_rl206_flags_latest_resolution_under_read_root():
    found = lint_text(RL206_POSITIVE, "service/jobs.py")
    assert codes(found) == ["RL206"]
    # anchored at the read root, naming the chain to the resolution
    assert found[0].symbol == "run_job"
    assert "current_generation" in found[0].message


def test_rl206_clean_when_generation_is_pinned():
    clean = RL206_POSITIVE.replace(
        "return read_store_version(path)", "return job.generation"
    )
    assert lint_text(clean, "service/jobs.py") == []


def test_rl206_allows_resolution_inside_pin_point():
    # _ensure_snapshot is a sanctioned pin point: it may resolve
    # "latest" (exactly once, before evaluation) without firing.
    source = (
        "class QueryService:\n"
        "    def _ensure_snapshot(self):\n"
        "        return read_store_version(self._dir)\n\n"
        "    def resume_quantum(self, token):\n"
        "        snap = self._ensure_snapshot()\n"
        "        return snap\n"
    )
    assert lint_text(source, "service/core.py") == []


def test_rl206_ignores_non_read_path_modules():
    assert lint_text(RL206_POSITIVE, "maintenance/foo.py") == []


# -- analysis cache ------------------------------------------------------------

CACHE_APP = (
    "from repro.util import helper\n\n"
    "def top(x):\n"
    "    return helper(x)\n"
)
CACHE_UTIL = "def helper(x):\n    return element_of(x)\n"
CACHE_OTHER = "def lonely():\n    return 42\n"


def _cache_modules(util_source=CACHE_UTIL):
    return {
        "app.py": ModuleInfo("app.py", CACHE_APP),
        "util.py": ModuleInfo("util.py", util_source),
        "other.py": ModuleInfo("other.py", CACHE_OTHER),
    }


def test_cache_cold_then_warm_counters(tmp_path):
    cache_file = tmp_path / "cache.json"
    cold = AnalysisCache()
    build_program(_cache_modules(), cold)
    assert cold.counters() == {
        "summary_hits": 0, "summary_misses": 3,
        "closure_hits": 0, "closure_misses": 3,
    }
    cold.save(cache_file)

    warm = AnalysisCache.load(cache_file)
    build_program(_cache_modules(), warm)
    assert warm.counters() == {
        "summary_hits": 3, "summary_misses": 0,
        "closure_hits": 3, "closure_misses": 0,
    }


def test_cache_edit_recomputes_only_module_and_dependents(tmp_path):
    cache_file = tmp_path / "cache.json"
    first = AnalysisCache()
    build_program(_cache_modules(), first)
    first.save(cache_file)

    edited = "def helper(x):\n    global STATE\n    STATE = x\n    return x\n"
    second = AnalysisCache.load(cache_file)
    program = build_program(_cache_modules(edited), second)
    # util.py re-summarizes; its closure and its caller's closure
    # recompute; the unrelated module stays fully cached.
    assert second.counters() == {
        "summary_hits": 2, "summary_misses": 1,
        "closure_hits": 1, "closure_misses": 2,
    }
    # and the recomputation is semantically correct, not just cached
    assert "mutates-global" in program.effects.transitive("app.py::top")
    assert "allocates-records" not in program.effects.transitive(
        "app.py::top"
    )


def test_cache_invalidated_on_analyzer_version_bump(tmp_path, monkeypatch):
    import repro.analysis.effects as fx

    cache_file = tmp_path / "cache.json"
    first = AnalysisCache()
    build_program(_cache_modules(), first)
    first.save(cache_file)

    monkeypatch.setattr(fx, "ANALYZER_VERSION", "test-bump")
    stale = AnalysisCache.load(cache_file)
    assert stale.modules == {}
    assert stale.closures == {}


def test_cache_survives_corrupt_file(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json", encoding="utf-8")
    cache = AnalysisCache.load(cache_file)
    assert cache.modules == {}
    # and linting with it still works end to end
    build_program(_cache_modules(), cache)


def test_lint_package_cache_path_roundtrip(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "a.py", "def f():\n    return 1\n")
    cache_file = tmp_path / "cache.json"
    baseline = tmp_path / "baseline.json"

    cold = lint_package(
        root=root, baseline_path=baseline, cache_path=cache_file
    )
    assert cold.stats.cache["summary_misses"] == 1
    assert cache_file.exists()

    warm = lint_package(
        root=root, baseline_path=baseline, cache_path=cache_file
    )
    assert warm.stats.cache["summary_hits"] == 1
    assert warm.stats.cache["summary_misses"] == 0


# -- runner hardening ----------------------------------------------------------


def test_syntax_error_file_produces_rl001_not_traceback(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "bad.py", "def broken(:\n")
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    assert codes(report.new_findings) == ["RL001"]
    assert "does not parse" in report.new_findings[0].message
    assert not report.ok


def test_empty_file_produces_rl001(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "empty.py", "")
    _write_module(root, "blank.py", "   \n\n")
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    assert [f.code for f in report.new_findings] == ["RL001", "RL001"]
    assert all("empty" in f.message for f in report.new_findings)


def test_broken_file_does_not_block_analysis_of_the_rest(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "bad.py", "def broken(:\n")
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    assert codes(report.new_findings) == ["RL001", "RL105"]


def test_diagnostics_are_never_baselined(tmp_path):
    root = tmp_path / "pkg"
    _write_module(root, "bad.py", "def broken(:\n")
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    baseline = tmp_path / "baseline.json"
    report = lint_package(root=root, baseline_path=baseline)
    write_baseline(baseline, report.new_findings)
    fingerprints = load_baseline(baseline)
    assert {code for code, _, _ in fingerprints} == {"RL105"}
    # a re-run still reports the parse error as new
    report = lint_package(root=root, baseline_path=baseline)
    assert codes(report.new_findings) == ["RL001"]


def test_unused_suppression_is_warning_not_failure(tmp_path):
    root = tmp_path / "pkg"
    _write_module(
        root, "a.py", "x = 1  # repro-lint: disable=RL105 (nothing here)\n"
    )
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    assert report.new_findings == []
    assert report.ok
    assert [f.code for f in report.warnings] == ["RL002"]
    assert "RL105" in report.warnings[0].message


@pytest.mark.parametrize("unused", [True, False])
def test_ci_gate_fails_on_unused_suppression(tmp_path, monkeypatch, unused):
    """``scripts/lint_stats.py`` — unlike ``viewjoin lint`` — exits
    non-zero on a warning, so a deleted code path cannot leave its
    ``disable`` comments behind."""
    spec = importlib.util.spec_from_file_location(
        "lint_stats",
        Path(__file__).resolve().parents[1] / "scripts" / "lint_stats.py",
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    root = tmp_path / "pkg"
    _write_module(
        root, "a.py",
        "x = 1  # repro-lint: disable=RL105 (nothing here)\n" if unused
        else "x = 1\n",
    )
    monkeypatch.setattr(
        gate, "lint_package",
        lambda cache_path: lint_package(
            root=root, baseline_path=tmp_path / "b.json"
        ),
    )
    monkeypatch.setattr(
        gate, "default_cache_path", lambda: tmp_path / "cache.json"
    )
    assert gate.main(["lint_stats"]) == (1 if unused else 0)


def test_used_suppression_is_not_warned(tmp_path):
    root = tmp_path / "pkg"
    _write_module(
        root, "a.py",
        "def f():\n"
        "    raise ValueError('x')"
        "  # repro-lint: disable=RL105 (fixture)\n",
    )
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    assert report.new_findings == []
    assert report.warnings == []
    assert report.suppressed_count == 1


def test_suppression_in_docstring_is_documentation_not_directive():
    source = (
        '"""Example: x()  # repro-lint: disable=RL105 (docs)"""\n\n'
        "def f():\n"
        "    raise ValueError('x')\n"
    )
    found = lint_text(source, "planner.py")
    assert codes(found) == ["RL105"]


# -- report_paths (--changed) --------------------------------------------------


def test_report_paths_filters_findings_but_keeps_full_graph(tmp_path):
    root = tmp_path / "pkg"
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    _write_module(
        root, "service/core.py", "def g():\n    raise ValueError('y')\n"
    )
    report = lint_package(
        root=root, baseline_path=tmp_path / "b.json",
        report_paths={"planner.py"},
    )
    assert {f.path for f in report.new_findings} == {"planner.py"}
    # the program model still covers the whole tree
    assert report.stats.graph_nodes == 2


# -- reporters -----------------------------------------------------------------


def test_sarif_output_shape(tmp_path):
    root = tmp_path / "pkg"
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    _write_module(
        root, "a.py", "x = 1  # repro-lint: disable=RL103 (stale)\n"
    )
    report = lint_package(root=root, baseline_path=tmp_path / "b.json")
    payload = json.loads(render_sarif(report))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    levels = {r["ruleId"]: r["level"] for r in run["results"]}
    assert levels["RL105"] == "error"
    assert levels["RL002"] == "warning"
    rl105 = next(r for r in run["results"] if r["ruleId"] == "RL105")
    assert rl105["fingerprints"]["reproLint/v1"].startswith("RL105|")
    assert "stats" in run["properties"]


def test_sarif_baselined_findings_are_notes_with_suppressions(tmp_path):
    root = tmp_path / "pkg"
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    baseline = tmp_path / "baseline.json"
    report = lint_package(root=root, baseline_path=baseline)
    write_baseline(baseline, report.new_findings)
    report = lint_package(root=root, baseline_path=baseline)
    payload = json.loads(render_sarif(report))
    results = payload["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["level"] == "note"
    assert results[0]["suppressions"][0]["kind"] == "external"


# -- CLI surface ---------------------------------------------------------------


def test_cli_sarif_to_stdout(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(
        root, "planner.py", "def f():\n    raise ValueError('x')\n"
    )
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "b.json"),
        "--sarif", "-",
    ])
    # stdout carries the SARIF document followed by the text report
    payload, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == "2.1.0"


def test_cli_sarif_to_file(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(root, "a.py", "def f():\n    return 1\n")
    out = tmp_path / "lint.sarif"
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "b.json"),
        "--sarif", str(out),
    ])
    capsys.readouterr()
    assert exit_code == 0
    assert json.loads(out.read_text())["version"] == "2.1.0"


def test_cli_graph_prints_stats(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(
        root, "a.py", "def f():\n    return g()\n\ndef g():\n    return 1\n"
    )
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "b.json"),
        "--graph",
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "nodes" in out and "edges" in out


def test_cli_effects_prints_witness_chain(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(root, "util.py", CACHE_UTIL)
    _write_module(root, "app.py", CACHE_APP)
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "b.json"),
        "--effects", "top",
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "allocates-records" in out
    assert "helper" in out


def test_cli_effects_unknown_qualname_fails(tmp_path, capsys):
    root = tmp_path / "pkg"
    _write_module(root, "a.py", "def f():\n    return 1\n")
    exit_code = main([
        "lint", "--root", str(root),
        "--baseline", str(tmp_path / "b.json"),
        "--effects", "no_such_function",
    ])
    capsys.readouterr()
    assert exit_code == 1
