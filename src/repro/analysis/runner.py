"""Drive the rule registry over source files and fold in the baseline.

The default target is the installed ``repro`` package itself (the
directory containing this file's grandparent); the default baseline is
``.repro-lint-baseline.json`` at the repository root.  Both can be
overridden, which is how fixture tests lint synthetic trees.

A run has two tiers, and each invariant belongs to exactly one: the
RL1xx module rules check each file in isolation, then the RL2xx program
rules run once over a :class:`ProgramModel` — the project call graph
plus transitive effect sets — built from every parsed file.  Files that fail to parse (or are
empty) contribute a structured RL001 finding instead of aborting the
run, and are left out of the program model.  Suppression comments that
silenced nothing surface as RL002 *warnings* — reported, never failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import load_baseline, split_by_baseline
from repro.analysis.callgraph import (
    CallGraph,
    ModuleSummary,
    build_graph,
    summarize_module,
)
from repro.analysis.core import (
    PARSE_ERROR_CODE,
    UNUSED_SUPPRESSION_CODE,
    Finding,
    ModuleInfo,
)
from repro.analysis.effects import AnalysisCache, EffectAnalysis, source_sha
from repro.analysis.rules import RULES
from repro.analysis.rules_interprocedural import PROGRAM_RULES
from repro.errors import LintError

#: The ``src/repro`` package directory this module lives under.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def default_baseline_path() -> Path:
    """``.repro-lint-baseline.json`` at the repository root.

    The repo root is two levels above the package (``src/repro`` ->
    repo); when the package is installed elsewhere, fall back to the
    current directory so ``--baseline`` stays optional.
    """
    candidate = PACKAGE_ROOT.parents[1] / ".repro-lint-baseline.json"
    if candidate.parent.is_dir():
        return candidate
    return Path(".repro-lint-baseline.json")


def default_cache_path() -> Path:
    """``.repro-lint-cache.json`` next to the default baseline."""
    return default_baseline_path().with_name(".repro-lint-cache.json")


@dataclass
class LintStats:
    """One run's shape and cost — printed by the CI lint step."""

    files: int = 0
    module_rules: int = 0
    program_rules: int = 0
    graph_nodes: int = 0
    graph_edges: int = 0
    cache: dict[str, int] = field(default_factory=dict)
    duration_seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "files": self.files,
            "module_rules": self.module_rules,
            "program_rules": self.program_rules,
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "cache": dict(self.cache),
            "duration_seconds": round(self.duration_seconds, 3),
        }


@dataclass
class ProgramModel:
    """Everything the RL2xx rules see: parsed modules, the linked call
    graph, and per-function transitive effect sets."""

    modules: dict[str, ModuleInfo]
    graph: CallGraph
    effects: EffectAnalysis


def build_program(
    modules: dict[str, ModuleInfo],
    cache: AnalysisCache | None = None,
) -> ProgramModel:
    """Summarize (cache-aware), link, and close effects over ``modules``."""
    summaries: dict[str, ModuleSummary] = {}
    for path, module in sorted(modules.items()):
        sha = source_sha(module.source)
        cached = (
            cache.get_summary_json(path, sha) if cache is not None else None
        )
        if cached is not None:
            summaries[path] = ModuleSummary.from_json(cached)
        else:
            summary = summarize_module(module, sha)
            summaries[path] = summary
            if cache is not None:
                cache.put_summary_json(path, sha, summary.to_json())
    graph = build_graph(summaries)
    effects = EffectAnalysis(graph, cache)
    return ProgramModel(modules=modules, graph=graph, effects=effects)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    new_findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: set[tuple[str, str, str]] = field(default_factory=set)
    warnings: list[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    files_checked: int = 0
    stats: LintStats = field(default_factory=LintStats)
    program: ProgramModel | None = None

    @property
    def ok(self) -> bool:
        return not self.new_findings

    def all_findings(self) -> list[Finding]:
        return sorted(
            self.new_findings + self.baselined,
            key=lambda f: (f.path, f.line, f.col, f.code),
        )


def parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    """RL001 for an unparsable file.  The message stays free of line and
    offset text so the fingerprint survives edits above the error."""
    return Finding(
        code=PARSE_ERROR_CODE,
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def empty_file_finding(path: str) -> Finding:
    return Finding(
        code=PARSE_ERROR_CODE,
        path=path,
        line=1,
        col=0,
        message="file is empty: nothing to analyze"
                " (delete it or add a module docstring)",
    )


def check_module(module: ModuleInfo) -> tuple[list[Finding], int]:
    """Run every module rule over one module; returns (findings,
    suppressed)."""
    kept: list[Finding] = []
    suppressed = 0
    for rule in RULES:
        for finding in rule.check(module):
            if module.is_suppressed(finding):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def check_program(program: ProgramModel) -> tuple[list[Finding], int]:
    """Run every program rule once; suppression applies at the anchored
    line of whatever module each finding lives in."""
    kept: list[Finding] = []
    suppressed = 0
    for rule in PROGRAM_RULES:
        for finding in rule.check_program(program):
            module = program.modules.get(finding.path)
            if module is not None and module.is_suppressed(finding):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed


def unused_suppression_warnings(
    modules: dict[str, ModuleInfo]
) -> list[Finding]:
    """RL002 for every suppression comment that silenced nothing.

    Must run after every rule tier — module and program — has had its
    chance to hit the line.  Warnings never fail the build and are never
    baselined; they exist so stale suppressions cannot silently mask a
    future regression on the same line.
    """
    warnings: list[Finding] = []
    for path in sorted(modules):
        module = modules[path]
        for line in module.unused_suppression_lines():
            codes = module.suppressions[line]
            spec = "all" if codes is None else ",".join(sorted(codes))
            warnings.append(Finding(
                code=UNUSED_SUPPRESSION_CODE,
                path=path,
                line=line,
                col=0,
                message=f"suppression 'disable={spec}' matches no finding"
                        " — remove the stale comment",
            ))
    return warnings


def lint_text(source: str, path: str = "snippet.py") -> list[Finding]:
    """Lint one source string under a pretend package-relative path.

    The path picks which scoped rules apply (``service/x.py`` enables
    RL106, etc.).  Program rules run over a single-module graph, so
    self-contained interprocedural fixtures work too.  Suppressions
    apply; the baseline does not.  Used by fixture tests and editor
    integrations.
    """
    try:
        module = ModuleInfo(path, source)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}")
    findings, _ = check_module(module)
    program = build_program({path: module})
    program_findings, _ = check_program(program)
    findings.extend(program_findings)
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def changed_paths(root: Path | None = None) -> set[str]:
    """Package-relative paths changed vs git HEAD (diffs + untracked).

    Powers ``viewjoin lint --changed``: the whole package is still
    analyzed (program rules need the full graph), but only findings in
    these files get reported.  Outside a git checkout this returns the
    empty set — nothing changed means nothing reported.
    """
    import subprocess

    root = (root or PACKAGE_ROOT).resolve()
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=top, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return set()
    changed: set[str] = set()
    for line in (diff + untracked).splitlines():
        if not line.endswith(".py"):
            continue
        try:
            rel = (Path(top) / line).resolve().relative_to(root)
        except ValueError:
            continue
        changed.add(rel.as_posix())
    return changed


def _iter_source_files(root: Path) -> list[Path]:
    return sorted(
        p for p in root.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def lint_package(
    root: Path | None = None,
    paths: list[Path] | None = None,
    baseline_path: Path | None = None,
    cache_path: Path | None = None,
    report_paths: set[str] | None = None,
) -> LintReport:
    """Lint a package tree (default: the ``repro`` package itself).

    Args:
        root: directory treated as the package root — rule scoping uses
            paths relative to it.
        paths: optional subset of files/directories to check.  The
            program model (call graph, effects) is built over this
            subset only, so prefer ``report_paths`` for diff-focused
            runs on a whole package.
        baseline_path: baseline file; defaults to the repo-root
            ``.repro-lint-baseline.json``.
        cache_path: when given, the analysis cache is loaded from and
            saved to this file, making effect recomputation incremental
            across runs.  None (the default) runs uncached.
        report_paths: when given, the whole tree is still analyzed (the
            program model needs every file) but only findings anchored
            in these package-relative paths are reported — the
            ``--changed`` mode.
    """
    begin = time.perf_counter()
    root = (root or PACKAGE_ROOT).resolve()
    if baseline_path is None:
        baseline_path = default_baseline_path()
    fingerprints = load_baseline(baseline_path)
    cache = AnalysisCache.load(cache_path) if cache_path is not None else None

    if paths:
        files: list[Path] = []
        for path in paths:
            path = path.resolve()
            if path.is_dir():
                files.extend(_iter_source_files(path))
            else:
                files.append(path)
    else:
        files = _iter_source_files(root)

    report = LintReport()
    all_findings: list[Finding] = []
    modules: dict[str, ModuleInfo] = {}
    for file_path in files:
        try:
            rel = file_path.resolve().relative_to(root).as_posix()
        except ValueError:
            raise LintError(
                f"lint target {file_path} is outside the package root {root}"
            )
        source = file_path.read_text(encoding="utf-8")
        report.files_checked += 1
        if not source.strip():
            all_findings.append(empty_file_finding(rel))
            continue
        try:
            modules[rel] = ModuleInfo(rel, source)
        except SyntaxError as exc:
            all_findings.append(parse_error_finding(rel, exc))

    for rel in sorted(modules):
        findings, suppressed = check_module(modules[rel])
        all_findings.extend(findings)
        report.suppressed_count += suppressed

    program = build_program(modules, cache)
    program_findings, program_suppressed = check_program(program)
    all_findings.extend(program_findings)
    report.suppressed_count += program_suppressed
    report.program = program
    report.warnings = unused_suppression_warnings(modules)

    if report_paths is not None:
        all_findings = [
            f for f in all_findings if f.path in report_paths
        ]
        report.warnings = [
            f for f in report.warnings if f.path in report_paths
        ]

    if cache is not None and cache_path is not None:
        cache.save(cache_path)

    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    new, baselined, stale = split_by_baseline(all_findings, fingerprints)
    report.new_findings = new
    report.baselined = baselined
    report.stale_baseline = stale
    report.stats = LintStats(
        files=report.files_checked,
        module_rules=len(RULES),
        program_rules=len(PROGRAM_RULES),
        graph_nodes=len(program.graph.nodes),
        graph_edges=program.graph.edge_count(),
        cache=cache.counters() if cache is not None else {},
        duration_seconds=time.perf_counter() - begin,
    )
    return report
