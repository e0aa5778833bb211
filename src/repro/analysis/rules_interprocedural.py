"""The RL2xx interprocedural rule family.

These rules own the invariants an obligation can cross a function
boundary for: a hot loop is only as pure as everything it calls, a raw
read may be mirrored by a helper, a mutator may bump the generation
through one.  Each invariant has one rule (the per-file twins RL101,
RL102 and RL104 are retired into RL201, RL203 and RL204).  Each rule
queries the shared :class:`ProgramModel` (call graph + transitive
effect sets) built once per lint run.

Finding messages name call *chains*, never line numbers, so baseline
fingerprints stay stable while code moves around; every finding anchors
on the ``def`` line of the function that owns the obligation, which is
where a justified ``# repro-lint: disable=RL2xx`` suppression goes.
"""

from __future__ import annotations

from repro.analysis import effects as fx
from repro.analysis.core import Finding, ProgramRule
from repro.analysis.dataflow import first_reaching_path, pretty_chain


def _split(node_id: str) -> tuple[str, str]:
    path, _, qualname = node_id.partition("::")
    return path, qualname


class _GraphRule(ProgramRule):
    """Shared helper: findings anchored at a function's ``def`` line."""

    def node_finding(
        self, program, node_id: str, message: str
    ) -> Finding | None:
        """Finding anchored at ``node_id``'s ``def`` line (None when the
        node's module is unknown — defensive, should not happen)."""
        path, qualname = _split(node_id)
        summary = program.graph.summaries.get(path)
        if summary is None or qualname not in summary.functions:
            return None
        return Finding(
            code=self.code,
            path=path,
            line=summary.functions[qualname].lineno,
            col=0,
            message=message,
            symbol=qualname,
        )


# -- RL201: hot-path purity ----------------------------------------------------

#: Standing hot-path registrations: package-relative path -> qualnames of
#: the inner-loop kernels that must stay allocation- and fallback-free.
#: Additional functions can be registered in source with a
#: ``# repro-lint: hot`` comment on (or directly above) the ``def`` line.
HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "algorithms/base.py": frozenset({
        "CountingCursor.advance",
        "CountingCursor.advance_past",
        "CountingCursor.seek_pointer",
    }),
    "algorithms/access.py": frozenset({
        "TagSource.bisect_start",
        "TagSource.collect_from",
    }),
    "algorithms/dag.py": frozenset({
        "DagBuffer.add",
        "DagBuffer.enter_root",
        "DagBuffer.open_ancestor",
        "DagBuffer.innermost_container_at",
        "DagBuffer.max_buffered_end",
        "DagBuffer.flush",
    }),
    "algorithms/viewjoin.py": frozenset({
        "_ViewJoinRun._get_next",
        "_ViewJoinRun._add_nodes",
        "_ViewJoinRun._advance_segment_root",
        "_ViewJoinRun._advance_tag_past",
        "_ViewJoinRun._refresh_descendants",
        "_ViewJoinRun._extend",
        "_ViewJoinRun._fetch_in_regions",
    }),
    "algorithms/pathstack.py": frozenset({
        "_sweep",
    }),
    "algorithms/twigstack.py": frozenset({
        "_TwigStackRun._get_next",
        "_TwigStackRun._act_on",
        "_TwigStackRun._admissible",
    }),
    "tpq/enumeration.py": frozenset({
        "MatchPlan._survey",
    }),
}

#: Effects that break hot-loop purity, in the root's own body or in a
#: callee's.
_PURITY_BREAKERS = (
    fx.ALLOCATES, fx.REFERENCE_DECODE, fx.LOOP_EXCEPTION_SETUP,
)


class TransitiveHotPurityRule(_GraphRule):
    code = "RL201"
    name = "transitive-hot-purity"
    description = (
        "A registered hot function must not construct record objects,"
        " call record-at-a-time list readers (read/scan) or set up"
        " try/except inside a loop — in its own body, and, for an"
        " algorithms/ root, in any algorithms/-layer callee up to the"
        " emission sinks.  Storage-layer callees are exempt: the lists'"
        " own record readers answer to RL203's accounting mirror."
    )

    def hot_roots(self, program) -> list[str]:
        """Registered hot functions plus ``# repro-lint: hot`` markers,
        as graph node ids (only those present in the graph)."""
        roots: set[str] = set()
        for path, qualnames in HOT_FUNCTIONS.items():
            for qualname in qualnames:
                node = f"{path}::{qualname}"
                if node in program.graph.nodes:
                    roots.add(node)
        for path, module in program.modules.items():
            if not module.hot_marker_lines:
                continue
            summary = program.graph.summaries.get(path)
            if summary is None:
                continue
            for qualname, func in summary.functions.items():
                lines = {func.lineno, func.lineno - 1}
                if lines & module.hot_marker_lines:
                    roots.add(f"{path}::{qualname}")
        return sorted(roots)

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        graph = program.graph
        analysis = program.effects
        hot = set(self.hot_roots(program))
        # Record construction *at the emission boundary* is the contract
        # (engines build records only when a match leaves the kernel), so
        # the callee walk stops at registered emission/merge sinks.
        sinks = {f"{path}::{qual}" for path, qual in DETERMINISM_SINKS}

        def in_scope(node: str) -> bool:
            return (
                _split(node)[0].startswith("algorithms/")
                and node not in sinks
            )

        def nowhere(node: str) -> bool:
            return False

        for root in sorted(hot):
            walk = in_scope if in_scope(root) else nowhere
            for effect in _PURITY_BREAKERS:
                chain = first_reaching_path(
                    graph, root,
                    # the root's own body, or a callee with the effect in
                    # its own body; a hot callee answers as its own root
                    lambda n: (
                        (n == root or n not in hot)
                        and effect in analysis.direct(n)
                    ),
                    allowed=walk,
                )
                if chain is None:
                    continue
                _, root_qual = _split(root)
                where = (
                    "in its own body" if len(chain) == 1
                    else f"through {pretty_chain(chain)}"
                )
                finding = self.node_finding(
                    program, root,
                    f"hot path {root_qual} reaches {effect!r} {where} —"
                    " keep a hot loop and its algorithms/-layer callees"
                    " on raw column ints",
                )
                if finding is not None:
                    findings.append(finding)
        return findings


# -- RL202: determinism taint --------------------------------------------------

#: Where results become externally observable: match emission and
#: counter merging.  Anything nondeterministic reaching one of these
#: changes answers across runs/workers.
DETERMINISM_SINKS: tuple[tuple[str, str], ...] = (
    ("algorithms/base.py", "Counters.merge"),
    ("storage/pager.py", "IOStats.merge"),
    ("algorithms/dag.py", "DagBuffer.flush"),
    ("service/jobs.py", "merge_results"),
)


class DeterminismTaintRule(_GraphRule):
    code = "RL202"
    name = "determinism-taint"
    description = (
        "No nondeterminism source (unordered-set iteration, wall clock,"
        " random, os.environ, id()) may be reachable from match emission"
        " or counter merging — parallel and repeated runs must produce"
        " byte-identical results."
    )

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        graph = program.graph
        analysis = program.effects
        for path, qualname in DETERMINISM_SINKS:
            root = f"{path}::{qualname}"
            if root not in graph.nodes:
                continue
            tainted = sorted(
                analysis.transitive(root) & fx.NONDET_EFFECTS
            )
            for effect in tainted:
                chain = first_reaching_path(
                    graph, root,
                    lambda n: effect in analysis.direct(n),
                    allowed=lambda n: effect in analysis.transitive(n),
                )
                if chain is None:
                    continue
                # Anchor at the *source*: the function being
                # nondeterministic owns the obligation, and a per-line
                # suppression there sanctions that one source without
                # blinding the sink to future taint.
                source = chain[-1]
                _, source_qual = _split(source)
                finding = self.node_finding(
                    program, source,
                    f"nondeterminism source {effect!r} in {source_qual}"
                    f" reaches determinism sink {qualname} through"
                    f" {pretty_chain(chain)} — sort/seed at the source"
                    " or keep it off the emission path",
                )
                if finding is not None:
                    findings.append(finding)
        return findings


# -- RL203: accounting-mirror completeness -------------------------------------

#: Classes that *are* the accounting layer: their methods increment the
#: pool's counters directly, so requiring them to call ``touch`` would
#: demand the mirror mirror itself.
ACCOUNTING_AUTHORITIES: frozenset[tuple[str, str]] = frozenset({
    ("storage/pager.py", "BufferPool"),
})


class AccountingMirrorClosureRule(_GraphRule):
    code = "RL203"
    name = "accounting-mirror-closure"
    description = (
        "Every function that reads raw page bytes (read_page_raw) or, in"
        " storage/, packed-column records (<columns>.entry) must mirror"
        " the read into the buffer pool — in its own body or through a"
        " callee (BufferPool.touch/touch_run/touch_index) — or columnar"
        " I/O counters drift from pool-served reads."
    )

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        analysis = program.effects
        for node in sorted(program.graph.nodes):
            if fx.RAW_PAGE_READ not in analysis.direct(node):
                continue
            if fx.MIRRORS_ACCOUNTING in analysis.transitive(node):
                continue
            path, qualname = _split(node)
            cls = qualname.rsplit(".", 1)[0] if "." in qualname else ""
            if (path, cls) in ACCOUNTING_AUTHORITIES:
                continue
            finding = self.node_finding(
                program, node,
                f"{qualname} reads raw pages or columns without reaching"
                " a buffer-pool mirror (pool.touch/touch_run/touch_index)"
                " anywhere in its call closure — the read is invisible to I/O"
                " accounting",
            )
            if finding is not None:
                findings.append(finding)
        return findings


# -- RL204: invalidation coverage ----------------------------------------------

#: Modules bound by the invalidation contract: mutating registered-view
#: state here must reach a generation/epoch bump before returning.
_INVALIDATION_PREFIXES = (
    "planner.py", "storage/catalog.py", "maintenance/", "service/",
)


class InvalidationCoverageRule(_GraphRule):
    code = "RL204"
    name = "invalidation-coverage"
    description = (
        "Every planner/catalog/maintenance/service function that mutates"
        " registered-view state must reach a generation/epoch bump"
        " (_bump_generation, install_maintained, version/epoch store) in"
        " its call closure, or stale plans and caches outlive the views"
        " they reference."
    )

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        analysis = program.effects
        for node in sorted(program.graph.nodes):
            path, qualname = _split(node)
            if not path.startswith(_INVALIDATION_PREFIXES):
                continue
            if qualname.endswith("__init__"):
                continue  # first assignment, not a mutation
            if fx.MUTATES_VIEW_STATE not in analysis.direct(node):
                continue
            if fx.BUMPS_GENERATION in analysis.transitive(node):
                continue
            finding = self.node_finding(
                program, node,
                f"{qualname} mutates registered-view state without"
                " reaching a generation/epoch bump in its call closure"
                " (_bump_generation / install_maintained /"
                " version store) — dependent caches keep serving the"
                " pre-mutation state",
            )
            if finding is not None:
                findings.append(finding)
        return findings


# -- RL205: preemptibility -----------------------------------------------------

#: Effects that make an iterator un-suspendable: a quantum can neither
#: expire during an unbounded block nor snapshot process-global state.
_PREEMPTION_BREAKERS = (fx.UNBOUNDED_WAIT, fx.MUTATES_GLOBAL)


class PreemptibilityRule(_GraphRule):
    code = "RL205"
    name = "preemptibility"
    description = (
        "No unbounded wait or process-global mutation may be reachable"
        " from a get_next loop: suspend/resume tokens (ROADMAP item 1)"
        " require every quantum to be bounded and every piece of"
        " iterator state to live on the run object."
    )

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        graph = program.graph
        analysis = program.effects
        roots = sorted(
            node for node in graph.nodes
            if _split(node)[1].rsplit(".", 1)[-1] in
            ("_get_next", "get_next")
        )
        for root in roots:
            for effect in _PREEMPTION_BREAKERS:
                if effect not in analysis.transitive(root):
                    continue
                chain = first_reaching_path(
                    graph, root,
                    lambda n: effect in analysis.direct(n),
                    allowed=lambda n: effect in analysis.transitive(n),
                )
                if chain is None:
                    continue
                _, root_qual = _split(root)
                finding = self.node_finding(
                    program, root,
                    f"get_next loop {root_qual} reaches {effect!r}"
                    f" through {pretty_chain(chain)} — a preemptible"
                    " iterator must bound every block and keep all"
                    " state on the run object",
                )
                if finding is not None:
                    findings.append(finding)
        return findings


# -- RL206: snapshot discipline ------------------------------------------------

#: Read-path entry points: everything a query's answer flows through.
#: Once one of these starts, the generation it answers from is fixed.
SNAPSHOT_READ_ROOTS: tuple[tuple[str, str], ...] = (
    ("service/jobs.py", "run_job"),
    ("service/core.py", "QueryService.resume_quantum"),
    ("algorithms/engine.py", "evaluate"),
    ("algorithms/engine.py", "evaluate_quantum"),
)

#: Sanctioned *pin points*: the only functions through which read-path
#: code may consult the store's mutable current manifest — they resolve
#: "latest" exactly once and hand back a pinned generation handle.
SNAPSHOT_PIN_POINTS: frozenset[tuple[str, str]] = frozenset({
    ("storage/persistence.py", "load_catalog"),
    ("service/worker.py", "run_worker_jobs"),
    ("service/core.py", "QueryService._ensure_snapshot"),
})


class SnapshotDisciplineRule(_GraphRule):
    code = "RL206"
    name = "snapshot-discipline"
    description = (
        "Read-path code (job execution, engine dispatch, quantum resume)"
        " must reach the store only through a pinned generation handle:"
        " re-reading the mutable current manifest"
        " (read_manifest/read_store_version) mid-read races a concurrent"
        " commit and can answer from a mix of generations.  Manifest"
        " resolution is sanctioned only inside the registered pin points"
        " (load_catalog / run_worker_jobs / _ensure_snapshot), which"
        " resolve 'latest' exactly once, before evaluation starts."
    )

    def check_program(self, program) -> list[Finding]:
        findings: list[Finding] = []
        graph = program.graph
        analysis = program.effects
        pins = {f"{path}::{qual}" for path, qual in SNAPSHOT_PIN_POINTS}

        def outside_pins(node: str) -> bool:
            return node not in pins

        for path, qualname in SNAPSHOT_READ_ROOTS:
            root = f"{path}::{qualname}"
            if root not in graph.nodes:
                continue
            chain = first_reaching_path(
                graph, root,
                lambda n: fx.RESOLVES_LATEST in analysis.direct(n),
                allowed=outside_pins,
            )
            if chain is None:
                continue
            finding = self.node_finding(
                program, root,
                f"read path {qualname} resolves the mutable current store"
                f" manifest through {pretty_chain(chain)} — pin a"
                " generation up front (load_catalog(generation=...) /"
                " the stripe pin in run_worker_jobs) and evaluate as_of"
                " it instead",
            )
            if finding is not None:
                findings.append(finding)
        return findings


#: The interprocedural registry, in code order (mirrors ``RULES``).
PROGRAM_RULES: tuple[ProgramRule, ...] = (
    TransitiveHotPurityRule(),
    DeterminismTaintRule(),
    AccountingMirrorClosureRule(),
    InvalidationCoverageRule(),
    PreemptibilityRule(),
    SnapshotDisciplineRule(),
)
