"""Effect inference: per-function direct effects and transitive closures.

An *effect* is a one-word answer to "what does calling this function
drag in?" — the properties the RL2xx interprocedural rules reason about:

====================  ========================================================
``allocates-records``   builds ``ElementEntry``/``LinkedEntry`` record objects
                        (``element_of``, ``columns.entry``, a property-style
                        ``cursor.current`` read)
``reference-decode``    calls a record-at-a-time list reader
                        (``StoredList.read``/``scan``) from ``algorithms/``
``loop-exception-setup``
                        sets up ``try`` inside a ``for``/``while`` loop
                        (per-iteration exception-table cost)
``raw-page-read``       reads page bytes around the counted pool path
                        (``read_page_raw``) or, in ``storage/``, packed-column
                        records (``<columns>.entry``)
``performs-pager-io``   touches pager pages at all (counted or raw)
``mirrors-accounting``  mirrors a read into the buffer pool
                        (``touch``/``touch_run``/``touch_index``)
``mutates-view-state``  assigns/mutates registered-view state
                        (``_views``/``_registered``/catalog ``document``)
``bumps-generation``    invalidates dependents (``_bump_generation``,
                        ``install_maintained``, ``version``/``epoch`` store)
``nondet-set-iter``     iterates an unordered set into ordered state
``nondet-source``       reads wall clock, ``random``, or ``id()``
``reads-environment``   consults ``os.environ``/``os.getenv``
``unbounded-wait``      blocks without a timeout (``.result()``,
                        ``.join()``, ``.acquire()``, ``.wait()`` bare)
``mutates-global``      rebinds a module global (``global X; X = ...``) or
                        switches the process-wide cyclic collector
                        (``gc``'s ``disable``/``enable``/``freeze``/
                        ``set_threshold``)
``resolves-latest-manifest``
                        reads the store's mutable *current* manifest
                        (``read_manifest``/``read_store_version``) —
                        snapshot-pinned read paths must not (RL206)
====================  ========================================================

Direct effects are extracted syntactically per function body (nested
``def``\\ s excluded — they are their own graph nodes).  Transitive
effects are the union over the call graph, computed by Tarjan SCC
condensation in reverse topological order, so recursion converges and
each strongly-connected component is summarized exactly once.

Caching: :class:`AnalysisCache` persists (1) module summaries keyed by
source hash — editing one file re-summarizes only that file — and
(2) per-SCC closures keyed by a *recursive digest* of member direct
effects plus successor digests — editing one file recomputes closures
only for its SCCs and their transitive callers.  Bumping
:data:`ANALYZER_VERSION` invalidates everything.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.analysis.core import (
    attr_chain,
    call_target_name,
    local_attr_aliases,
)

#: Bump when effect extraction or closure semantics change; invalidates
#: every cached summary and closure.
ANALYZER_VERSION = "rl2xx-4"

ALLOCATES = "allocates-records"
REFERENCE_DECODE = "reference-decode"
LOOP_EXCEPTION_SETUP = "loop-exception-setup"
RAW_PAGE_READ = "raw-page-read"
PAGER_IO = "performs-pager-io"
MIRRORS_ACCOUNTING = "mirrors-accounting"
MUTATES_VIEW_STATE = "mutates-view-state"
BUMPS_GENERATION = "bumps-generation"
NONDET_SET_ITER = "nondet-set-iter"
NONDET_SOURCE = "nondet-source"
READS_ENVIRONMENT = "reads-environment"
UNBOUNDED_WAIT = "unbounded-wait"
MUTATES_GLOBAL = "mutates-global"
RESOLVES_LATEST = "resolves-latest-manifest"

ALL_EFFECTS = (
    ALLOCATES, REFERENCE_DECODE, LOOP_EXCEPTION_SETUP, RAW_PAGE_READ,
    PAGER_IO, MIRRORS_ACCOUNTING, MUTATES_VIEW_STATE, BUMPS_GENERATION,
    NONDET_SET_ITER, NONDET_SOURCE, READS_ENVIRONMENT, UNBOUNDED_WAIT,
    MUTATES_GLOBAL, RESOLVES_LATEST,
)

#: Effects that make a function a nondeterminism source for RL202.
NONDET_EFFECTS = frozenset({
    NONDET_SET_ITER, NONDET_SOURCE, READS_ENVIRONMENT,
})

#: Record-object constructors: calling one allocates a record per entry,
#: which is exactly what the columnar int kernels exist to avoid.
RECORD_CONSTRUCTORS = frozenset({
    "ElementEntry", "LinkedEntry", "element_of",
})

#: Attribute factories that build record objects: called
#: (``columns.entry(i)``), aliased (``entry = columns.entry``) or read as
#: a property (``cursor.current``) — any load of one allocates.
RECORD_FACTORY_ATTRS = frozenset({"entry", "current"})

#: Record-at-a-time list readers (``StoredList.read`` / ``scan``).  Hot
#: loops run on the packed columns; a call to one of these builds a record
#: per entry.
REFERENCE_HELPERS = frozenset({"read", "scan"})

#: Calls that read page bytes without going through the pool's counted
#: ``get`` path.
_RAW_ACCESS_ATTRS = frozenset({"read_page_raw"})

#: A list's packed columns: a ``storage/`` function that reaches them and
#: calls a record factory reads column records around the pool.
_COLUMN_ATTRS = frozenset({"columns", "_columns"})

#: Pager entry points (counted and raw).
_PAGER_CALL_ATTRS = frozenset({"read_page", "read_page_raw", "write_page"})

#: Calls that bump a generation/epoch, invalidating dependent caches.
_GENERATION_CALLS = frozenset({"_bump_generation", "install_maintained"})

#: Calls that read the mutable *current* store manifest: whoever makes
#: one answers for whatever generation happens to be latest (RL206).
_LATEST_MANIFEST_CALLS = frozenset({"read_manifest", "read_store_version"})

#: Attribute stores that count as a generation bump.
_GENERATION_STORE_ATTRS = frozenset({"version", "epoch", "generation"})

#: Registered-view state attributes (RL204's obligation).
_VIEW_STATE_ATTRS = frozenset({"_views", "_registered", "document"})

#: Blocking calls that are unbounded when no timeout is passed.
_WAIT_CALL_ATTRS = frozenset({"wait", "join", "acquire", "result"})

#: Switches on the interpreter's cyclic collector: process-global state
#: that no run object can carry across a suspension.
_COLLECTOR_SWITCHES = frozenset({
    "gc.disable", "gc.enable", "gc.freeze", "gc.set_threshold",
})

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard",
})

#: The only ``time`` attribute deterministic code may touch: duration
#: measurement.  ``time.time``/``monotonic``/``sleep`` feed wall-clock
#: values into logic, which the determinism contract forbids.
TIME_ALLOWED = frozenset({"perf_counter"})

#: Calls known to return unordered sets.
_SET_RETURNING = frozenset({"set", "frozenset", "tag_set"})

#: Iteration wrappers that preserve (and therefore leak) iteration order.
_ORDER_PRESERVING_CALLS = frozenset({"list", "tuple", "enumerate", "join"})


class _SetTypeInference(ast.NodeVisitor):
    """Flow-insensitive, per-function inference of set-typed locals."""

    def __init__(self) -> None:
        self.set_vars: set[str] = set()

    def _is_set_annotation(self, annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        text = attr_chain(base)
        return text in ("set", "frozenset", "Set", "FrozenSet",
                        "typing.Set", "typing.FrozenSet")

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            target = call_target_name(node)
            return target in _SET_RETURNING
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_vars.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and (
            self._is_set_annotation(node.annotation)
            or (node.value is not None and self.is_set_expr(node.value))
        ):
            self.set_vars.add(node.target.id)
        self.generic_visit(node)


def unordered_iterations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    nodes: Iterable[ast.AST],
) -> Iterator[ast.AST]:
    """The nodes among ``nodes`` that iterate one of ``func``'s unordered
    sets into ordered downstream state: a ``for`` loop, a list/dict/
    generator comprehension, or an order-preserving call.  Set
    comprehensions are exempt: set-to-set algebra stays order-free end
    to end."""
    inference = _SetTypeInference()
    inference.visit(func)
    for node in nodes:
        sites: list[ast.AST] = []
        if isinstance(node, ast.For):
            sites.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            sites.extend(g.iter for g in node.generators)
        elif isinstance(node, ast.Call):
            name = call_target_name(node)
            if name in _ORDER_PRESERVING_CALLS and node.args:
                sites.append(node.args[0])
        if any(inference.is_set_expr(site) for site in sites):
            yield node


def _own_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """The function's own statements/expressions, nested scopes excluded."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_attr_store(node: ast.AST, attrs: frozenset[str]) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in attrs:
        return True
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in attrs
    )


def direct_effects_of(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    path: str,
    qualname: str,
) -> tuple[str, ...]:
    """Syntactic effects of one function body (sorted, deduplicated)."""
    effects: set[str] = set()
    aliases = local_attr_aliases(func)
    in_algorithms = path.startswith("algorithms/")
    references_columns = False
    calls_record_factory = False

    for node in _own_nodes(func):
        if isinstance(node, ast.Global):
            effects.add(MUTATES_GLOBAL)
        elif isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None:
                if chain.startswith("os.environ") or chain == "os.getenv":
                    effects.add(READS_ENVIRONMENT)
                elif chain.startswith("random."):
                    effects.add(NONDET_SOURCE)
                elif chain in _COLLECTOR_SWITCHES:
                    effects.add(MUTATES_GLOBAL)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr not in TIME_ALLOWED
            ):
                effects.add(NONDET_SOURCE)
            if node.attr in RECORD_FACTORY_ATTRS and \
                    isinstance(node.ctx, ast.Load):
                effects.add(ALLOCATES)
            elif node.attr in _COLUMN_ATTRS:
                references_columns = True
        elif isinstance(node, (ast.For, ast.While)):
            if LOOP_EXCEPTION_SETUP not in effects and any(
                isinstance(inner, ast.Try) for inner in ast.walk(node)
            ):
                effects.add(LOOP_EXCEPTION_SETUP)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if _is_attr_store(target, _VIEW_STATE_ATTRS):
                    effects.add(MUTATES_VIEW_STATE)
                if isinstance(target, ast.Attribute) and \
                        target.attr in _GENERATION_STORE_ATTRS:
                    effects.add(BUMPS_GENERATION)
        if not isinstance(node, ast.Call):
            continue

        target_name = call_target_name(node)
        if target_name is None:
            continue
        resolved = target_name
        is_attr_call = isinstance(node.func, ast.Attribute)
        if isinstance(node.func, ast.Name):
            resolved = aliases.get(target_name, target_name)
            is_attr_call = resolved != target_name

        if resolved in RECORD_CONSTRUCTORS:
            effects.add(ALLOCATES)
        elif resolved in RECORD_FACTORY_ATTRS:
            calls_record_factory = True
        if in_algorithms and is_attr_call and resolved in REFERENCE_HELPERS:
            effects.add(REFERENCE_DECODE)
        if resolved in _RAW_ACCESS_ATTRS:
            effects.add(RAW_PAGE_READ)
        if resolved in _PAGER_CALL_ATTRS:
            effects.add(PAGER_IO)
        if "touch" in resolved:
            effects.add(MIRRORS_ACCOUNTING)
        if resolved in _GENERATION_CALLS:
            effects.add(BUMPS_GENERATION)
        if resolved in _LATEST_MANIFEST_CALLS:
            effects.add(RESOLVES_LATEST)
        if resolved == "id" and isinstance(node.func, ast.Name) and \
                target_name == "id":
            effects.add(NONDET_SOURCE)
        if (
            is_attr_call
            and resolved in _WAIT_CALL_ATTRS
            and not node.args
            and not any(kw.arg == "timeout" for kw in node.keywords)
        ):
            effects.add(UNBOUNDED_WAIT)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and _is_attr_store(node.func.value, _VIEW_STATE_ATTRS)
        ):
            effects.add(MUTATES_VIEW_STATE)

    if calls_record_factory and references_columns and \
            path.startswith("storage/"):
        effects.add(RAW_PAGE_READ)
    if any(unordered_iterations(func, _own_nodes(func))):
        effects.add(NONDET_SET_ITER)
    return tuple(sorted(effects))


# -- transitive closure --------------------------------------------------------


def _tarjan_sccs(
    nodes: list[str], edges: dict[str, tuple[str, ...]]
) -> list[tuple[str, ...]]:
    """Strongly connected components, emitted successors-first (reverse
    topological order of the condensation).  Iterative — lint targets
    include deep call chains."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges.get(node, ())
            for i in range(edge_i, len(successors)):
                succ = successors[i]
                if succ not in index:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


class AnalysisCache:
    """Two-level persistent cache for incremental reruns.

    Level 1: per-module summaries keyed by source hash (skips the AST
    scan for unchanged files).  Level 2: per-SCC transitive closures
    keyed by a recursive digest (skips closure recomputation for every
    component whose reachable subgraph is unchanged).  Hit/miss counters
    are runtime-only and feed the lint stats line.
    """

    def __init__(self) -> None:
        self.modules: dict[str, dict] = {}
        self.closures: dict[str, dict[str, list[str]]] = {}
        self.summary_hits = 0
        self.summary_misses = 0
        self.closure_hits = 0
        self.closure_misses = 0
        self.loaded_version = ANALYZER_VERSION

    # -- persistence -----------------------------------------------------------

    @classmethod
    def load(cls, path: Path) -> "AnalysisCache":
        cache = cls()
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(raw, dict):
            return cache
        cache.loaded_version = str(raw.get("version", ""))
        if cache.loaded_version != ANALYZER_VERSION:
            # analyzer changed: everything previously cached is invalid
            cache.loaded_version = ANALYZER_VERSION
            return cache
        modules = raw.get("modules", {})
        closures = raw.get("closures", {})
        if isinstance(modules, dict):
            cache.modules = modules
        if isinstance(closures, dict):
            cache.closures = closures
        return cache

    def save(self, path: Path) -> None:
        payload = {
            "version": ANALYZER_VERSION,
            "modules": self.modules,
            "closures": self.closures,
        }
        try:
            path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # a read-only checkout just runs uncached

    # -- level 1: module summaries --------------------------------------------

    def get_summary_json(self, path: str, sha: str) -> dict | None:
        row = self.modules.get(path)
        if row is not None and row.get("sha") == sha:
            self.summary_hits += 1
            return row.get("summary")
        self.summary_misses += 1
        return None

    def put_summary_json(self, path: str, sha: str, summary: dict) -> None:
        self.modules[path] = {"sha": sha, "summary": summary}

    # -- level 2: SCC closures -------------------------------------------------

    def get_closure(self, digest: str) -> dict[str, list[str]] | None:
        row = self.closures.get(digest)
        if row is not None:
            self.closure_hits += 1
            return row
        self.closure_misses += 1
        return None

    def put_closure(self, digest: str, effects: dict[str, list[str]]) -> None:
        self.closures[digest] = effects

    def counters(self) -> dict[str, int]:
        return {
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "closure_hits": self.closure_hits,
            "closure_misses": self.closure_misses,
        }


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


class EffectAnalysis:
    """Transitive effect sets over a built call graph.

    ``graph`` is a :class:`repro.analysis.callgraph.CallGraph` (duck
    typed — anything with ``nodes``/``edges``/``summaries`` works).
    Pass an :class:`AnalysisCache` to reuse closures across runs.
    """

    def __init__(self, graph, cache: AnalysisCache | None = None) -> None:
        self.graph = graph
        self._direct: dict[str, frozenset[str]] = {}
        for path, summary in graph.summaries.items():
            for qualname, func in summary.functions.items():
                self._direct[f"{path}::{qualname}"] = frozenset(func.effects)
        self._closure: dict[str, frozenset[str]] = {}
        self._compute(cache)

    def _compute(self, cache: AnalysisCache | None) -> None:
        edges = self.graph.edges
        node_ids = sorted(self.graph.nodes)
        sccs = _tarjan_sccs(node_ids, edges)
        scc_of: dict[str, int] = {}
        for i, scc in enumerate(sccs):
            for member in scc:
                scc_of[member] = i
        digests: dict[int, str] = {}
        for i, scc in enumerate(sccs):  # successors-first
            succ_digests: set[str] = set()
            for member in scc:
                for succ in edges.get(member, ()):
                    j = scc_of.get(succ)
                    if j is not None and j != i:
                        succ_digests.add(digests[j])
            hasher = hashlib.sha256(ANALYZER_VERSION.encode())
            for member in scc:
                hasher.update(member.encode())
                hasher.update(",".join(sorted(self._direct[member])).encode())
            for digest in sorted(succ_digests):
                hasher.update(digest.encode())
            digest = hasher.hexdigest()[:24]
            digests[i] = digest

            cached = cache.get_closure(digest) if cache is not None else None
            if cached is not None and set(cached) == set(scc):
                for member, effect_list in cached.items():
                    self._closure[member] = frozenset(effect_list)
                continue
            self._close_scc(scc, set(scc), edges)
            if cache is not None:
                cache.put_closure(digest, {
                    member: sorted(self._closure[member]) for member in scc
                })

    def _close_scc(
        self,
        scc: tuple[str, ...],
        members: set[str],
        edges: dict[str, tuple[str, ...]],
    ) -> None:
        # seed: direct effects + already-final closures of external callees
        for member in scc:
            acc = set(self._direct[member])
            for succ in edges.get(member, ()):
                if succ not in members:
                    acc |= self._closure.get(succ, frozenset())
            self._closure[member] = frozenset(acc)
        if len(scc) == 1 and scc[0] not in edges.get(scc[0], ()):
            return
        # intra-SCC fixpoint (components are tiny: recursion is rare here)
        changed = True
        while changed:
            changed = False
            for member in scc:
                acc = set(self._closure[member])
                before = len(acc)
                for succ in edges.get(member, ()):
                    if succ in members:
                        acc |= self._closure[succ]
                if len(acc) != before:
                    self._closure[member] = frozenset(acc)
                    changed = True

    # -- queries ---------------------------------------------------------------

    def direct(self, node: str) -> frozenset[str]:
        return self._direct.get(node, frozenset())

    def transitive(self, node: str) -> frozenset[str]:
        return self._closure.get(node, frozenset())

    def inherited(self, node: str) -> frozenset[str]:
        """Effects arriving only through callees."""
        return self.transitive(node) - self.direct(node)

    def witness(self, node: str, effect: str) -> list[str]:
        """Shortest deterministic call chain from ``node`` to a function
        with ``effect`` as a *direct* effect (BFS, sorted successors).
        Returns ``[node, ..., source]``; empty when unreachable."""
        from repro.analysis.dataflow import first_reaching_path

        return first_reaching_path(
            self.graph, node,
            lambda n: effect in self.direct(n),
            allowed=lambda n: effect in self.transitive(n),
        ) or []

    def describe(self, node: str) -> dict[str, object]:
        """CLI payload for ``viewjoin lint --effects <qualname>``."""
        direct = sorted(self.direct(node))
        inherited = sorted(self.inherited(node))
        return {
            "node": node,
            "direct": direct,
            "inherited": {
                effect: self.witness(node, effect) for effect in inherited
            },
        }
