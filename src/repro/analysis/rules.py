"""The per-file repro-lint rule catalog (RL101–RL107).

Each rule encodes one invariant this repository's correctness rests on;
DESIGN.md §10 carries the authoritative rule table (per-file RL1xx,
whole-program RL2xx in :mod:`repro.analysis.rules_interprocedural`, and
the RL0xx engine diagnostics).  Rules scope by package-relative path, so
fixture tests (and scratch files) exercise them by choosing an
appropriate path.  ``docs/LINTING.md`` is the guide for writing a new
rule in either tier.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Rule,
    attr_chain,
    call_target_name,
    local_attr_aliases,
)

# -- RL101: hot-path purity ----------------------------------------------------

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

#: Record-object constructors: calling one on a hot path allocates a
#: record per entry, which is exactly what the columnar int kernels exist
#: to avoid.
RECORD_CONSTRUCTORS = frozenset({
    "ElementEntry", "LinkedEntry", "element_of",
})

#: Attribute factories that build record objects: called
#: (``columns.entry(i)``) or read as a property (``cursor.current``).
RECORD_FACTORY_ATTRS = frozenset({"entry", "current"})

#: Pool-served record readers (``StoredList.read`` / ``scan``).  Hot loops
#: run on the packed columns; a call to one of these decodes a record per
#: entry.
REFERENCE_HELPERS = frozenset({"read", "scan"})


class HotPathPurityRule(Rule):
    code = "RL101"
    name = "hot-path-purity"
    description = (
        "Registered hot functions must not construct record objects, use"
        " try/except inside loops, or call pool-served record readers"
        " (read/scan)."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        registered = HOT_FUNCTIONS.get(module.path, frozenset())
        findings: list[Finding] = []
        for qualname, func in module.functions():
            if qualname not in registered and not module.has_hot_marker(func):
                continue
            findings.extend(self._check_hot(module, qualname, func))
        return findings

    def _check_hot(
        self,
        module: ModuleInfo,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        findings: list[Finding] = []
        aliases = local_attr_aliases(func)
        called = {
            id(node.func) for node in ast.walk(func)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in RECORD_FACTORY_ATTRS
                and id(node) not in called
            ):
                # A property-style factory (`cursor.current`) allocates on
                # the read itself; a call through one is reported below.
                findings.append(self.finding(
                    module, node,
                    f"hot path {qualname} reads record factory"
                    f" {node.attr!r} (compare raw column ints instead)",
                    symbol=qualname,
                ))
            if isinstance(node, (ast.For, ast.While)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Try):
                        findings.append(self.finding(
                            module, inner,
                            f"hot path {qualname} sets up try/except inside"
                            " a loop (per-iteration exception-table cost;"
                            " hoist it out of the loop)",
                            symbol=qualname,
                        ))
            if not isinstance(node, ast.Call):
                continue
            target = call_target_name(node)
            if target is None:
                continue
            resolved = target
            if isinstance(node.func, ast.Name):
                resolved = aliases.get(target, target)
            if (
                resolved in RECORD_CONSTRUCTORS
                or (
                    resolved in RECORD_FACTORY_ATTRS
                    and not isinstance(node.func, ast.Name)
                )
                or (
                    isinstance(node.func, ast.Name)
                    and aliases.get(target) in RECORD_FACTORY_ATTRS
                )
            ):
                findings.append(self.finding(
                    module, node,
                    f"hot path {qualname} constructs a record object via"
                    f" {resolved!r} (compare raw column ints instead)",
                    symbol=qualname,
                ))
            elif resolved in REFERENCE_HELPERS:
                findings.append(self.finding(
                    module, node,
                    f"hot path {qualname} calls pool-served record reader"
                    f" {resolved!r} (decodes a record per entry; use the"
                    " packed columns)",
                    symbol=qualname,
                ))
        return findings


# -- RL102: I/O-accounting mirror ----------------------------------------------

#: Calls that read page bytes or packed-column records without going
#: through the pool's counted ``get`` path.
_RAW_ACCESS_ATTRS = frozenset({"read_page_raw"})


class IoAccountingMirrorRule(Rule):
    code = "RL102"
    name = "io-accounting-mirror"
    description = (
        "In storage/, raw page-byte or packed-column record access must"
        " happen in a scope that mirrors the read into the buffer pool"
        " (pool.touch / touch_index), keeping columnar I/O counters"
        " byte-identical to pool-served reads (BufferPool.get)."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if not module.path.startswith("storage/"):
            return []
        findings: list[Finding] = []
        for qualname, func in module.functions():
            findings.extend(self._check_function(module, qualname, func))
        return findings

    def _check_function(
        self,
        module: ModuleInfo,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        aliases = local_attr_aliases(func)
        references_columns = any(
            isinstance(node, ast.Attribute)
            and node.attr in ("columns", "_columns")
            for node in ast.walk(func)
        )
        triggers: list[tuple[ast.Call, str]] = []
        mirrored = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = call_target_name(node)
            if target is None:
                continue
            resolved = target
            if isinstance(node.func, ast.Name):
                resolved = aliases.get(target, target)
            if "touch" in resolved:
                mirrored = True
            elif resolved in _RAW_ACCESS_ATTRS:
                triggers.append((node, resolved))
            elif (
                resolved in RECORD_FACTORY_ATTRS
                and references_columns
            ):
                triggers.append((node, resolved))
        if mirrored:
            return []
        return [
            self.finding(
                module, node,
                f"{qualname} reads raw pages/columns via {name!r} without"
                " mirroring the access into the buffer pool"
                " (pool.touch/touch_index) — columnar I/O counters drift"
                " from pool-served reads",
                symbol=qualname,
            )
            for node, name in triggers
        ]


# -- RL103: determinism --------------------------------------------------------

#: Calls known to return unordered sets.
_SET_RETURNING = frozenset({"set", "frozenset", "tag_set"})

#: Iteration wrappers that preserve (and therefore leak) iteration order.
_ORDER_PRESERVING_CALLS = frozenset({"list", "tuple", "enumerate", "join"})

#: Directories whose modules may use ``random`` (synthetic data, the
#: benchmark harness and workload generators are seeded explicitly).
_RANDOM_OK_PREFIXES = ("datasets/", "bench/", "workloads/")

#: Directories subject to the set-iteration and wall-clock checks.
_DETERMINISM_PREFIXES = ("algorithms/", "service/", "storage/")

#: The only ``time`` attribute deterministic code may touch: duration
#: measurement.  ``time.time``/``monotonic``/``sleep`` feed wall-clock
#: values into logic, which the determinism contract forbids.
_TIME_ALLOWED = frozenset({"perf_counter"})


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


class DeterminismRule(Rule):
    code = "RL103"
    name = "determinism"
    description = (
        "Engine/service code must not iterate unordered sets into"
        " downstream state, and must not read randomness or wall-clock"
        " values (except perf_counter durations)."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_random(module))
        if module.path.startswith(_DETERMINISM_PREFIXES):
            findings.extend(self._check_time(module))
            findings.extend(self._check_set_iteration(module))
        return findings

    def _check_random(self, module: ModuleInfo) -> list[Finding]:
        if module.path.startswith(_RANDOM_OK_PREFIXES):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "random" or name.startswith("random.")
                   for name in names):
                findings.append(self.finding(
                    module, node,
                    "imports `random` outside datasets/ and bench/ —"
                    " engine results must be reproducible",
                ))
        return findings

    def _check_time(self, module: ModuleInfo) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr not in _TIME_ALLOWED
            ):
                findings.append(self.finding(
                    module, node,
                    f"reads wall clock via `time.{node.attr}` — only"
                    " perf_counter duration measurement is deterministic"
                    "-safe in engine/service code",
                ))
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name not in _TIME_ALLOWED
                        for alias in node.names)
            ):
                findings.append(self.finding(
                    module, node,
                    "imports wall-clock names from `time` — only"
                    " perf_counter is allowed in engine/service code",
                ))
        return findings

    def _check_set_iteration(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for qualname, func in module.functions():
            inference = _SetTypeInference()
            inference.visit(func)
            for node in ast.walk(func):
                iter_sites: list[ast.AST] = []
                if isinstance(node, ast.For):
                    iter_sites.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                       ast.DictComp)):
                    # Set comprehensions are exempt: set-to-set algebra
                    # stays order-free end to end.
                    iter_sites.extend(g.iter for g in node.generators)
                elif isinstance(node, ast.Call):
                    target = call_target_name(node)
                    if target in _ORDER_PRESERVING_CALLS and node.args:
                        iter_sites.append(node.args[0])
                for site in iter_sites:
                    if inference.is_set_expr(site):
                        findings.append(self.finding(
                            module, node,
                            f"{qualname} iterates an unordered set into"
                            " ordered downstream state — sort explicitly"
                            " or iterate a deterministic sequence",
                            symbol=qualname,
                        ))
        return findings


# -- RL104: plan-cache coherence -----------------------------------------------

#: (path, class, mutated attribute, required call names, required stores).
#: A method of ``class`` that mutates ``self.<attr>`` must either call
#: one of the required methods or assign one of the required attributes.
CACHE_CONTRACTS: tuple[tuple[str, str, str, tuple[str, ...],
                             tuple[str, ...]], ...] = (
    ("planner.py", "Planner", "_registered", ("_bump_generation",), ()),
    ("storage/catalog.py", "ViewCatalog", "_views", (), ("version",)),
)

#: (path prefix, mutated attributes, required call names, required stores).
#: Module-level variant of the contract for the maintenance subsystem:
#: *any* function under the prefix that assigns the catalog-attached view
#: state (``<catalog>._views`` / ``<catalog>.document``, whatever the
#: receiver is named) must route through ``install_maintained`` or bump
#: ``<catalog>.version`` itself — otherwise planners, result caches and
#: worker attachments keep serving the pre-commit state.
MAINTENANCE_CONTRACTS: tuple[tuple[str, tuple[str, ...], tuple[str, ...],
                                   tuple[str, ...]], ...] = (
    ("maintenance/", ("_views", "document"),
     ("install_maintained",), ("version",)),
)

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard",
})


class CacheCoherenceRule(Rule):
    code = "RL104"
    name = "cache-coherence"
    description = (
        "Every planner/catalog/maintenance function that mutates the"
        " registered view set must bump the plan-cache generation (or"
        " the catalog version), or stale plans outlive the views they"
        " reference."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for path, cls, attr, calls, stores in CACHE_CONTRACTS:
            if module.path != path:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls:
                    findings.extend(
                        self._check_class(module, node, attr, calls, stores)
                    )
        for prefix, attrs, calls, stores in MAINTENANCE_CONTRACTS:
            if module.path.startswith(prefix):
                findings.extend(
                    self._check_module(module, attrs, calls, stores)
                )
        return findings

    def _check_module(
        self,
        module: ModuleInfo,
        attrs: tuple[str, ...],
        required_calls: tuple[str, ...],
        required_stores: tuple[str, ...],
    ) -> list[Finding]:
        """Any-receiver variant: maintenance code handles catalogs it does
        not own, so the contract binds every function in the module, not
        the methods of one class."""
        findings = []
        for qualname, func in module.functions():
            mutation = self._find_any_receiver_mutation(func, attrs)
            if mutation is None:
                continue
            if self._satisfies_any_receiver(
                func, required_calls, required_stores
            ):
                continue
            wanted = ", ".join(
                [f"<catalog>.{name}(...)" for name in required_calls]
                + [f"<catalog>.{name} = ..." for name in required_stores]
            )
            findings.append(self.finding(
                module, mutation,
                f"{qualname} assigns catalog-attached view state"
                f" without invalidating dependent caches (expected"
                f" {wanted})",
                symbol=qualname,
            ))
        return findings

    @staticmethod
    def _is_any_attr(node: ast.AST, attrs: tuple[str, ...]) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in attrs

    def _find_any_receiver_mutation(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        attrs: tuple[str, ...],
    ) -> ast.AST | None:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if self._is_any_attr(target, attrs):
                        return node
                    if isinstance(target, ast.Subscript) and \
                            self._is_any_attr(target.value, attrs):
                        return node
            elif isinstance(node, ast.Call):
                func_node = node.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in _MUTATOR_METHODS
                    and self._is_any_attr(func_node.value, attrs)
                ):
                    return node
        return None

    def _satisfies_any_receiver(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        required_calls: tuple[str, ...],
        required_stores: tuple[str, ...],
    ) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if call_target_name(node) in required_calls:
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if self._is_any_attr(target, required_stores):
                        return True
        return False

    def _check_class(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        attr: str,
        required_calls: tuple[str, ...],
        required_stores: tuple[str, ...],
    ) -> list[Finding]:
        findings = []
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # first assignment, not a mutation
            mutation = self._find_mutation(item, attr)
            if mutation is None:
                continue
            if self._satisfies(item, required_calls, required_stores):
                continue
            wanted = ", ".join(
                [f"self.{name}()" for name in required_calls]
                + [f"self.{name} = ..." for name in required_stores]
            )
            findings.append(self.finding(
                module, mutation,
                f"{cls.name}.{item.name} mutates self.{attr} without"
                f" invalidating dependent caches (expected {wanted})",
                symbol=f"{cls.name}.{item.name}",
            ))
        return findings

    @staticmethod
    def _is_self_attr(node: ast.AST, attr: str) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _find_mutation(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, attr: str
    ) -> ast.AST | None:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if self._is_self_attr(target, attr):
                        return node
                    if isinstance(target, ast.Subscript) and \
                            self._is_self_attr(target.value, attr):
                        return node
            elif isinstance(node, ast.Call):
                func_node = node.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr in _MUTATOR_METHODS
                    and self._is_self_attr(func_node.value, attr)
                ):
                    return node
        return None

    def _satisfies(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        required_calls: tuple[str, ...],
        required_stores: tuple[str, ...],
    ) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                target = call_target_name(node)
                if target in required_calls:
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if any(self._is_self_attr(target, name)
                           for name in required_stores):
                        return True
        return False


# -- RL105: exception discipline -----------------------------------------------

#: Builtins that must not be raised by library code: callers are promised
#: that every library failure is a ``ReproError`` subclass.
#: ``AssertionError``/``NotImplementedError`` stay allowed — they mark
#: internal invariants, not caller-facing failures.
_BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError",
    "RuntimeError", "KeyError", "IndexError", "LookupError",
    "OSError", "IOError", "ArithmeticError", "ZeroDivisionError",
    "StopIteration", "AttributeError",
})

_BROAD_EXCEPTS = frozenset({"Exception", "BaseException"})


class ExceptionDisciplineRule(Rule):
    code = "RL105"
    name = "exception-discipline"
    description = (
        "Public modules raise only repro.errors types; no bare or"
        " broad except clauses."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if module.path == "errors.py":
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = exc.id if isinstance(exc, ast.Name) else None
                if name in _BUILTIN_EXCEPTIONS:
                    findings.append(self.finding(
                        module, node,
                        f"raises builtin {name} — public modules raise"
                        " repro.errors types only (callers catch"
                        " ReproError)",
                    ))
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    findings.append(self.finding(
                        module, node,
                        "bare `except:` swallows every failure, including"
                        " KeyboardInterrupt — catch specific types",
                    ))
                else:
                    caught = [node.type] if not isinstance(
                        node.type, ast.Tuple
                    ) else list(node.type.elts)
                    for item in caught:
                        name = item.id if isinstance(item, ast.Name) else None
                        if name in _BROAD_EXCEPTS:
                            findings.append(self.finding(
                                module, node,
                                f"broad `except {name}` hides contract"
                                " violations — catch specific"
                                " repro.errors types",
                            ))
        return findings


# -- RL106: wait discipline ----------------------------------------------------

#: Packages whose waiting must be policy-mediated.  ``resilience/`` is
#: deliberately outside the scope: it is where the one sanctioned
#: ``time.sleep`` (``policy.wait``) lives.
_WAIT_PREFIXES = ("service/", "maintenance/")

#: Iterating one of these RetryPolicy methods is the sanctioned attempt
#: loop; a function that does so may legitimately ``except``+``continue``.
_POLICY_ITERATORS = frozenset({"delays", "attempts"})


class WaitDisciplineRule(Rule):
    code = "RL106"
    name = "wait-discipline"
    description = (
        "Service/maintenance code must not call time.sleep or hand-roll"
        " retry loops; all waiting goes through repro.resilience.policy"
        " (bounded attempts, deterministic jittered backoff)."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if not module.path.startswith(_WAIT_PREFIXES):
            return []
        findings: list[Finding] = []
        findings.extend(self._check_sleep(module))
        findings.extend(self._check_retry_loops(module))
        return findings

    def _check_sleep(self, module: ModuleInfo) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr == "sleep"
            ):
                findings.append(self.finding(
                    module, node,
                    "calls `time.sleep` directly — all waiting in"
                    " service/maintenance code goes through"
                    " repro.resilience.policy.wait so chaos runs stay"
                    " bounded and deterministic",
                ))
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name == "sleep" for alias in node.names)
            ):
                findings.append(self.finding(
                    module, node,
                    "imports `sleep` from time — use"
                    " repro.resilience.policy.wait instead",
                ))
        return findings

    def _check_retry_loops(self, module: ModuleInfo) -> list[Finding]:
        findings = []
        for qualname, func in module.functions():
            sanctioned = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POLICY_ITERATORS
                for node in ast.walk(func)
            )
            if sanctioned:
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.While)) and (
                    self._is_retry_shape(node)
                ):
                    findings.append(self.finding(
                        module, node,
                        f"`{qualname}` hand-rolls a retry loop (except +"
                        " continue) — iterate RetryPolicy.delays() /"
                        " .attempts() from repro.resilience.policy so"
                        " attempts stay capped and backoff jittered",
                    ))
        return findings

    @staticmethod
    def _is_retry_shape(loop: ast.For | ast.While) -> bool:
        """An except handler that ``continue``s the loop: the signature
        of swallow-and-try-again."""
        return any(
            isinstance(node, ast.ExceptHandler)
            and any(
                isinstance(inner, ast.Continue)
                for inner in ast.walk(node)
            )
            for node in ast.walk(loop)
        )


# -- RL107: batch-loop planning discipline -------------------------------------

#: Batch entry points whose per-item loops must not re-plan or touch the
#: catalog: package-relative path -> qualnames.  The shared-scan batch
#: contract is *plan once per distinct canonical query*: planning and
#: materialization are hoisted out of the per-item loop into batch
#: pre-passes (``QueryService._plan_batch`` and the node pre-pass of
#: ``_read_batch``), which are the sanctioned, unregistered sites.
BATCH_FUNCTIONS: dict[str, frozenset[str]] = {
    "service/core.py": frozenset({
        "QueryService.evaluate_batch",
        "QueryService.evaluate_parallel",
    }),
}

#: Call targets that parse, plan or materialize.  One call answers a
#: whole batch; per-item repeats inside a batch loop redo work the
#: batch planner already shares across consumers.
_PLANNING_CALL_ATTRS = frozenset({
    "plan", "parse_pattern", "_build_plan", "_materialize_plan",
    "materialize", "warmup", "warmup_jobs",
})

#: Catalog methods that look up or mutate the view store per call.
#: Receiver-matched: only flagged when the call chain goes through a
#: ``catalog`` component (``self.catalog.add``), so unrelated ``get``
#: calls (result caches, dicts) stay out of scope.
_CATALOG_CALL_ATTRS = frozenset({"add", "get", "add_all", "remove_view"})


class BatchPlanningRule(Rule):
    code = "RL107"
    name = "batch-loop-planning"
    description = (
        "Registered batch entry points must plan once per distinct"
        " canonical query: no per-item re-planning or catalog lookups"
        " inside their per-query loops."
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        registered = BATCH_FUNCTIONS.get(module.path, frozenset())
        if not registered:
            return []
        findings: list[Finding] = []
        for qualname, func in module.functions():
            if qualname not in registered:
                continue
            for loop in self._loop_scopes(func):
                findings.extend(self._check_loop(module, qualname, loop))
        return findings

    @staticmethod
    def _loop_scopes(func: ast.AST) -> list[ast.AST]:
        """Per-item iteration sites: statement loops and comprehensions."""
        return [
            node for node in ast.walk(func)
            if isinstance(node, (ast.For, ast.While, ast.ListComp,
                                 ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp))
        ]

    def _check_loop(
        self, module: ModuleInfo, qualname: str, loop: ast.AST
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            target = call_target_name(node)
            if target is None:
                continue
            if target in _PLANNING_CALL_ATTRS:
                findings.append(self.finding(
                    module, node,
                    f"batch entry point {qualname} calls {target!r} inside"
                    " its per-item loop — plan/materialize once per"
                    " distinct canonical query before the loop"
                    " (_plan_batch / the _read_batch pre-pass)",
                    symbol=qualname,
                ))
                continue
            chain = attr_chain(node.func)
            if (
                chain is not None
                and target in _CATALOG_CALL_ATTRS
                and "catalog" in chain.split(".")[:-1]
            ):
                findings.append(self.finding(
                    module, node,
                    f"batch entry point {qualname} performs a per-item"
                    f" catalog access via {chain!r} — hoist catalog"
                    " lookups out of the batch loop (materialize once"
                    " per distinct eval node)",
                    symbol=qualname,
                ))
        return findings


#: The registry, in code order.  Stable: reporters, baselines and
#: suppressions key on these codes.
RULES: tuple[Rule, ...] = (
    HotPathPurityRule(),
    IoAccountingMirrorRule(),
    DeterminismRule(),
    CacheCoherenceRule(),
    ExceptionDisciplineRule(),
    WaitDisciplineRule(),
    BatchPlanningRule(),
)
