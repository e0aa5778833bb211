"""The per-file repro-lint rule catalog (RL103, RL105–RL107).

Each rule encodes one invariant this repository's correctness rests on,
and each invariant has exactly one rule.  A per-file rule owns a
contract one body decides on its own; a contract a callee can discharge
or break (hot-path purity, the accounting mirror, cache invalidation)
is a whole-program RL2xx rule in
:mod:`repro.analysis.rules_interprocedural`.  DESIGN.md §10 carries the
authoritative rule table, including the retired codes.  Rules scope by
package-relative path, so fixture tests (and scratch files) exercise
them by choosing an appropriate path.  ``docs/LINTING.md`` is the guide
for writing a new rule in either tier.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Rule,
    attr_chain,
    call_target_name,
)
from repro.analysis.effects import TIME_ALLOWED, unordered_iterations

# -- RL103: determinism --------------------------------------------------------

#: Directories whose modules may use ``random`` (synthetic data, the
#: benchmark harness and workload generators are seeded explicitly).
_RANDOM_OK_PREFIXES = ("datasets/", "bench/", "workloads/")

#: Directories subject to the set-iteration and wall-clock checks.
_DETERMINISM_PREFIXES = ("algorithms/", "service/", "storage/")


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
                and node.attr not in TIME_ALLOWED
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
                and any(alias.name not in TIME_ALLOWED
                        for alias in node.names)
            ):
                findings.append(self.finding(
                    module, node,
                    "imports wall-clock names from `time` — only"
                    " perf_counter is allowed in engine/service code",
                ))
        return findings

    def _check_set_iteration(self, module: ModuleInfo) -> list[Finding]:
        return [
            self.finding(
                module, node,
                f"{qualname} iterates an unordered set into ordered"
                " downstream state — sort explicitly or iterate a"
                " deterministic sequence",
                symbol=qualname,
            )
            for qualname, func in module.functions()
            for node in unordered_iterations(func, ast.walk(func))
        ]


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
#: suppressions key on these codes.  RL101, RL102 and RL104 are retired
#: into RL201, RL203 and RL204 and are never reused.
RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    ExceptionDisciplineRule(),
    WaitDisciplineRule(),
    BatchPlanningRule(),
)
