"""repro-lint: AST-based invariant checks for this repository.

The engine grew three load-bearing conventions that nothing enforced:

* the columnar fast path must mirror every raw column access into the
  buffer pool's I/O accounting (``pool.touch`` / ``touch_index``);
* parallel service evaluation must stay deterministic — no unordered
  ``set`` iteration feeding emission or counter merges, no wall-clock
  reads outside measurement code;
* every catalog/planner mutator must bump the plan-cache generation.

:mod:`repro.analysis` turns those conventions (plus hot-path purity and
exception discipline) into CI-enforced rules over :mod:`ast`, one rule
per invariant.  A contract one function body decides on its own is a
per-file RL1xx rule; a contract a callee can discharge or break (the
accounting mirror, the generation bump, hot-path purity) is a
whole-program RL2xx rule over a project call graph
(:mod:`repro.analysis.callgraph`) with transitive effect inference
(:mod:`repro.analysis.effects`).  See
``DESIGN.md`` §10 for the rule catalog and ``docs/LINTING.md`` for the
rule-writing guide.

Public surface:

* :func:`repro.analysis.runner.lint_package` — lint a package tree;
* :func:`repro.analysis.runner.lint_text` — lint one source snippet
  (fixture tests and editor integrations);
* :func:`repro.analysis.runner.build_program` — call graph + effects
  without running rules;
* :data:`repro.analysis.rules.RULES` /
  :data:`repro.analysis.rules_interprocedural.PROGRAM_RULES` — the rule
  registries;
* reporters in :mod:`repro.analysis.reporters` (text, JSON, SARIF).
"""

from __future__ import annotations

from repro.analysis.core import Finding, ModuleInfo, ProgramRule, Rule
from repro.analysis.runner import (
    LintReport,
    ProgramModel,
    build_program,
    lint_package,
    lint_text,
)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "ProgramModel",
    "ProgramRule",
    "Rule",
    "build_program",
    "lint_package",
    "lint_text",
]
