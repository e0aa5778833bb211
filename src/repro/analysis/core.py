"""Lint-engine primitives: findings, modules, suppressions, rule base.

A :class:`ModuleInfo` wraps one parsed source file together with its
package-relative path (rules scope on the path, e.g. ``service/`` for
wait discipline) and its per-line suppressions.

Suppressions are line comments of the form::

    something()  # repro-lint: disable=RL105 (reason why this is fine)
    other()      # repro-lint: disable=RL103,RL105 legacy path
    anything()   # repro-lint: disable=all

A suppression silences findings *anchored on that physical line* only —
there is no block or file scope, so every grandfathered site stays
visible and individually justified.  Hot-path registration for RL201 can
likewise be done in source with ``# repro-lint: hot`` on (or directly
above) a ``def`` line;
:data:`repro.analysis.rules_interprocedural.HOT_FUNCTIONS` carries the
repository's standing registrations.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z]+\d*(?:\s*,\s*[A-Za-z]+\d*)*|all)"
)
_HOT_RE = re.compile(r"#\s*repro-lint:\s*hot\b")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location.

    ``path`` is package-relative and POSIX-style (``algorithms/dag.py``),
    so findings are stable across checkouts; ``symbol`` names the
    enclosing function/class qualname when the rule tracks one.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-free identity used for baseline matching.

        Baselined findings survive unrelated edits above them; rules keep
        messages free of line/position text for exactly this reason.
        """
        return (self.code, self.path, self.message)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }


class ModuleInfo:
    """One source file prepared for rule checks.

    Args:
        path: package-relative POSIX path (drives rule scoping).
        source: the file's text.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._functions: list | None = None
        self.suppressions: dict[int, set[str] | None] = {}
        self.used_suppression_lines: set[int] = set()
        self.hot_marker_lines: set[int] = set()
        for number, comment in self._comments():
            match = _SUPPRESS_RE.search(comment)
            if match:
                spec = match.group(1)
                if spec.strip().lower() == "all":
                    self.suppressions[number] = None  # None == every code
                else:
                    self.suppressions[number] = {
                        code.strip().upper() for code in spec.split(",")
                    }
            if _HOT_RE.search(comment):
                self.hot_marker_lines.add(number)

    def _comments(self) -> list[tuple[int, str]]:
        """(line, text) for every real comment token.

        Tokenizing (rather than regex-scanning raw lines) keeps
        ``repro-lint:`` directives quoted inside strings and docstrings
        — documentation, not markers — from registering.
        """
        try:
            return [
                (token.start[0], token.string)
                for token in tokenize.generate_tokens(
                    io.StringIO(self.source).readline
                )
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            # ast.parse accepted the file, so this should be unreachable;
            # fall back to treating every line as potential comment text.
            return list(enumerate(self.lines, start=1))

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line, ())
        if codes is None or finding.code in codes:
            self.used_suppression_lines.add(finding.line)
            return True
        return False

    def unused_suppression_lines(self) -> list[int]:
        """Suppression comments that silenced nothing this run (stale)."""
        return sorted(set(self.suppressions) - self.used_suppression_lines)

    def functions(
        self,
    ) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        """Memoized :func:`iter_functions` over this module's tree —
        every rule iterates the same definitions, so walk once."""
        if self._functions is None:
            self._functions = iter_functions(self.tree)
        return self._functions


#: Engine diagnostics (not invariant violations): RL001 marks files the
#: analyzer could not read as code (syntax error, empty file); RL002
#: marks suppression comments that silenced nothing.  Diagnostics are
#: never written into baselines — a baselined parse error would hide
#: every finding the file would produce once it parses again.
DIAGNOSTIC_CODES = frozenset({"RL001", "RL002"})

PARSE_ERROR_CODE = "RL001"
UNUSED_SUPPRESSION_CODE = "RL002"


class Rule:
    """Base class: one stable code, one invariant, one ``check``."""

    code: str = "RL000"
    name: str = "unnamed"
    description: str = ""

    def check(self, module: ModuleInfo) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            code=self.code,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


class ProgramRule(Rule):
    """Interprocedural rule: sees the whole program, not one module.

    ``check_program`` receives a :class:`repro.analysis.runner.ProgramModel`
    (modules, call graph, effect analysis) and returns findings anchored
    in whatever module each violation lives in; per-line suppressions
    still apply at the anchored line.  ``check`` is a no-op so
    ``ProgramRule`` instances can share the module-rule registry
    plumbing (reporters, docs) without running per-file.
    """

    def check(self, module: ModuleInfo) -> list[Finding]:
        return []

    def check_program(self, program) -> list[Finding]:
        raise NotImplementedError


# -- shared AST helpers --------------------------------------------------------


def iter_functions(
    tree: ast.Module,
) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """All function definitions with dotted qualnames (``Class.method``)."""
    found: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found.append((qualname, child))
                walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def attr_chain(node: ast.AST) -> str | None:
    """Dotted text of a ``Name``/``Attribute`` chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_target_name(node: ast.Call) -> str | None:
    """Final name of a call target: ``a.b.c()`` -> ``c``, ``f()`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def local_attr_aliases(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """Map simple local aliases to the final attribute they name.

    ``touch = self.pager.pool.touch`` binds ``touch -> "touch"``;
    ``entry_at = columns.entry`` binds ``entry_at -> "entry"``.  Only
    straight-line ``name = attr.chain`` assignments are tracked — enough
    for the hot-loop aliasing idiom the fast paths use.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Attribute):
            aliases[target.id] = node.value.attr
    return aliases
