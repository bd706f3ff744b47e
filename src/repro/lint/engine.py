"""The rule engine behind ``python -m repro lint``.

This module is deliberately boring infrastructure: it knows how to walk a
file tree, parse each Python file once, precompute the shared analyses the
rules need (parent links, import-alias resolution, per-scope set-typed
name inference, ``noqa`` comments), and hand every rule a
:class:`FileContext`.  The determinism/contract knowledge itself lives in
:mod:`repro.lint.rules` and :mod:`repro.lint.contracts`.

Everything here is stdlib-only (``ast`` + ``re``): the linter must run on
a bare interpreter, in CI and pre-commit, with no third-party imports.

Suppression
-----------
A finding on line ``L`` is suppressed when line ``L`` carries a trailing
``# repro: noqa[RULE]`` comment naming the rule (or a blanket
``# repro: noqa``).  Suppressions are for findings that are *understood
and accepted*; the comment is the justification's home, e.g.::

    cutoff = time.time() - max_age  # repro: noqa[D104] age pruning is wall-clock by design

Pre-existing findings that should be burned down over time belong in the
baseline file instead (:mod:`repro.lint.baseline`).

Path policies
-------------
Some rules are *scoped out* of whole subtrees rather than suppressed
line-by-line: :data:`PATH_POLICIES` maps a rule id to path prefixes where
its findings are dropped wholesale.  This is for subsystems whose charter
is to do the thing the rule forbids - the telemetry registry in
``src/repro/obs/`` exists to anchor spans to wall time, so a ``noqa`` on
every clock read there would be ritual, not information.  The policy
table keeps the carve-out in one auditable place instead.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import LintError

#: Scope-introducing nodes for name inference.  ``Lambda`` bodies cannot
#: contain assignments, so they are treated as part of the enclosing scope.
_SCOPE_NODES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

#: ``# repro: noqa`` or ``# repro: noqa[D101]`` or ``# repro: noqa[D101, C201] why``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?", re.IGNORECASE
)

#: Set-producing ``set`` method names (receiver must itself be set-typed).
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference", "copy"}
)

#: Binary operators that preserve set-ness when an operand is a set.
_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)

#: Rule id -> path prefixes (posix, cwd-relative) where that rule's
#: findings are dropped.  The telemetry layer is the one place wall-clock
#: reads are the charter: ``MetricsRegistry`` anchors every span/export to
#: a wall epoch, and the determinism contract is enforced one level up
#: (C206 keeps registry *reads* out of result paths entirely).  The
#: environment-read rule binds library code only: the benchmark harness
#: and the tests read their own switches (``BENCH_SMOKE``) by design.
PATH_POLICIES: Dict[str, Tuple[str, ...]] = {
    "D104": ("src/repro/obs/",),
    "D109": ("benchmarks/", "tests/"),
}


def policy_exempt(finding: "Finding") -> bool:
    """Whether a path policy scopes ``finding``'s rule out of its file."""
    prefixes = PATH_POLICIES.get(finding.rule)
    if not prefixes:
        return False
    return any(finding.path.startswith(prefix) for prefix in prefixes)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    The ``message`` is location-free on purpose: baseline entries match on
    ``(rule, path, message)`` so that unrelated edits shifting line numbers
    do not invalidate the baseline.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """The baseline-matching key (line numbers excluded, see above)."""
        return (self.rule, self.path, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
            "rule": self.rule,
            "message": self.message,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (stable, referenced by ``noqa``/baseline/CLI),
    ``name`` (a kebab-case slug accepted interchangeably with the id) and
    ``summary`` (one line for listings), and implement :meth:`check`.  The
    class docstring is the long-form explanation rendered by
    ``repro lint --explain RULE``.
    """

    id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def explain(cls) -> str:
        import inspect

        doc = inspect.getdoc(cls) or "(no documentation)"
        return f"{cls.id} ({cls.name}): {cls.summary}\n\n{doc}"


class FileContext:
    """One parsed file plus the shared analyses every rule reads.

    All analyses are computed lazily-once in ``__init__``; rules are pure
    readers, so a file is parsed and walked for inference exactly once no
    matter how many rules run.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.aliases = _collect_aliases(tree)
        self._scope_sets: Dict[ast.AST, FrozenSet[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, _SCOPE_NODES):
                self._scope_sets[node] = _infer_set_names(node)
        self.noqa = _collect_noqa(source)

    # -- name / type helpers -------------------------------------------------
    def scope_of(self, node: ast.AST) -> ast.AST:
        """The nearest enclosing scope node (function or module)."""
        current: Optional[ast.AST] = node
        while current is not None:
            current = self.parents.get(current)
            if isinstance(current, _SCOPE_NODES):
                return current
        return self.tree

    def set_names(self, node: ast.AST) -> FrozenSet[str]:
        """Names inferred set-typed in ``node``'s enclosing scope."""
        return self._scope_sets.get(self.scope_of(node), frozenset())

    def is_setish(self, expr: ast.AST, at: Optional[ast.AST] = None) -> bool:
        """Whether ``expr`` statically looks like a ``set``/``frozenset``."""
        return _is_setish(expr, self.set_names(at if at is not None else expr))

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``Name``/``Attribute`` chains through import aliases.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``"numpy.random.rand"``; ``time()`` after ``from time import
        time`` resolves to ``"time.time"``.  Returns ``None`` for
        anything that is not a plain dotted chain.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.FunctionDef]:
        current: Optional[ast.AST] = node
        while current is not None:
            current = self.parents.get(current)
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current  # type: ignore[return-value]
        return None

    def is_sorted_arg(self, node: ast.AST) -> bool:
        """Whether ``node`` is directly an argument of a ``sorted(...)`` call."""
        parent = self.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and node in parent.args
        )

    # -- suppression ---------------------------------------------------------
    def suppressed(self, finding: Finding) -> bool:
        rules = self.noqa.get(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule in rules


def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/attribute they were imported as."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _collect_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line suppressions: ``frozenset()`` means blanket ``noqa``."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = frozenset()
        else:
            table[lineno] = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
    return table


def _is_setish(expr: ast.AST, names: FrozenSet[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_setish(func.value, names)
        ):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_BINOPS):
        return _is_setish(expr.left, names) or _is_setish(expr.right, names)
    if isinstance(expr, ast.IfExp):
        return _is_setish(expr.body, names) and _is_setish(expr.orelse, names)
    return False


def _ordered_nodes_skipping_nested_scopes(scope: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, source-ordered walk that stays inside one scope."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield child
        for grandchild in _ordered_nodes_skipping_nested_scopes(child):
            yield grandchild


def _infer_set_names(scope: ast.AST) -> FrozenSet[str]:
    """Names that are set-typed throughout ``scope``.

    Conservative on purpose: a name qualifies only when *every* plain
    assignment to it binds a set-shaped expression (set/frozenset literal
    or call, set comprehension, set-operator expression, or another
    qualifying name) and it is never rebound by a loop target.  Names with
    any non-set assignment are excluded, so ``x = sorted(x)`` cleanses
    ``x``.  Resolution of name-to-name assignments runs to a fixed point.
    """
    assignments: Dict[str, List[Optional[ast.AST]]] = {}

    def record(target: ast.AST, value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            assignments.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, None)  # tuple unpacking: unknown type

    for node in _ordered_nodes_skipping_nested_scopes(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            record(node.target, None)  # loop variable: element, not the set
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            record(node.optional_vars, None)

    names: set = set()
    changed = True
    while changed:
        changed = False
        for name, values in assignments.items():
            if name in names:
                continue
            if values and all(
                value is not None and _is_setish(value, frozenset(names))
                for value in values
            ):
                names.add(name)
                changed = True
    return frozenset(names)


# ---------------------------------------------------------------------------
# File collection and the run loop
# ---------------------------------------------------------------------------
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    collected: set = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    collected.add(candidate)
        elif path.is_file():
            if path.suffix == ".py":
                collected.add(path)
        else:
            raise LintError(f"no such file or directory: {raw}")
    return sorted(collected, key=lambda p: p.as_posix())


def relative_path(path: Path) -> str:
    """The posix-style path findings and baselines use (cwd-relative)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_file(path: Path, rules: Iterable[Rule]) -> List[Finding]:
    """Run ``rules`` over one file; syntax errors surface as a finding."""
    rel = relative_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LintError(f"cannot read {rel}: {error}")
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as error:
        return [
            Finding(
                path=rel,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                rule="E999",
                message=f"syntax error: {error.msg}",
            )
        ]
    ctx = FileContext(rel, source, tree)
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding) and not policy_exempt(finding):
                findings.append(finding)
    return findings


def run_lint(paths: Iterable[str], rules: Iterable[Rule]) -> List[Finding]:
    """Lint ``paths`` with ``rules``; findings come back in sorted order."""
    rules = list(rules)
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(check_file(path, rules))
    return sorted(findings)
