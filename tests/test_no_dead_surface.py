"""No dead surface: every def and class under ``src/`` has a production
caller.

The walk parses ``src/``, ``examples/`` and ``benchmarks/`` with
:mod:`ast` and checks every module-level def and class, and every
method or property defined in a class body. Dunders are exempt.

A name is *used* by an ``ast.Name`` load, an ``ast.Attribute``, an
``ImportFrom`` alias or an identifier inside a string constant that is
not a docstring. Matching is by bare name, so a collision keeps a def
alive here; ``tests/census.py`` closes that gap by running the
production entry points and failing on any def whose code never ran.
This walk sees defs, not their parameters: a defaulted parameter that
no production call sets to anything but its default is the census's
parameter check (its ``ALLOWED_PARAMETERS``).
A use does not count when it sits

* in ``tests/``: tests are not production callers;
* inside the def's own body, or inside a def that is itself dead;
* in a docstring, or in a package ``__init__``'s re-exports: its
  imports and the names its module-level tables spell as strings
  (``__all__``, ``repro.obs``'s lazy export table).

Deadness is repeated to a fixed point, so a name used only by dead
code is dead too. ``benchmarks/ledger/`` is frozen and counts as a
caller like any other benchmark.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "examples", ROOT / "benchmarks")

#: Qualified name -> why it stays without a production caller. The
#: test fails if an entry is gone or has gained a caller.
ALLOWED: dict = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _not_counted(tree: ast.Module, is_package_init: bool) -> set[int]:
    """Ids of the nodes whose names are not uses: docstrings, and a
    package ``__init__``'s imports and module-level string tables."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    if is_package_init:
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                found.add(id(statement))
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                found.update(
                    id(node) for node in ast.walk(statement)
                    if isinstance(node, ast.Constant))
    return found


def _outside_body(node: ast.AST) -> list:
    """A def's parts that run in the enclosing scope: decorators,
    argument defaults and annotations, class bases and keywords."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + [kw.value for kw in node.keywords]
    return parts + [node.args] + ([node.returns] if node.returns else [])


def _scan(path: Path, defs: dict, uses: list) -> None:
    """Add *path*'s tracked defs to *defs* (qualname -> bare name) and
    its uses to *uses* as ``(name, qualnames of enclosing defs)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = None
    if SRC in path.parents:
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    skip = _not_counted(tree, module is not None
                        and path.name == "__init__.py")

    def visit(node: ast.AST, owners: tuple, scope: str | None) -> None:
        # scope: the dotted prefix a def here is tracked under, or None
        # where defs are not tracked (function bodies, callers' files).
        if id(node) in skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.append((node.id, owners))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, owners))
        elif isinstance(node, ast.ImportFrom):
            uses.extend((alias.name, owners) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.extend((name, owners)
                        for name in _IDENTIFIER.findall(node.value))
        if isinstance(node, _DEFS):
            for part in _outside_body(node):
                visit(part, owners, None)
            inner, inner_scope = owners, None
            if scope is not None and not _is_dunder(node.name):
                qualname = f"{module}:{scope}{node.name}"
                defs[qualname] = node.name
                inner = owners + (qualname,)
            if scope is not None and isinstance(node, ast.ClassDef):
                inner_scope = f"{scope}{node.name}."
            for statement in node.body:
                visit(statement, inner, inner_scope)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owners, scope)

    visit(tree, (), "" if module is not None else None)


def dead_surface() -> list[str]:
    """Every tracked def under ``src/`` with no live production use,
    repeated to a fixed point."""
    defs: dict[str, str] = {}
    uses: list[tuple[str, tuple]] = []
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            _scan(path, defs, uses)
    dead: set[str] = set()
    while True:
        users: dict[str, list[tuple]] = {}
        for name, owners in uses:
            if dead.isdisjoint(owners):
                users.setdefault(name, []).append(owners)
        now_dead = {
            qualname for qualname, name in defs.items()
            if all(qualname in owners for owners in users.get(name, ()))
        }
        if now_dead == dead:
            return sorted(dead)
        dead = now_dead


def _outermost(dead: list[str]) -> list[str]:
    """*dead* without the members of a dead class."""
    dead_set = set(dead)
    kept = []
    for qualname in dead:
        module, _, path = qualname.partition(":")
        parts = path.split(".")
        if not any(f"{module}:{'.'.join(parts[:i])}" in dead_set
                   for i in range(1, len(parts))):
            kept.append(qualname)
    return kept


def test_every_src_def_has_a_production_caller():
    unexplained = [qualname for qualname in _outermost(dead_surface())
                   if qualname not in ALLOWED]
    assert not unexplained, (
        "defs under src/ that nothing in src/, examples/ or benchmarks/ "
        "uses (delete them, move a test-only helper into tests/, or "
        "allow-list one with a reason):\n  " + "\n  ".join(unexplained))


def test_allow_list_is_current():
    dead = set(dead_surface())
    stale = [qualname for qualname in ALLOWED if qualname not in dead]
    assert not stale, (
        "allow-listed names that are gone or have gained a production "
        "caller (drop them from ALLOWED):\n  " + "\n  ".join(stale))
