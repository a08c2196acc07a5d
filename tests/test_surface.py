"""Library-surface guard: every public top-level name in ``aapdeploy`` is used
by the package itself.

A public function, class or constant that nothing in ``src/aapdeploy``
refers to is surface that no CLI verb reaches: a name a reader must learn and
later changes must carry along.  Such a name is either wired into a verb or
deleted together with its tests.  A reference is a bare name or
``module.name``; the definition itself (including recursion inside its own
body), imports and ``__all__`` strings do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import aapdeploy

PACKAGE = Path(aapdeploy.__file__).parent

# Public names kept although no module of the package refers to them.
ALLOWED_UNREFERENCED = {
    # perfbench wraps it by attribute to time the per-trial power pass, and
    # tests/test_montecarlo.py uses it as the one-population reference.
    "empirical_sum_power": "perfbench tracing target and test reference",
    # perfbench and the tests locate the shipped scenario files through it.
    "builtin_scenario_path": "perfbench and tests locate built-in scenarios",
}


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level public functions, classes and assigned constants."""
    found: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def _references(tree: ast.Module, module: str, name: str, own: ast.AST | None) -> int:
    """Uses of ``name`` (bare) or ``module.name`` in tree, outside ``own``."""
    inside = {id(n) for n in ast.walk(own)} if own is not None else set()
    count = 0
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            count += 1
    return count


def unreferenced_names(allowed=ALLOWED_UNREFERENCED) -> list[str]:
    """``module.name`` of every public name, outside ``allowed``, that no
    module of the package refers to."""
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    unused = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree).items():
            if name in allowed:
                continue
            uses = sum(
                _references(other, module, name, node if other is tree else None)
                for other in trees.values()
            )
            if uses == 0:
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_names() == []


def test_allowlist_is_not_stale():
    # each entry still exists and still has no caller inside the package
    flagged = {entry.split(".")[1] for entry in unreferenced_names(allowed={})}
    assert set(ALLOWED_UNREFERENCED) <= flagged


def test_guard_flags_an_unused_helper():
    tree = ast.parse("def helper():\n    return helper()\n\nX = 1\nY = X\n")
    defs = _public_definitions(tree)
    assert set(defs) == {"helper", "X", "Y"}
    assert _references(tree, "mod", "helper", defs["helper"]) == 0  # recursion only
    assert _references(tree, "mod", "X", defs["X"]) == 1
    other = ast.parse("from . import mod\nmod.helper()\n")
    assert _references(other, "mod", "helper", None) == 1
