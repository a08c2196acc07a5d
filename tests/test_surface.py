"""Library-surface guard: every public top-level name in ``aapdeploy`` is used
by the package itself, and so is every field of its records.

A public function, class or constant that nothing in ``src/aapdeploy``
refers to is surface that no CLI verb reaches: a name a reader must learn and
later changes must carry along.  Such a name is either wired into a verb or
deleted together with its tests.  A reference is a bare name or
``module.name``; the definition itself (including recursion inside its own
body), imports and ``__all__`` strings do not count.

The same holds one level down: a field or public property of a dataclass
or NamedTuple must be read as an attribute (``x.field``) somewhere in the
package, outside ``__post_init__``, where a field that is only validated is
still unused.  A count derived by a property is surface just as a stored one
is.  The match is by attribute name, not by type, so a field that shares its
name with an attribute read elsewhere can escape.

Optional parameters get the same rule: a public top-level function's
parameter with a default must be passed, by keyword or by position, by at
least one call inside the package.  A knob that no caller sets is a second
code path that only tests reach.

Modules keep their private names to themselves: no module of the package
reads another's ``_name``, by attribute or by import.  A name one module
needs from another is public.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import aapdeploy

PACKAGE = Path(aapdeploy.__file__).parent

# Public names kept although no module of the package refers to them.
ALLOWED_UNREFERENCED = {
    # perfbench and the tests locate the shipped scenario files through it.
    "builtin_scenario_path": "perfbench and tests locate built-in scenarios",
}


# Functions whose optional parameters no call in the package passes.
ALLOWED_UNPASSED = {
    # the entry point: argv comes from the command line, or from tests
    "main": "cli entry point",
}


# Records whose fields the package reads other than as attributes.
ALLOWED_UNREAD_FIELDS = {
    # verify_levels' report reaches the plan JSON through dataclasses.asdict,
    # which reads every field by name.
    "FeasibilityReport": "serialised with dataclasses.asdict",
    # solve writes the solution to solution.json the same way.
    "DeploymentSolution": "serialised with dataclasses.asdict",
}


def _package_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by module name."""
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
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


def _reference_counts(node: ast.AST) -> Counter:
    """Uses under node, walked once: each bare name counted under the name,
    and each ``module.name`` under the pair (module, name)."""
    counts: Counter = Counter()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            counts[inner.id] += 1
        elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
            counts[inner.value.id, inner.attr] += 1
    return counts


def _uses(counts: Counter, module: str, name: str) -> int:
    return counts[name] + counts[module, name]


def _references(tree: ast.Module, module: str, name: str, own: ast.AST | None) -> int:
    """Uses of ``name`` (bare) or ``module.name`` in tree, outside ``own``."""
    inside = _reference_counts(own) if own is not None else Counter()
    return _uses(_reference_counts(tree), module, name) - _uses(inside, module, name)


def unreferenced_names(allowed=ALLOWED_UNREFERENCED) -> list[str]:
    """``module.name`` of every public name, outside ``allowed``, that no
    module of the package refers to.  Each tree is walked once; a
    definition's uses of its own name are then taken off the total."""
    trees = _package_trees()
    total = sum(map(_reference_counts, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree).items():
            if name in allowed:
                continue
            own = _uses(_reference_counts(node), module, name)
            if _uses(total, module, name) - own == 0:
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


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with ``dataclass`` or derived from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators
    ) or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def _is_public_property(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and any(isinstance(d, ast.Name) and d.id == "property" for d in stmt.decorator_list)
    )


def _record_fields(tree: ast.Module) -> dict[str, list[str]]:
    """Field and public property names of each top-level record class."""
    return {
        node.name: [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        + [stmt.name for stmt in node.body if _is_public_property(stmt)]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_record(node)
    }


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as ``x.name`` in tree, outside ``__post_init__`` bodies."""
    skip = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for inner in ast.walk(node)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skip
    }


def unread_fields(allowed=ALLOWED_UNREAD_FIELDS) -> list[str]:
    """``module.Record.field`` of every record field, outside the ``allowed``
    records, that no module of the package reads as an attribute."""
    trees = _package_trees()
    reads = set().union(*map(_attribute_reads, trees.values()))
    return [
        f"{module}.{record}.{field}"
        for module, tree in trees.items()
        for record, fields in _record_fields(tree).items()
        if record not in allowed
        for field in fields
        if field not in reads
    ]


def test_every_record_field_is_read_by_the_package():
    assert unread_fields() == []


def test_field_allowlist_is_not_stale():
    # each allowed record still exists and still has a field no module reads
    flagged = {entry.split(".")[1] for entry in unread_fields(allowed={})}
    assert set(ALLOWED_UNREAD_FIELDS) <= flagged


def test_guard_flags_an_unread_field():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    used: int\n"
        "    checked: int\n"
        "    def __post_init__(self):\n"
        "        assert self.checked > 0\n"
        "\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "\n"
        "class Plain:\n"
        "    ignored: int\n"
        "\n"
        "print(Rec(1, 2).used)\n"
    )
    assert _record_fields(tree) == {"Rec": ["used", "checked"], "Pair": ["left"]}
    assert {"used", "checked", "left"} & _attribute_reads(tree) == {"used"}


def test_guard_flags_an_unread_property():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    items: tuple\n"
        "    @property\n"
        "    def count(self):\n"
        "        return len(self.items)\n"
        "    @property\n"
        "    def _hidden(self):\n"
        "        return 0\n"
        "    def method(self):\n"
        "        return 0\n"
        "\n"
        "print(Rec(()).items)\n"
    )
    assert _record_fields(tree) == {"Rec": ["items", "count"]}
    assert "count" not in _attribute_reads(tree)


def _optional_parameters(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; the position is
    None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _calls(node: ast.AST, module: str, name: str) -> bool:
    """Whether node is a call of ``name`` (bare) or ``module.name``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id == module
    )


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call sets the parameter: by keyword, through ``**kwargs`` or
    ``*args``, or with at least position + 1 positional arguments."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args
    )


def unpassed_parameters(
    trees: dict[str, ast.Module], allowed=ALLOWED_UNPASSED
) -> list[str]:
    """``module.function(parameter)`` of every optional parameter of a public
    top-level function, outside ``allowed``, that no call in trees passes."""
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    unpassed = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree).items():
            if not isinstance(node, ast.FunctionDef) or name in allowed:
                continue
            callers = [call for call in nodes if _calls(call, module, name)]
            for parameter, position in _optional_parameters(node):
                if not any(_passes(call, parameter, position) for call in callers):
                    unpassed.append(f"{module}.{name}({parameter})")
    return unpassed



def test_every_optional_parameter_is_passed_by_the_package():
    assert unpassed_parameters(_package_trees()) == []


def test_parameter_allowlist_is_not_stale():
    flagged = {
        entry.split(".")[1].split("(")[0]
        for entry in unpassed_parameters(_package_trees(), allowed={})
    }
    assert set(ALLOWED_UNPASSED) <= flagged


def test_guard_flags_an_unpassed_parameter():
    mod = ast.parse(
        "def f(a, b=1, *, c=2, d):\n"
        "    return f(a, d=0)\n"
        "\n"
        "def g(x=0):\n"
        "    return x\n"
        "\n"
        "def h(y=0):\n"
        "    return y\n"
        "\n"
        "def _private(z=0):\n"
        "    return z\n"
    )
    other = ast.parse(
        "from . import mod\n"
        "mod.f(1, 2, d=3)\n"
        "mod.g(*values)\n"
        "mod.h(**options)\n"
        "other.f(1, c=4)\n"  # another module's f passes nothing to mod.f
    )
    assert _optional_parameters(mod.body[0]) == [("b", 1), ("c", None)]
    assert unpassed_parameters({"mod": mod, "other": other}, allowed={}) == ["mod.f(c)"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(trees: dict[str, ast.Module]) -> list[str]:
    """``module: other._name`` for each read of another package module's
    private name, as ``other._name`` or ``from .other import _name``."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in trees
                and node.value.id != module
                and _is_private(node.attr)
            ):
                found.append(f"{module}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    f"{module}: {node.module}.{alias.name}"
                    for alias in node.names
                    if _is_private(alias.name)
                ]
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads(_package_trees()) == []


def test_guard_flags_a_private_read():
    mod = ast.parse("def _own():\n    return _own()\n\nmod._own()\n")
    other = ast.parse(
        "from . import mod\n"
        "from .mod import _helper, public\n"
        "mod._own()\n"
        "mod.public()\n"
        "np._private()\n"  # not a package module
        "mod.__doc__\n"
    )
    assert private_reads({"mod": mod, "other": other}) == [
        "other: mod._helper",
        "other: mod._own",
    ]
