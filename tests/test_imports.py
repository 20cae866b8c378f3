"""Every name an entkit module imports is used where it is imported, and
every module-level class and constant is used somewhere in entkit.

No linter runs on this repository, so a deletion can leave an import or a
definition behind. An import at module level must be used somewhere in the
module; one inside a function, somewhere in that function. A class or an
assigned name at module level must be read somewhere in ``src/entkit``
outside its own definition: in its module, or in another that imports it
from there or reads it as an attribute of that module. Names in string
annotations count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "entkit"
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def imported_names(scope: ast.AST) -> list[tuple[str, int]]:
    """The names bound by the imports of ``scope``'s own body (not of the
    functions nested in it), with their line numbers."""
    out = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` loads, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    names |= used_names(ast.parse(part.value, mode="eval"))
                except SyntaxError:  # a string that is not an expression
                    pass
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = []
    for scope in ast.walk(tree):
        if isinstance(scope, _SCOPES):
            used = used_names(scope)
            unused += [f"{path.name}:{line}: {name}"
                       for name, line in imported_names(scope) if name not in used]
    assert not unused, unused


def test_the_check_sees_string_annotations_and_scopes():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from m import Space, Unused\n"
        "def f(x: 'list[Space]'):\n"
        "    import os\n"
        "def g():\n"
        "    return os\n"
    )
    inner = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert {n for n, _ in imported_names(tree)} == {"TYPE_CHECKING", "Space", "Unused"}
    assert {"TYPE_CHECKING", "Space"} <= used_names(tree)
    assert "Unused" not in used_names(tree)
    assert [n for n, _ in imported_names(inner[0])] == ["os"]
    assert "os" not in used_names(inner[0])


def module_globals(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The classes and assigned names at the top level of ``tree``, each
    with the statement that defines it."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def unread_globals(trees: dict[str, ast.Module], exempt=frozenset()) -> list[str]:
    """``module:line: name`` of each module-level class or assigned name of
    ``trees`` (keyed by module name) that no other statement of its module
    reads and no other module imports from it or reads as its attribute."""
    elsewhere: dict[str, set[str]] = {module: set() for module in trees}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                elsewhere[node.module] |= {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in trees):
                elsewhere[node.value.id].add(node.attr)
    out = []
    for module, tree in trees.items():
        for name, stmt in module_globals(tree):
            if name in exempt or name in elsewhere[module]:
                continue
            if not any(name in used_names(other) for other in tree.body if other is not stmt):
                out.append(f"{module}:{stmt.lineno}: {name}")
    return out


def test_every_module_class_and_constant_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    unread = unread_globals(trees, {"__version__"})
    assert not unread, unread


def test_the_global_check_sees_modules_and_own_definitions():
    trees = {
        "a": ast.parse(
            "LIMIT = 3\n"
            "KIND = 'x'\n"
            "class Box:\n"
            "    def make(self) -> 'Box':\n"
            "        return Box()\n"
            "class Used:\n"
            "    pass\n"
            "def f(n: 'Used'):\n"
            "    return n < LIMIT\n"
        ),
        "b": ast.parse("from . import a\nfrom .a import f\nf(a.KIND)\n"),
    }
    assert unread_globals(trees) == ["a:3: Box"]
    assert unread_globals(trees, {"Box"}) == []
