"""Every name an entkit module imports is used where it is imported.

No linter runs on this repository, so a deletion can leave an import
behind. An import at module level must be used somewhere in the module; one
inside a function, somewhere in that function. Names in string annotations
count as used.
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
