"""Every function and method of entkit is entered by some command.

No coverage tool runs on this repository, so a deletion can leave behind
code that only the deleted caller reached. Here the README walkthrough, the
tiny benchmark worlds of seeds 1 and 2 and three error paths run in process
under ``sys.setprofile``, and every function and method that ``ast`` finds
in ``src/entkit`` must have been entered. Nested functions count; lambdas
do not. The one exemption is the methods the benchmark's traced run looks
up by name (``bench/child.py`` ``METHODS``): they stay while it does.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import requests

from conftest import bench_module, make_world, run_world
from test_readme import EXAMPLES, ROOT, run_example
from entkit.cli import main

SRC = ROOT / "src" / "entkit"


def defined_functions(tree: ast.AST, prefix: str = "") -> list[tuple[str, int]]:
    """The ``__qualname__`` and first line of every function and method
    defined in ``tree``, those nested in functions included. The first line
    is that of the first decorator, if any, as in ``co_firstlineno``."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            out.append((prefix + node.name, first))
            out += defined_functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            out += defined_functions(node, f"{prefix}{node.name}.")
        else:
            out += defined_functions(node, prefix)
    return out


def entered_functions(run) -> set[tuple[Path, int]]:
    """``(file, first line)`` of every Python function entered while
    ``run()`` runs on this thread."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    files = {f: Path(f).resolve() for f in {c.co_filename for c in codes}}
    return {(files[c.co_filename], c.co_firstlineno) for c in codes}


def never_entered(path: Path, entered, exempt=frozenset()) -> list[str]:
    """``file:line: qualname`` of each function of ``path`` not in
    ``entered`` and not named in ``exempt``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    path = path.resolve()
    return [f"{path.name}:{line}: {name}" for name, line in defined_functions(tree)
            if (path, line) not in entered and name not in exempt]


def answers_429_then_200():
    """A stand-in for ``requests.Session.get``: a 429 that asks for a retry
    after 0 seconds, then a 200 with no bindings."""
    statuses = [429, 200]

    def get(session, url, **kwargs):
        resp = requests.Response()
        resp.status_code = statuses.pop(0)
        resp.url = url
        resp.headers["Retry-After"] = "0"
        resp._content = b'{"results": {"bindings": []}}'
        return resp

    return get


def run_every_command(tmp: Path, monkeypatch):
    """The README walkthrough, the tiny worlds of seeds 1 and 2, and three
    error paths: a bad flag, a space file only the line-by-line parser
    reads, and a live endpoint that answers 429 before 200."""
    monkeypatch.chdir(ROOT)
    (tmp / "readme").mkdir()
    for command, _ in EXAMPLES:
        run_example(command, tmp / "readme")
    for workload in ("lama", "link", "ingest"):
        for seed in (1, 2):
            world = make_world(tmp / f"{workload}{seed}", workload, seed)
            for cmd, code in run_world(world, tmp / f"{workload}{seed}" / "out"):
                assert code == 0, (workload, seed, cmd["name"])

    bad_space = tmp / "bad.txt"
    bad_space.write_text("2 2\na 1 x\nb 1 2\n", encoding="utf-8")
    surfaces = tmp / "surfaces.txt"
    surfaces.write_text("Paris\n", encoding="utf-8")
    monkeypatch.setattr(requests.Session, "get", answers_429_then_200())
    errors = [
        (["align", "--bogus"], 1),
        (["align", "--src", str(bad_space), "--tgt", str(bad_space),
          "--out", str(tmp / "align.tsv")], 2),
        # The address is local: nothing leaves the machine even unfaked.
        (["resolve", "--surfaces", str(surfaces), "--endpoint", "http://127.0.0.1:9/sparql",
          "--rate", "1000", "--out", str(tmp / "resolved.tsv")], 0),
    ]
    for argv, want in errors:
        with contextlib.redirect_stderr(io.StringIO()), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == want, argv


def test_every_entkit_function_is_entered(tmp_path, monkeypatch):
    entered = entered_functions(lambda: run_every_command(tmp_path, monkeypatch))
    exempt = {f"{owner}.py": {f"{cls}.{m}" for m in methods}
              for owner, cls, methods in bench_module("child").METHODS}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        missing += never_entered(path, entered, exempt.get(path.name, frozenset()))
    assert not missing, "never entered:\n" + "\n".join(missing)


def test_the_check_reports_only_what_was_never_entered(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "class Box:\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        return Box()\n"
        "    def used(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "    def unused(self):\n"
        "        return 2\n"
        "def called():\n"
        "    return Box.make().used()\n"
        "def never():\n"
        "    return 3\n",
        encoding="utf-8",
    )
    spec = importlib.util.spec_from_file_location("entkit_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entered = entered_functions(module.called)
    assert never_entered(path, entered) == [
        "synthetic.py:9: Box.unused", "synthetic.py:13: never",
    ]
    assert never_entered(path, entered, {"never"}) == ["synthetic.py:9: Box.unused"]
