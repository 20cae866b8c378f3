"""The README's CLI walkthrough, run on ``fixtures/``.

Each ``$ entkit …`` example runs in process from the repository root, with
its ``/tmp/`` paths moved into a temporary directory, after the examples
before it (a later example reads what an earlier one wrote). Its standard
output must equal the lines the README shows, with runs of whitespace
normalised, because the README shows tabs as spaces; where the README
elides the rest with ``...``, only the lines before it are compared.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from entkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


def walkthrough() -> list[tuple[str, list[str]]]:
    """Each ``$ entkit`` command of the README's ``sh`` blocks, its ``\\``
    continuations joined, with the output lines shown under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ entkit "):
                command = line
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                examples.append((command[len("$ entkit "):], []))
            elif examples and line.strip():
                examples[-1][1].append(line)
    return examples


EXAMPLES = walkthrough()


def normalised(lines) -> list[str]:
    return [" ".join(line.split()) for line in lines]


def run_example(command: str, tmp: Path) -> str:
    argv = [a.replace("/tmp/", f"{tmp}/") for a in shlex.split(command)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0, command
    return stdout.getvalue()


def test_the_walkthrough_has_every_command():
    assert [shlex.split(c)[0] for c, _ in EXAMPLES] == [
        "align", "eval-lama", "filter-uhn", "link", "resolve",
    ]


@pytest.mark.parametrize("n", range(len(EXAMPLES)),
                         ids=[shlex.split(c)[0] for c, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(n, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for command, _ in EXAMPLES[:n]:
        run_example(command, tmp_path)
    command, shown = EXAMPLES[n]
    got = normalised(run_example(command, tmp_path).splitlines())
    shown = normalised(shown)
    if "..." in shown:
        shown = shown[: shown.index("...")]
        got = got[: len(shown)]
    assert got == shown
