"""Every command of the benchmark's tiny worlds against each world's oracle.

``bench/world.py`` writes a seeded world per workload with the expected
output of each command, computed without entkit, and ``bench/oracle.py``
checks a command's outputs against it. Here each command runs in process
through ``entkit.cli.main``, after the files it resumes from are copied as
the benchmark does, with its stdout written to its ``stdout`` file, and the
oracle must find no problem, on three workloads and several seeds.
"""

import contextlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from conftest import make_world
from entkit.cli import main

_ORACLE_PY = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("entkit_bench_oracle", _ORACLE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# CI's benchmark smoke runs check seeds 7 and 8 through the benchmark itself.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("workload", ["lama", "link", "ingest"])
def test_every_command_meets_the_world_oracle(tmp_path, oracle, workload, seed):
    world = make_world(tmp_path / "world", workload, seed)
    commands = json.loads((world / "world.json").read_text(encoding="utf-8"))["commands"]
    out = tmp_path / "out"
    for cmd in commands:
        (out / cmd["dir"]).mkdir(parents=True, exist_ok=True)
        for src, dst in cmd.get("copy", {}).items():
            shutil.copyfile(world / src, out / dst)
    for cmd in commands:
        argv = [a.replace("{W}", str(world)).replace("{O}", str(out)) for a in cmd["argv"]]
        with open(out / cmd["dir"] / "stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = main(argv)
        assert code == 0, cmd["name"]
        assert oracle.check_command(cmd, world, out) == [], cmd["name"]
