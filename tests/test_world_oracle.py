"""Every command of the benchmark's tiny worlds against each world's oracle.

``bench/world.py`` writes a seeded world per workload with the expected
output of each command, computed without entkit, and ``bench/oracle.py``
checks a command's outputs against it. Here each command runs in process
through ``entkit.cli.main``, after the files it resumes from are copied as
the benchmark does, with its stdout written to its ``stdout`` file, and the
oracle must find no problem, on three workloads and several seeds.
"""

import pytest

from conftest import bench_module, make_world, run_world


# CI's benchmark smoke runs check seeds 7 and 8 through the benchmark itself.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("workload", ["lama", "link", "ingest"])
def test_every_command_meets_the_world_oracle(tmp_path, workload, seed):
    world = make_world(tmp_path / "world", workload, seed)
    out = tmp_path / "out"
    for cmd, code in run_world(world, out):
        assert code == 0, cmd["name"]
        assert bench_module("oracle").check_command(cmd, world, out) == [], cmd["name"]
