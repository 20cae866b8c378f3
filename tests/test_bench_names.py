"""The benchmark child looks entkit functions up by name; each must exist,
and its hooks must read the arguments the library passes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entkit
from conftest import bench_module, make_world


@pytest.fixture(scope="module")
def child():
    return bench_module("child")


def test_every_loader_resolves(child):
    for owner, name in child.LOADERS:
        assert callable(getattr(importlib.import_module(f"entkit.{owner}"), name, None)), \
            f"entkit.{owner}.{name}"


def test_every_traced_method_resolves(child):
    for owner, cls_name, methods in child.METHODS:
        cls = getattr(importlib.import_module(f"entkit.{owner}"), cls_name)
        for name in methods:
            assert callable(getattr(cls, name, None)), f"entkit.{owner}.{cls_name}.{name}"


def test_counted_entity_row_lookup_resolves():
    assert callable(importlib.import_module("entkit.scorer")._ent_row)


@pytest.mark.parametrize("workload", ["lama", "link", "ingest"])
def test_traced_child_runs_every_command(child, tmp_path, workload):
    # A hook that reads an argument position the library no longer fills
    # fails the traced child; the benchmark's traced run would fail too.
    world = make_world(tmp_path / "world", workload, 7)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(entkit.__file__).resolve().parents[1])}
    commands = json.loads((world / "world.json").read_text(encoding="utf-8"))["commands"]
    for cmd in commands:
        (out / cmd["dir"]).mkdir(parents=True, exist_ok=True)
        for src, dst in cmd.get("copy", {}).items():
            shutil.copyfile(world / src, out / dst)
    for i, cmd in enumerate(commands):
        info = tmp_path / f"{i}.info.json"
        argv = [a.replace("{W}", str(world)).replace("{O}", str(out)) for a in cmd["argv"]]
        proc = subprocess.run(
            [sys.executable, child.__file__, str(info), "1", f"0:{i}:{cmd['name']}",
             "--", *argv], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, f"{cmd['name']}: {proc.stderr}"
        counters = json.loads(info.read_text(encoding="utf-8"))["counters"]
        if cmd["kind"] == "eval_lama":
            # One row per question ranked.
            assert counters["scorer.score_answers.rows"] == cmd["items"]
