"""Tests of the benchmark itself, kept apart from entkit's own test suite.

    python3 -m pytest -q bench/tests/check_bench.py

Run from the repository root. The file name does not match ``test_*.py``,
so a plain ``pytest`` run of the repository does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import oracle  # noqa: E402
import run  # noqa: E402
import world  # noqa: E402


def digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "world.json"
    }


@lru_cache(maxsize=None)
def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", world.WORKLOADS)
def test_same_seed_gives_the_same_world(tmp_path, workload):
    first = world.make_world(tmp_path / "a", workload, 5, "tiny")
    again = world.make_world(tmp_path / "b", workload, 5, "tiny")
    other = world.make_world(tmp_path / "c", workload, 6, "tiny")
    assert first == again
    assert digests(tmp_path / "a") == digests(tmp_path / "b")
    assert digests(tmp_path / "a") != digests(tmp_path / "c")
    assert first["properties"] != other["properties"]


def test_oracle_rejects_a_corrupted_report_line(tmp_path):
    w, out = tmp_path / "world", tmp_path / "out"
    cmd = world.make_world(w, "lama", 5, "tiny")["commands"][0]
    for rel, want in cmd["expect"].items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(w / "expected" / want, out / rel)
    assert oracle.check_command(cmd, w, out) == []

    report = out / "concat" / "report.tsv"
    lines = report.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[2] = "0.000000" if fields[2] != "0.000000" else "1.000000"
    lines[1] = "\t".join(fields)
    report.write_text("\n".join(lines) + "\n")
    problems = oracle.check_command(cmd, w, out)
    assert len(problems) == 1 and "line 2" in problems[0]


def test_a_command_failing_at_argument_parsing_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    w, out = tmp_path / "world", tmp_path / "out"
    manifest = world.make_world(w, "lama", 5, "tiny")
    first = manifest["commands"][0]
    manifest["commands"] = [dict(first, argv=first["argv"] + ["--no-such-option"])]
    records = run.run_pass(manifest, w, out, 0, False, run.child_env(),
                           time.perf_counter() + 60)
    run.check_pass(records, w, out, None)
    rec = records[0]
    assert rec["rc"] != 0 and rec["problems"]
    assert rec["info"]["t_last_load_end"] is None
    assert rec["rss_mb"] == rec["info"]["peak_rss_mb"] > 0
    assert run.pass_metrics(records)["setup_s"] == pytest.approx(rec["wall"])


@pytest.mark.parametrize("workload", world.WORKLOADS)
def test_tiny_run_has_no_errors(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert "# metric error_rate fraction value=0 failed=0" in proc.stdout
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        if trace:
            assert "NOT ACCOUNTED" not in proc.stdout


def test_every_per_layer_metric_moves_on_some_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seen: set[str] = set()
    for workload in world.WORKLOADS:
        proc = run_bench(workload, 1)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        seen |= {name for name, m in metrics.items() if m["value"] != 0}
    # The fixture transport never fails, so endpoint errors stay at zero.
    expected_zero = {"wikidata_client.endpoint_errors"}
    assert {m["name"] for m in spec["per_layer"]} - seen == expected_zero


def test_refuses_to_run_without_entkit_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("lama", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
