"""The entkit benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {lama,link,ingest,all} --seed N \\
        --seconds S --trace {0,1} [--scale tiny]

Run from the root of an entkit checkout. The benchmark writes the seeded
world of the workload (``bench/world.py``) under ``.bench_work/``, which it
deletes at the end, then runs
the workload's fixed sequence of ``entkit`` commands again and again until
``--seconds`` is used up. It is a closed loop with one client: every command
is its own child process (``bench/child.py``), started only after the
previous one ended. Children see ``PYTHONPATH=src`` and one BLAS thread.

After each pass every output is checked against the world's oracle
(``bench/oracle.py``) and hashed; a later pass must reproduce the first
pass's bytes. A command that exits non-zero, fails its check or changes its
bytes counts as failed.

With ``--trace 0`` the passes are untraced and the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json
(medians over passes). With ``--trace 1`` untraced and traced passes
alternate; the JSON object holds the per-layer metrics of the traced passes
(``bench/layers.py``) and the tracing overhead. Lines before it, starting
with ``#``, give every command, output hash and metric with its median,
highest supported percentile and sample count.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout has no entkit sources or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import world as world_mod  # noqa: E402

RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s
BLAS_THREADS = "1"

# Workload-level metrics printed in the summary; the subset named in
# BENCHMARK.json's end_to_end list goes into the final JSON line.
SUMMARY_METRICS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "align_s": "s",
    "eval_questions_per_s": "questions/s", "filter_questions_per_s": "questions/s",
    "link_spans_per_s": "spans/s",
    "train_examples_per_s": "examples/s", "resolve_surfaces_per_s": "surfaces/s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv, env, stdout, stderr, deadline):
    """Start one child, wait for it, and return (exit code, rusage, t0, t1)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env)
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, t0, t1


def substitute(arg: str, world: Path, out: Path) -> str:
    return arg.replace("{W}", str(world)).replace("{O}", str(out))


def run_pass(manifest, world: Path, out: Path, rep: int, traced: bool, env, deadline):
    """Run the workload's command sequence once; return per-command records."""
    if out.exists():
        shutil.rmtree(out)
    for cmd in manifest["commands"]:
        (out / cmd["dir"]).mkdir(parents=True, exist_ok=True)
        for src, dst in cmd.get("copy", {}).items():
            shutil.copyfile(world / src, out / dst)
    records = []
    for i, cmd in enumerate(manifest["commands"]):
        d = out / cmd["dir"]
        info_path = out / f"{cmd['dir']}.info.json"
        argv = [sys.executable, str(HERE / "child.py"), str(info_path),
                "1" if traced else "0", f"{rep}:{i}:{cmd['name']}", "--"]
        argv += [substitute(a, world, out) for a in cmd["argv"]]
        with open(d / "stdout", "wb") as so, open(out / f"{cmd['dir']}.stderr", "wb") as se:
            rc, usage, t0, t1 = run_child(argv, env, so, se, deadline)
        info = json.loads(info_path.read_text()) if info_path.exists() else {}
        # The child's own peak since exec; rusage only when the child died
        # before writing it, as ru_maxrss also counts this process's memory.
        rss_mb = info.get("peak_rss_mb") or usage.ru_maxrss / 1024.0
        records.append(dict(cmd=cmd, rc=rc, t0=t0, t1=t1, wall=t1 - t0,
                            rss_mb=rss_mb, info=info, traced=traced))
    return records


def check_pass(records, world: Path, out: Path, reference: dict | None):
    """Oracle-check and hash every command's outputs; mark failures."""
    hashes = {}
    for rec in records:
        cmd = rec["cmd"]
        try:
            problems = oracle.check_command(cmd, world, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if rec["rc"] != 0:
            err = (out / f"{cmd['dir']}.stderr").read_text(errors="replace").strip()
            problems.insert(0, f"exit code {rec['rc']}: {err[-300:]}")
        d = out / cmd["dir"]
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            rel = str(path.relative_to(out))
            hashes[rel] = oracle.sha256(path)
            if reference is not None and reference.get(rel) != hashes[rel]:
                problems.append(f"{rel}: bytes differ from the first pass")
        rec["problems"] = problems
    return hashes


def pass_metrics(records) -> dict:
    """Workload-level metrics of one pass."""
    m = {
        "wall_s": records[-1]["t1"] - records[0]["t0"],
        # A command that ends before any loader ran counts its whole wall time.
        "setup_s": sum((r["info"].get("t_last_load_end") or r["t1"]) - r["t0"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    totals: dict[str, list[float]] = {}
    for r in records:
        name, items = r["cmd"]["metric"], r["cmd"]["items"]
        acc = totals.setdefault(name, [0.0, 0.0])
        acc[0] += items or 0
        acc[1] += r["wall"]
    for name, (items, wall) in totals.items():
        m[name] = wall if name == "align_s" else items / wall
    return m


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "pct": None, "pct_value": None}
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            k = (n - 1) * p / 100
            lo, frac = int(k), k - int(k)
            hi = min(lo + 1, n - 1)
            out.update(pct=p, pct_value=values[lo] + (values[hi] - values[lo]) * frac)
            break
    return out


def print_metric(name, unit, s):
    pct = f"p{s['pct']}={s['pct_value']:.6g}" if s["pct"] else "p=none(<20 samples)"
    print(f"# metric {name} {unit} median={s['median']:.6g} {pct} n={s['n']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=world_mod.WORKLOADS + ("all",), required=True,
                    help="'all' runs every workload in turn, each for --seconds")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(world_mod.SIZES), default="full")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "entkit" / "cli.py").is_file():
        print("bench: no src/entkit in the current directory; run from an "
              "entkit checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    rc = 0
    names = world_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        work = root / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        started = time.perf_counter()
        try:
            rc = max(rc, measure(one, spec, work, started, started + RUN_LIMIT_S))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only when no other run is using it
    return rc


def measure(args, spec, work: Path, started: float, deadline: float) -> int:
    world = work / "world"
    env = child_env()
    # A separate process, so the generator's memory stays out of this one.
    subprocess.run([sys.executable, str(HERE / "world.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--scale", args.scale, "--out", str(world)],
                   stdout=subprocess.DEVNULL, check=True)
    manifest = json.loads((world / "world.json").read_text())
    # Compile entkit's bytecode once so no pass pays for it.
    subprocess.run([sys.executable, "-c", "import entkit.cli"], env=env, check=True)
    print(f"# workload {args.workload} seed={args.seed} scale={args.scale} "
          f"blas_threads={BLAS_THREADS} world_setup_s={time.perf_counter() - started:.3f}")
    for key, value in sorted(manifest["properties"].items()):
        print(f"# property {key} {json.dumps(value, sort_keys=True)}")

    measured_from = time.perf_counter()
    passes, reference, traced_layers = [], None, []
    while True:
        rep = len(passes)
        traced = bool(args.trace) and rep % 2 == 1
        records = run_pass(manifest, world, work / "out", rep, traced, env, deadline)
        hashes = check_pass(records, world, work / "out", reference)
        if traced:
            totals, report = layers.pass_layers(records)
            traced_layers.append(totals)
            for line in report:
                print(f"# trace pass={rep} {line}")
        if reference is None:
            reference = hashes
            for rel, digest in sorted(hashes.items()):
                print(f"# sha256 {digest} {rel}")
        for r in records:
            status = "ok" if not r["problems"] else "FAILED " + "; ".join(r["problems"])
            setup = r["info"].get("t_last_load_end")
            setup = f"{setup - r['t0']:.4f}" if setup else "n/a"
            print(f"# command pass={rep} traced={int(traced)} {r['cmd']['name']} "
                  f"rc={r['rc']} wall_s={r['wall']:.4f} setup_s={setup} "
                  f"rss_mb={r['rss_mb']:.1f} {status}")
        passes.append(records)
        elapsed = time.perf_counter() - measured_from
        per_pass = elapsed / len(passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and (elapsed + per_pass > args.seconds
                       or time.perf_counter() + per_pass > deadline - 5):
            break

    all_records = [r for p in passes for r in p]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r["problems"])
    plain = [p for p in passes if not p[0]["traced"]]
    per_pass = [pass_metrics(p) for p in plain]
    summary = {}
    for name, unit in SUMMARY_METRICS.items():
        values = [p[name] for p in per_pass if name in p]
        if values:
            summary[name] = summarize(values)
            print_metric(name, unit, summary[name])
    print(f"# metric error_rate fraction value={failed / attempted:.6g} "
          f"failed={failed} attempted={attempted}")

    correct = failed == 0
    if args.trace:
        traced = [p for p in passes if p[0]["traced"]]
        layer, report = layers.aggregate(traced_layers)
        for line in report:
            print("# trace " + line)
        layer["trace.overhead_s"] = (
            statistics.median(pass_metrics(p)["wall_s"] for p in traced)
            - summary["wall_s"]["median"])
        wanted = spec["per_layer"]
        values = layer
    else:
        wanted = spec["end_to_end"]
        values = {name: s["median"] for name, s in summary.items()}
    metrics = {}
    for m in wanted:
        # A layer function a workload never calls has no spans: zero.
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            print(f"bench: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
