"""Output checks for each benchmark command against its world's expectation.

Most outputs are compared byte for byte with the files the world generator
wrote under ``expected/``. Two have no closed form at the byte level:

- ``align`` prints a least-squares residual and writes a fitted matrix whose
  last bits depend on the solver, so the check reads the numbers: the shared
  count must be exact, the residual tiny and the fitted map equal to the
  planted one within 1e-9.
- ``link --train`` learns its own parameters, so the check is structural:
  finite losses that never increase, one per epoch plus the final one, no
  unreachable golds, and predictions that do not overlap and name only
  candidates of their span's surface.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_difference(got: bytes, want: bytes) -> str:
    g, w = got.decode("utf-8", "replace").splitlines(), want.decode().splitlines()
    for i, (a, b) in enumerate(zip(g, w), start=1):
        if a != b:
            return f"line {i}: got {a!r}, want {b!r}"
    return f"got {len(g)} lines, want {len(w)}"


def check_command(cmd: dict, world: Path, out: Path) -> list[str]:
    """Return the problems found in one command's outputs (empty if none)."""
    problems = []
    for rel, want in cmd.get("expect", {}).items():
        path = out / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        got, expected = path.read_bytes(), (world / "expected" / want).read_bytes()
        if got != expected:
            problems.append(f"{rel}: {first_difference(got, expected)}")
    if "align_check" in cmd:
        problems += check_align(cmd["align_check"], out, f"{cmd['dir']}/stdout")
    if "train_check" in cmd:
        problems += check_train(cmd["train_check"], world, out)
    return problems


def check_align(spec: dict, out: Path, stdout: str) -> list[str]:
    fields = dict(line.split("\t", 1) for line in (out / stdout).read_text().splitlines())
    problems = []
    if fields.get("shared_count") != str(spec["shared_count"]):
        problems.append(f"shared_count {fields.get('shared_count')} != {spec['shared_count']}")
    try:
        residual = float(fields.get("residual", "nan"))
    except ValueError:
        residual = math.nan
    if not residual <= 1e-9:
        problems.append(f"residual {fields.get('residual')} is not below 1e-9")
    if fields.get("rank_deficient") != "false":
        problems.append("rank_deficient is not false")
    lines = (out / spec["out"]).read_text().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[3] != str(spec["shared_count"]):
        problems.append(f"alignment header {header} lacks the shared count")
        return problems
    got = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    dim = len(spec["perm"])
    want = np.zeros((dim, dim))
    want[np.arange(dim), spec["perm"]] = 2.0 * np.asarray(spec["signs"])
    if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=1e-9):
        problems.append("fitted alignment differs from the planted map")
    return problems


def check_train(spec: dict, world: Path, out: Path) -> list[str]:
    problems = []
    d = out / spec["dir"]
    lines = (d / "losses.tsv").read_text().splitlines()
    if not lines or lines[0] != "epoch\tloss":
        return ["losses.tsv: bad header"]
    losses = [float(line.split("\t")[1]) for line in lines[1:] if not line.startswith("#")]
    if len(losses) != spec["epochs"] + 1:
        problems.append(f"losses.tsv: {len(losses)} losses for {spec['epochs']} epochs")
    if not all(math.isfinite(x) for x in losses):
        problems.append("losses.tsv: non-finite loss")
    if any(b > a for a, b in zip(losses, losses[1:])):
        problems.append("losses.tsv: loss increased")
    if lines[-1] != "# dropped_unreachable_golds\t0":
        problems.append(f"losses.tsv: {lines[-1]!r}")

    table: dict[str, set[str]] = {}
    for row in (world / "table.tsv").read_text(encoding="utf-8").splitlines():
        surface, entity, _ = row.split("\t")
        table.setdefault(surface, set()).add(entity)
    docs = {}
    for row in (world / "docs.jsonl").read_text(encoding="utf-8").splitlines():
        doc = json.loads(row)
        docs[doc["doc_id"]] = doc["tokens"]
    seen = set()
    for row in (d / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        pred = json.loads(row)
        tokens = docs.get(pred["doc_id"])
        if tokens is None:
            problems.append(f"predictions: unknown document {pred['doc_id']!r}")
            continue
        seen.add(pred["doc_id"])
        spans = sorted((p["start"], p["end"], p["entity"]) for p in pred["predictions"])
        for (s, e, ent) in spans:
            if ent not in table.get(" ".join(tokens[s:e]), ()):
                problems.append(f"predictions: {ent!r} is not a candidate of [{s}, {e})")
        for (_, e1, _), (s2, _, _) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append(f"predictions: overlapping spans in {pred['doc_id']!r}")
    if seen != set(docs):
        problems.append("predictions: documents missing")
    return problems
