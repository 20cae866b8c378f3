"""Metamorphic invariants of the CLI on small generated worlds: the output
for one document or one relation does not depend on the other documents or
relation files of the run."""

import contextlib
import importlib.util
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit.cli import main

_WORLD_PY = Path(__file__).resolve().parents[1] / "bench" / "world.py"


def make_world(root: Path, workload: str, seed: int) -> Path:
    """Write the tiny ``workload`` world of ``seed`` under ``root`` with the
    benchmark's world generator."""
    spec = importlib.util.spec_from_file_location("entkit_bench_world", _WORLD_PY)
    world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(world)
    world.make_world(root, workload, seed, "tiny")
    return root


def run_quiet(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv


# ---------------------------------------------------------------- link


def link_by_doc(world: Path, docs: list[str], out: Path) -> tuple[dict, dict]:
    """``link --eval`` over the JSON-lines ``docs``: each document's
    ``predictions.jsonl`` line and ``iterations.tsv`` rows by doc_id."""
    out.mkdir()
    (out / "docs.jsonl").write_text("".join(d + "\n" for d in docs), encoding="utf-8")
    run_quiet([
        "link", "--docs", out / "docs.jsonl", "--table", world / "table.tsv",
        "--wp-space", world / "wp.txt", "--ent-space", world / "wiki.txt",
        "--align", world / "align.txt", "--head", "identity", "--eval",
        "--out-dir", out / "link",
    ])
    predictions = {}
    for line in (out / "link" / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        predictions[json.loads(line)["doc_id"]] = line
    assert list(predictions) == [json.loads(d)["doc_id"] for d in docs]
    rows: dict[str, list[str]] = {}
    for row in (out / "link" / "iterations.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        rows.setdefault(row.split("\t")[0], []).append(row)
    return predictions, rows


@pytest.fixture(scope="module")
def ingest_world(tmp_path_factory):
    world = make_world(tmp_path_factory.mktemp("ingest"), "ingest", 5)
    run_quiet(["align", "--src", world / "wiki.txt", "--tgt", world / "wp.txt",
               "--out", world / "align.txt"])
    docs = (world / "docs.jsonl").read_text(encoding="utf-8").splitlines()
    baseline = link_by_doc(world, docs, tmp_path_factory.mktemp("link") / "all")
    assert any(json.loads(line)["predictions"] for line in baseline[0].values())
    return world, docs, baseline


@st.composite
def document_runs(draw, n_docs: int = 10):
    """Some of the world's documents (by index) and some new ones (as the
    index of a document whose tokens they shuffle and a shuffle seed), in a
    drawn order."""
    kept = draw(st.lists(st.integers(0, n_docs - 1), min_size=1, unique=True))
    added = draw(st.lists(st.tuples(st.integers(0, n_docs - 1), st.integers(0, 99)),
                          max_size=3))
    return draw(st.permutations([("kept", i) for i in kept]
                                + [("added", a) for a in added]))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(run=document_runs())
def test_a_document_links_the_same_beside_any_other_documents(ingest_world, run):
    world, docs, (predictions, rows) = ingest_world
    assert len(docs) == 10
    lines, kept = [], []
    for n, (kind, what) in enumerate(run):
        if kind == "kept":
            lines.append(docs[what])
            kept.append(json.loads(docs[what])["doc_id"])
        else:
            source, seed = what
            tokens = list(json.loads(docs[source])["tokens"])
            random.Random(seed).shuffle(tokens)
            lines.append(json.dumps({"doc_id": f"added-{n}", "tokens": tokens}))
    with tempfile.TemporaryDirectory() as tmp:
        got_predictions, got_rows = link_by_doc(world, lines, Path(tmp) / "run")
    for doc_id in kept:
        assert got_predictions[doc_id] == predictions[doc_id], doc_id
        assert got_rows[doc_id] == rows[doc_id], doc_id


# ---------------------------------------------------------------- lama


def lama_by_relation(world: Path, relations, out: Path) -> dict:
    """The ``eval-lama --mode concat`` row and the ``filter-uhn`` stage files
    and stats rows of each relation, over a data directory that holds only
    ``relations``."""
    data = out / "data"
    data.mkdir(parents=True)
    for rel in relations:
        shutil.copy(world / "data" / f"{rel}.jsonl", data)
    common = ["--data", data, "--templates", world / "templates.json",
              "--wp-space", world / "wp.txt", "--answer-vocab", world / "answers.txt"]
    run_quiet(["eval-lama", *common, "--mode", "concat", "--ent-space", world / "wiki.txt",
               "--align", world / "align.txt", "--resolutions", world / "resolutions.tsv",
               "--k", "3", "--out", out / "report.tsv"])
    run_quiet(["filter-uhn", *common, "--out-dir", out / "uhn"])
    report = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
    stats = (out / "uhn" / "stats.tsv").read_text(encoding="utf-8").splitlines()
    return {
        rel: (
            [row for row in report if row.split("\t")[0] == rel],
            [row for row in stats if row.split("\t")[0] == rel],
            [(out / "uhn" / f"stage{k}" / f"{rel}.jsonl").read_bytes() for k in range(3)],
        )
        for rel in relations
    }


@pytest.fixture(scope="module")
def lama_world(tmp_path_factory):
    world = make_world(tmp_path_factory.mktemp("lama"), "lama", 3)
    relations = sorted(p.stem for p in (world / "data").glob("*.jsonl"))
    baseline = lama_by_relation(world, relations, tmp_path_factory.mktemp("lama_all"))
    return world, relations, baseline


@settings(max_examples=6, deadline=None, derandomize=True)
@given(picks=st.sets(st.integers(0, 3), min_size=1, max_size=3))
def test_a_relation_scores_and_filters_the_same_without_the_others(lama_world, picks):
    world, relations, baseline = lama_world
    assert len(relations) == 4
    kept = [relations[i] for i in sorted(picks)]
    with tempfile.TemporaryDirectory() as tmp:
        got = lama_by_relation(world, kept, Path(tmp))
    for rel in kept:
        assert got[rel] == baseline[rel], rel
        assert len(got[rel][0]) == 1 and len(got[rel][1]) == 3
