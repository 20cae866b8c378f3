"""Metamorphic invariants of the CLI on small generated worlds: the output
for one document or one relation does not depend on the other documents or
relation files of the run, on the order of the documents, or on the name of
the relation."""

import contextlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_world
from entkit import entity_linking
from entkit.cli import main


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
    # The baseline ran in one block; blocks of 5 spans split this run.
    block = mock.patch.object(entity_linking, "SPAN_BLOCK", 5)
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
    with tempfile.TemporaryDirectory() as tmp, block:
        got_predictions, got_rows = link_by_doc(world, lines, Path(tmp) / "run")
    for doc_id in kept:
        assert got_predictions[doc_id] == predictions[doc_id], doc_id
        assert got_rows[doc_id] == rows[doc_id], doc_id


@pytest.mark.parametrize("mode", [
    ["--eval"],
    # A low null-entity bias leaves some spans decoded after training.
    ["--train", "--epochs", "5", "--eps-bias=-20"],
])
def test_block_size_changes_no_output(ingest_world, tmp_path, monkeypatch, mode):
    world, docs, _ = ingest_world
    blocks = []
    inputs = entity_linking._block_inputs

    def counted(*args):
        blocks[-1] += 1
        return inputs(*args)

    monkeypatch.setattr(entity_linking, "_block_inputs", counted)
    outputs = []
    for size in (1, 3, 12, 10**9):
        monkeypatch.setattr(entity_linking, "SPAN_BLOCK", size)
        blocks.append(0)
        out = tmp_path / str(size)
        run_quiet([
            "link", "--docs", world / "docs.jsonl", "--table", world / "table.tsv",
            "--wp-space", world / "wp.txt", "--ent-space", world / "wiki.txt",
            "--align", world / "align.txt", *mode, "--out-dir", out,
        ])
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert all(output == outputs[0] for output in outputs)
    assert sorted(outputs[0]) == sorted(
        ["iterations.tsv", "predictions.jsonl", "report.tsv"]
        + (["losses.tsv"] if "--train" in mode else []))
    # Blocks of one document each (every document here has more than 3
    # spans to score), of a few documents, and of all: training takes one
    # pass, then each round one.
    training = "--train" in mode
    rounds = len(outputs[0]["iterations.tsv"].splitlines()) - 1
    assert blocks[0] == blocks[1] == rounds + training * len(docs)
    assert blocks[1] > blocks[2] > blocks[3] == 3 + training


def test_training_does_not_depend_on_document_order(ingest_world, tmp_path):
    world, docs, _ = ingest_world
    outputs = []
    for name, lines in (("forward", docs), ("reversed", docs[::-1])):
        out = tmp_path / name
        out.mkdir()
        (out / "docs.jsonl").write_text("".join(d + "\n" for d in lines), encoding="utf-8")
        run_quiet([
            "link", "--docs", out / "docs.jsonl", "--table", world / "table.tsv",
            "--wp-space", world / "wp.txt", "--ent-space", world / "wiki.txt",
            "--align", world / "align.txt", "--train", "--epochs", "30",
            # A low null-entity bias leaves some spans decoded after training.
            "--eps-bias=-20", "--out-dir", out / "link",
        ])
        outputs.append((
            (out / "link" / "losses.tsv").read_bytes(),
            (out / "link" / "predictions.jsonl").read_bytes().splitlines(),
        ))
    (losses, predictions), (reversed_losses, reversed_predictions) = outputs
    assert reversed_losses == losses
    # predictions.jsonl holds one line per document, in document order.
    assert reversed_predictions == predictions[::-1]
    assert any(json.loads(line)["predictions"] for line in predictions)


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


@settings(max_examples=4, deadline=None, derandomize=True)
@given(index=st.integers(0, 3),
       name=st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True))
def test_a_renamed_relation_scores_and_filters_the_same(lama_world, index, name):
    # Every template of the world names its probe noun, so no relation falls
    # back to a default noun chosen by its name.
    world, relations, baseline = lama_world
    old = relations[index]
    if name in relations:
        name = f"{name}_renamed"
    with tempfile.TemporaryDirectory() as tmp:
        renamed = Path(tmp) / "world"
        shutil.copytree(world, renamed)
        (renamed / "data" / f"{old}.jsonl").rename(renamed / "data" / f"{name}.jsonl")
        templates = json.loads((renamed / "templates.json").read_text(encoding="utf-8"))
        for t in templates:
            assert "name_noun" in t
            if t["relation"] == old:
                t["relation"] = name
        (renamed / "templates.json").write_text(json.dumps(templates), encoding="utf-8")
        kept = [name if rel == old else rel for rel in relations]
        got = lama_by_relation(renamed, kept, Path(tmp) / "run")
    report, stats, stages = got[name]
    old_report, old_stats, old_stages = baseline[old]
    assert [row.split("\t")[1:] for row in report] == [
        row.split("\t")[1:] for row in old_report
    ]
    assert [row.split("\t")[1:] for row in stats] == [
        row.split("\t")[1:] for row in old_stats
    ]
    assert stages == old_stages
