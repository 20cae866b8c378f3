"""End-to-end command-line behavior against the shipped toy fixtures."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entkit
from conftest import FIXTURES, make_world
from entkit.cli import main
from entkit.scorer import ReferenceScorer

WIKI = str(FIXTURES / "wiki.txt")
WP = str(FIXTURES / "wordpieces.txt")
LAMA = str(FIXTURES / "lama")
TEMPLATES = str(FIXTURES / "templates.json")
ANSWERS = str(FIXTURES / "answers.txt")
RESOLUTIONS = str(FIXTURES / "resolutions.tsv")
EL_DOCS = str(FIXTURES / "el" / "docs.jsonl")
EL_TABLE = str(FIXTURES / "el" / "table.tsv")
EL_REDIRECTS = str(FIXTURES / "el" / "redirects.tsv")
WD_FIXTURE = str(FIXTURES / "wikidata" / "fixture.json")
WD_DOWN = str(FIXTURES / "wikidata" / "fixture_down.json")
WD_SURFACES = str(FIXTURES / "wikidata" / "surfaces.txt")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fit_alignment_file(tmp_path, capsys) -> str:
    out = str(tmp_path / "align.tsv")
    code, _, _ = run(capsys, "align", "--src", WIKI, "--tgt", WP, "--out", out)
    assert code == 0
    return out


class TestAlign:
    def test_report_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "align.tsv"
        code, stdout, _ = run(
            capsys, "align", "--src", WIKI, "--tgt", WP, "--out", str(out)
        )
        assert code == 0
        assert stdout == (
            "shared_count\t8\nresidual\t0.0\nrank_deficient\tfalse\n"
        )
        assert out.exists()
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "8 8 0.0 8"

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        files = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            run(capsys, "align", "--src", WIKI, "--tgt", WP, "--out", str(out))
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_disjoint_vocabularies_exit_data(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("1 2\nnowhere 1.0 0.0\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "align", "--src", str(src), "--tgt", WP,
            "--out", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "data error" in stderr

    def test_missing_file_exit_data(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "align", "--src", str(tmp_path / "nope.txt"), "--tgt", WP,
            "--out", str(tmp_path / "o.tsv"),
        )
        assert code == 2
        assert "data error" in stderr

    def test_missing_required_flag_exit_usage(self, capsys):
        code, _, stderr = run(capsys, "align", "--src", WIKI, "--tgt", WP)
        assert code == 1
        assert "--out" in stderr

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Large enough that a threaded BLAS splits its products: 2,000
        # shared words of 64 noisy dimensions.
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(2000)]
        x = rng.standard_normal((len(words), 64))
        y = x @ rng.standard_normal((64, 64)) + 0.1 * rng.standard_normal((len(words), 64))
        for name, rows in (("src.txt", x), ("tgt.txt", y)):
            with open(tmp_path / name, "w", encoding="utf-8") as fh:
                fh.write(f"{len(words)} 64\n")
                fh.writelines(
                    w + " " + " ".join(f"{v:.6f}" for v in row) + "\n"
                    for w, row in zip(words, rows)
                )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"align{threads}.tsv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "entkit", "align", "--src", str(tmp_path / "src.txt"),
                 "--tgt", str(tmp_path / "tgt.txt"), "--out", str(out)],
                capture_output=True, env=env, check=True,
            )
            outputs.append((proc.stdout, out.read_bytes()))
        assert outputs[0][0].startswith(b"shared_count\t2000\n")
        assert outputs[0] == outputs[1]


EVAL_BASE = [
    "eval-lama", "--data", LAMA, "--templates", TEMPLATES,
    "--wp-space", WP, "--answer-vocab", ANSWERS,
]


class TestEvalLama:
    @pytest.mark.parametrize("flags, imported", [
        ([], []),
        (["--resolutions", RESOLUTIONS], ["wikidata_client"]),
        (["--ent-space", WIKI, "--align", "{align}", "--mode", "replace"], ["alignment"]),
    ])
    def test_imports_only_what_its_flags_use(self, tmp_path, capsys, flags, imported):
        align = fit_alignment_file(tmp_path, capsys)
        script = (
            "import sys\n"
            "from entkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, [m for m in ('alignment', 'wikidata_client')\n"
            "             if 'entkit.' + m in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(entkit.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, *EVAL_BASE, "--out", str(tmp_path / "r.tsv"),
             *(f.replace("{align}", align) for f in flags)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == f"0 {imported}\n"

    def test_enhanced_inputs_answer_everything(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        code, stdout, _ = run(
            capsys, *EVAL_BASE, "--ent-space", WIKI, "--align", align,
            "--mode", "concat", "--resolutions", RESOLUTIONS,
        )
        assert code == 0
        assert stdout == (
            "relation\tstage\thits@1\tquestions\n"
            "P1001\t0\t1.000000\t1\n"
            "P103\t0\t1.000000\t2\n"
            "P138\t0\t1.000000\t1\n"
            "P176\t0\t1.000000\t2\n"
            "ALL\t0\t1.000000\t6\n"
        )

    def test_ranks_every_relation_in_one_call(self, capsys, monkeypatch):
        # One call pads only the last block of questions, not one per relation.
        from entkit import lama_bench

        calls = []
        rank = lama_bench.rank_answers

        def counting(seqs, *args):
            seqs = list(seqs)
            calls.append(len(seqs))
            return rank(seqs, *args)

        monkeypatch.setattr(lama_bench, "rank_answers", counting)
        code, stdout, _ = run(capsys, *EVAL_BASE, "--mode", "bert")
        assert code == 0
        assert calls == [6]
        assert stdout.splitlines()[-1] == "ALL\t0\t0.500000\t6"

    def test_plain_mode_baseline(self, capsys):
        code, stdout, _ = run(capsys, *EVAL_BASE, "--mode", "bert")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "relation\tstage\thits@1\tquestions"
        assert "P103\t0\t0.500000\t2" in lines
        assert lines[-1] == "ALL\t0\t0.500000\t6"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code, stdout, _ = run(capsys, *EVAL_BASE, "--mode", "bert")
        assert code == 0
        code2, empty, _ = run(
            capsys, *EVAL_BASE, "--mode", "bert", "--out", str(out)
        )
        assert code2 == 0
        assert empty == ""
        assert out.read_text(encoding="utf-8") == stdout

    def test_stage_label_echoed(self, capsys):
        code, stdout, _ = run(capsys, *EVAL_BASE, "--mode", "bert", "--stage", "2")
        assert code == 0
        assert "ALL\t2\t0.500000\t6" in stdout

    def test_threads_do_not_change_output(self, capsys):
        outs = []
        for threads in ("1", "4"):
            code, stdout, _ = run(
                capsys, *EVAL_BASE, "--mode", "bert", "--threads", threads
            )
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]

    def test_enhanced_mode_without_entity_space_exit_usage(self, capsys):
        code, _, stderr = run(capsys, *EVAL_BASE, "--mode", "concat")
        assert code == 1
        assert "--ent-space" in stderr

    def test_entity_space_without_alignment_exit_usage(self, capsys):
        code, _, stderr = run(capsys, *EVAL_BASE, "--ent-space", WIKI)
        assert code == 1
        assert "--align" in stderr

    @pytest.mark.parametrize("flags,text", [
        (["--mode", "concat"], "--mode concat requires --ent-space"),
        (["--ent-space", WIKI], "--ent-space requires --align"),
    ])
    def test_entity_flag_usage_error_comes_before_loading(
        self, tmp_path, capsys, flags, text
    ):
        # The wordpiece space does not exist: the usage error must come first.
        code, _, stderr = run(
            capsys, "eval-lama", "--data", LAMA, "--templates", TEMPLATES,
            "--wp-space", str(tmp_path / "none.txt"), *flags,
        )
        assert_one_line_error(code, stderr, 1, text)

    def test_k_below_one_exit_usage_before_loading(self, tmp_path, capsys):
        # The data directory does not exist: --k must be rejected first.
        code, _, stderr = run(
            capsys, "eval-lama", "--data", str(tmp_path / "none"),
            "--templates", TEMPLATES, "--wp-space", WP, "--k", "0",
        )
        assert_one_line_error(code, stderr, 1, "--k must be at least 1")

    def test_no_questions_exit_data(self, tmp_path, capsys):
        (tmp_path / "P103.jsonl").write_text(
            '{"sub_label": "Jean Marais", "obj_label": "Klingon"}\n',
            encoding="utf-8",
        )
        code, _, stderr = run(
            capsys, "eval-lama", "--data", str(tmp_path), "--templates", TEMPLATES,
            "--wp-space", WP, "--answer-vocab", ANSWERS,
        )
        assert_one_line_error(code, stderr, 2, "no questions to score")

    def test_alignment_source_dimension_mismatch_exit_data(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, *EVAL_BASE, "--ent-space", WIKI,
            "--align", seven_column_alignment(tmp_path), "--mode", "concat",
        )
        assert_one_line_error(code, stderr, 2, "alignment source dimension 7")


def seven_column_alignment(tmp_path) -> str:
    """An 8 x 7 map, whose source dimension does not match the 8-column
    fixture spaces."""
    path = tmp_path / "align7.tsv"
    rows = ["0.0 " * 6 + "0.0"] * 8
    path.write_text("8 7 0.0 8\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def assert_one_line_error(code, stderr, expected_code, text):
    assert code == expected_code
    assert "Traceback" not in stderr
    assert len(stderr.splitlines()) == 1
    assert text in stderr


@pytest.mark.parametrize("command", ["eval-lama", "filter-uhn"])
@pytest.mark.parametrize("field", ["sub_label", "obj_label"])
def test_non_string_label_exit_data(tmp_path, capsys, command, field):
    record = {"sub_label": "Jean Marais", "obj_label": "French"}
    record[field] = 7
    data = tmp_path / "lama"
    data.mkdir()
    (data / "P103.jsonl").write_text(
        '{"sub_label": "Jean Marais", "obj_label": "French"}\n'
        + json.dumps(record) + "\n",
        encoding="utf-8",
    )
    extra = ["--out-dir", str(tmp_path / "uhn")] if command == "filter-uhn" else []
    code, _, stderr = run(
        capsys, command, "--data", str(data), "--templates", TEMPLATES,
        "--wp-space", WP, "--answer-vocab", ANSWERS, *extra,
    )
    assert_one_line_error(code, stderr, 2, "P103.jsonl: line 2:")


@pytest.mark.parametrize("command", ["eval-lama", "filter-uhn"])
@pytest.mark.parametrize("name", ["P1\t2", "P1\n2"], ids=["tab", "newline"])
def test_relation_name_holding_a_tab_or_line_break_exit_data(tmp_path, capsys, command, name):
    # The relation name is a field of report.tsv and stats.tsv.
    data = tmp_path / "lama"
    shutil.copytree(LAMA, data)
    (data / f"{name}.jsonl").write_text(
        '{"sub_label": "Jean Marais", "obj_label": "French"}\n', encoding="utf-8"
    )
    extra = ["--out-dir", str(tmp_path / "uhn")] if command == "filter-uhn" else []
    code, _, stderr = run(
        capsys, command, "--data", str(data), "--templates", TEMPLATES,
        "--wp-space", WP, "--answer-vocab", ANSWERS, *extra,
    )
    assert_one_line_error(
        code, stderr, 2, f"relation file name {name + '.jsonl'!r} holds a tab or line break"
    )


@pytest.mark.parametrize("value", ["0\t1", "0\n1", "0\r1"],
                         ids=["tab", "newline", "return"])
def test_stage_holding_a_tab_or_line_break_exit_usage(tmp_path, capsys, value):
    # The stage is a field of every row of report.tsv.
    out = tmp_path / "report.tsv"
    code, stdout, stderr = run(capsys, *EVAL_BASE, "--stage", value, "--out", str(out))
    assert_one_line_error(code, stderr, 1, "--stage must not hold a tab or line break")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["eval-lama", "filter-uhn"])
def test_subject_holding_the_mask_word_exit_data(tmp_path, capsys, command):
    data = tmp_path / "lama"
    shutil.copytree(LAMA, data)
    with open(data / "P103.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"sub_label": "Jean [MASK]", "obj_label": "French"}\n')
    extra = ["--out-dir", str(tmp_path / "uhn")] if command == "filter-uhn" else []
    code, _, stderr = run(
        capsys, command, "--data", str(data), "--templates", TEMPLATES,
        "--wp-space", WP, "--answer-vocab", ANSWERS, *extra,
    )
    assert_one_line_error(code, stderr, 2, "P103.jsonl: line 3: sub_label holds [MASK]")


STATS_LINES = (
    "relation\tstage\tquestions\n"
    "P1001\t0\t1\nP1001\t1\t0\nP1001\t2\t0\n"
    "P103\t0\t2\nP103\t1\t2\nP103\t2\t1\n"
    "P138\t0\t1\nP138\t1\t0\nP138\t2\t0\n"
    "P176\t0\t2\nP176\t1\t1\nP176\t2\t1\n"
)

FILTER_BASE = [
    "filter-uhn", "--data", LAMA, "--templates", TEMPLATES,
    "--wp-space", WP, "--answer-vocab", ANSWERS,
]


class TestFilterUhn:
    def test_stats_and_datasets(self, tmp_path, capsys):
        out_dir = tmp_path / "uhn"
        code, stdout, _ = run(capsys, *FILTER_BASE, "--out-dir", str(out_dir))
        assert code == 0
        assert stdout == STATS_LINES
        assert (out_dir / "stats.tsv").read_text(encoding="utf-8") == STATS_LINES
        for stage in ("stage0", "stage1", "stage2"):
            names = sorted(p.name for p in (out_dir / stage).iterdir())
            assert names == ["P1001.jsonl", "P103.jsonl", "P138.jsonl",
                             "P176.jsonl"]
        survivors = [
            json.loads(line)["sub_label"]
            for line in (out_dir / "stage2" / "P103.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        assert survivors == ["Daniel Ceccaldi"]

    def test_disabled_probe_keeps_stage_one(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, *FILTER_BASE, "--out-dir", str(tmp_path / "u"), "--top-k", "0"
        )
        assert code == 0
        assert "P103\t2\t2" in stdout.splitlines()

    def test_ranks_every_probe_in_one_call(self, tmp_path, capsys, monkeypatch):
        # Two probe nouns, so one ranking call per noun would make two calls.
        from entkit import lama_bench

        records = json.loads(Path(TEMPLATES).read_text(encoding="utf-8"))
        for record in records:
            if record["relation"] == "P176":
                record["name_noun"] = "city"
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps(records), encoding="utf-8")
        calls = []
        rank = lama_bench.rank_answers

        def counting(seqs, *args):
            seqs = list(seqs)
            calls.append(len(seqs))
            return rank(seqs, *args)

        monkeypatch.setattr(lama_bench, "rank_answers", counting)
        argv = [*FILTER_BASE, "--out-dir", str(tmp_path / "uhn")]
        argv[argv.index(TEMPLATES)] = str(templates)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        # Jean, Marais, Daniel and Ceccaldi (language); Lancia and Delta (city).
        assert calls == [6]

    def test_negative_top_k_exit_usage_before_loading(self, tmp_path, capsys):
        # The data directory does not exist: --top-k must be rejected first.
        code, _, stderr = run(
            capsys, "filter-uhn", "--data", str(tmp_path / "none"),
            "--templates", TEMPLATES, "--wp-space", WP,
            "--out-dir", str(tmp_path / "u"), "--top-k", "-2",
        )
        assert_one_line_error(code, stderr, 1, "--top-k must be at least 0")

    def test_threads_byte_identical(self, tmp_path, capsys):
        texts = []
        for i, threads in enumerate(("1", "3")):
            out_dir = tmp_path / f"u{i}"
            code, _, _ = run(
                capsys, *FILTER_BASE, "--out-dir", str(out_dir),
                "--threads", threads,
            )
            assert code == 0
            texts.append(
                (out_dir / "stats.tsv").read_bytes()
                + (out_dir / "stage2" / "P103.jsonl").read_bytes()
            )
        assert texts[0] == texts[1]


class TestDefaultAnswerVocab:
    """Without ``--answer-vocab``, the answers are the space's wordpieces
    less the bracketed specials and the ``##`` continuations."""

    def test_eval_and_filter_rank_the_plain_wordpieces(self, tmp_path, capsys, monkeypatch):
        from entkit import cli

        derived = []
        load = cli._load_answer_vocab

        def recording(path, wp):
            vocab = load(path, wp)
            derived.append(vocab.symbols)
            return vocab

        monkeypatch.setattr(cli, "_load_answer_vocab", recording)
        lines = Path(WP).read_text(encoding="utf-8").splitlines()[1:]
        dropped = {"[CLS]", "[SEP]", "[MASK]", "[UNK]", "##is"}
        want = [s for s in (line.split(" ", 1)[0] for line in lines) if s not in dropped]
        assert len(want) == 51 and len(lines) == 56
        base = ["--data", LAMA, "--templates", TEMPLATES, "--wp-space", WP]
        code, stdout, _ = run(capsys, "eval-lama", *base, "--out", str(tmp_path / "r.tsv"))
        assert (code, stdout) == (0, "")
        assert (tmp_path / "r.tsv").read_text(encoding="utf-8") == (
            "relation\tstage\thits@1\tquestions\n"
            "P1001\t0\t0.000000\t1\n"
            "P103\t0\t0.000000\t2\n"
            "P138\t0\t1.000000\t1\n"
            "P176\t0\t0.500000\t2\n"
            "ALL\t0\t0.375000\t6\n"
        )
        code, stdout, _ = run(capsys, "filter-uhn", *base, "--out-dir", str(tmp_path / "u"))
        assert code == 0
        # Both P103 subjects keep their questions: no probe part ranks its
        # answer first among the 51, as one does among the five answers.
        assert stdout == (tmp_path / "u" / "stats.tsv").read_text(encoding="utf-8") == (
            STATS_LINES.replace("P103\t2\t1\n", "P103\t2\t2\n")
        )
        assert [list(symbols) for symbols in derived] == [want, want]
        assert not [s for s in derived[0] if s[0] + s[-1] == "[]" or s.startswith("##")]


def link_args(align, out_dir, *extra):
    return [
        "link", "--docs", EL_DOCS, "--table", EL_TABLE,
        "--redirects", EL_REDIRECTS, "--wp-space", WP, "--ent-space", WIKI,
        "--align", align, "--out-dir", str(out_dir), *extra,
    ]


class TestLink:
    def test_eval_decodes_everything_correctly(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        out_dir = tmp_path / "link"
        code, stdout, _ = run(
            capsys,
            *link_args(align, out_dir, "--eval", "--head", "zero",
                       "--eps-bias=-1e9"),
        )
        assert code == 0
        report = (
            "scope\tprecision\trecall\tf1\n"
            "micro\t1.000000\t1.000000\t1.000000\n"
            "macro\t1.000000\t1.000000\t1.000000\n"
        )
        assert stdout == report
        assert (out_dir / "report.tsv").read_text(encoding="utf-8") == report
        assert (out_dir / "iterations.tsv").read_text(encoding="utf-8") == (
            "doc_id\titeration\tselectable\tquota\tdecoded\n"
            "match-report-1\t1\t2\t1\t1\n"
            "match-report-1\t2\t1\t1\t1\n"
            "match-report-2\t1\t1\t1\t1\n"
        )
        preds = [
            json.loads(line)
            for line in (out_dir / "predictions.jsonl")
            .read_text(encoding="utf-8").splitlines()
        ]
        assert preds[0]["doc_id"] == "match-report-1"
        assert preds[0]["predictions"] == [
            {"start": 0, "end": 1, "entity": "ENTITY/Tony_Adams"},
            {"start": 2, "end": 3, "entity": "ENTITY/David_Platt"},
        ]
        assert preds[1]["predictions"] == [
            {"start": 0, "end": 1, "entity": "ENTITY/David_Platt"},
        ]

    def test_single_iteration_same_decoding(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        outputs = []
        for i, iterations in enumerate(("1", "3")):
            out_dir = tmp_path / f"link{i}"
            code, _, _ = run(
                capsys,
                *link_args(align, out_dir, "--eval", "--head", "zero",
                           "--eps-bias=-1e9", "--iterations", iterations),
            )
            assert code == 0
            outputs.append((out_dir / "predictions.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_train_writes_decreasing_losses_and_drop_count(
        self, tmp_path, capsys
    ):
        align = fit_alignment_file(tmp_path, capsys)
        out_dir = tmp_path / "link"
        code, _, _ = run(
            capsys,
            *link_args(align, out_dir, "--train", "--epochs", "10",
                       "--eps-bias=-2.0"),
        )
        assert code == 0
        lines = (out_dir / "losses.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\tloss"
        # The gold for 'Platt' in the first document is unreachable through
        # the candidate table and is dropped from training.
        assert lines[-1] == "# dropped_unreachable_golds\t1"
        losses = [float(line.split("\t")[1]) for line in lines[1:-1]]
        assert len(losses) == 11
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_train_generates_each_document_spans_once(
        self, tmp_path, capsys, monkeypatch
    ):
        import entkit.entity_linking as el

        calls = []
        generate = el.generate_candidates

        def counting(keys, *args):
            keys = list(keys)
            calls.append(keys)
            return generate(keys, *args)

        monkeypatch.setattr(el, "generate_candidates", counting)
        align = fit_alignment_file(tmp_path, capsys)
        code, _, _ = run(capsys, *link_args(align, tmp_path / "link", "--train"))
        assert code == 0
        with open(EL_DOCS, encoding="utf-8") as fh:
            assert calls == [list(el.span_keys(json.loads(line)["tokens"], 7)) for line in fh]

    @pytest.mark.parametrize("mode", ["--eval", "--train"])
    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    def test_no_documents_exit_data(self, tmp_path, capsys, mode, text):
        # Scoring no documents would report a perfect micro F1. The error
        # comes right after the documents are read, before the alignment.
        docs = tmp_path / "docs.jsonl"
        docs.write_text(text, encoding="utf-8")
        args = link_args(str(tmp_path / "unread.tsv"), tmp_path / "o", mode)
        args[args.index(EL_DOCS)] = str(docs)
        code, _, stderr = run(capsys, *args)
        assert_one_line_error(code, stderr, 2, f"{docs}: no documents")

    def test_unknown_table_entity_exit_data(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        table.write_text("Adams\tENTITY/Martian\t0.5\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "link", "--docs", EL_DOCS, "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", align,
            "--eval", "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2
        assert "missing from entity space" in stderr

    def test_missing_entities_message_lists_the_first_five(self, tmp_path, capsys):
        # Only the table's entities are derived, but they are first checked
        # against the whole space, and the message lists the first five.
        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        rows = [f"Adams\tENTITY/Martian_{i}\t0.5" for i in (6, 2, 5, 1, 4, 3)]
        rows.append("Adams\tENTITY/John_Adams\t0.5")
        table.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, "link", "--docs", EL_DOCS, "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", align,
            "--eval", "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "entkit: data error: candidate entities missing from entity space: "
            "['ENTITY/Martian_1', 'ENTITY/Martian_2', 'ENTITY/Martian_3', "
            "'ENTITY/Martian_4', 'ENTITY/Martian_5']\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["--eval", "--train"])
    def test_missing_entity_behind_an_unmatched_surface_exit_data(
        self, tmp_path, capsys, mode
    ):
        # No document holds the surface, so no span reaches the entity; the
        # whole table is still checked against the entity space.
        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        table.write_text(
            Path(EL_TABLE).read_text(encoding="utf-8")
            + "Nowhere\tENTITY/Martian\t0.5\n",
            encoding="utf-8",
        )
        code, stdout, stderr = run(
            capsys, "link", "--docs", EL_DOCS, "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", align,
            mode, "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "entkit: data error: candidate entities missing from entity space: "
            "['ENTITY/Martian']\n"
        )

    def test_malformed_docs_win_over_a_missing_table_entity(self, tmp_path, capsys):
        # The documents are read before the entity space, so their error is
        # the one reported.
        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        table.write_text("Adams\tENTITY/Martian\t0.5\n", encoding="utf-8")
        docs = tmp_path / "docs.jsonl"
        docs.write_text("{not json\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, "link", "--docs", str(docs), "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", align,
            "--eval", "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"entkit: data error: {docs}: line 1: invalid JSON\n"

    def test_malformed_docs_win_over_a_malformed_table(self, tmp_path, capsys):
        # The documents decide which table rows are held, so they are read
        # first and their error is the one reported.
        table = tmp_path / "table.tsv"
        table.write_text("Adams\tENTITY/Tony_Adams\n", encoding="utf-8")
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        code, stdout, stderr = run(
            capsys, "link", "--docs", str(docs), "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", str(tmp_path / "none.tsv"),
            "--eval", "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"entkit: data error: {docs}: line 1: missing doc_id/tokens\n"

    def test_missing_entity_hashing_like_a_space_symbol_exit_data(
        self, tmp_path, capsys, monkeypatch
    ):
        # ENTITY/Martian is not in the space but hashes like ENTITY/John_Adams,
        # which is: the string comparison still finds it missing.
        from entkit import embeddings

        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        table.write_text("Adams\tENTITY/John_Adams\t0.5\nAdams\tENTITY/Martian\t0.5\n",
                         encoding="utf-8")
        monkeypatch.setattr(embeddings, "_hash", lambda item: hash(
            "ENTITY/John_Adams" if item == "ENTITY/Martian" else item))
        code, stdout, stderr = run(
            capsys, "link", "--docs", EL_DOCS, "--table", str(table),
            "--wp-space", WP, "--ent-space", WIKI, "--align", align,
            "--eval", "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == ("entkit: data error: candidate entities missing from "
                          "entity space: ['ENTITY/Martian']\n")

    def test_verbose_logs_the_rows_the_table_keeps(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        table = tmp_path / "table.tsv"
        table.write_text(Path(EL_TABLE).read_text(encoding="utf-8")
                         + "Nowhere\tENTITY/Jean_Marais\t0.5\n", encoding="utf-8")
        argv = [sys.executable, "-m", "entkit", "link", "--docs", EL_DOCS,
                "--table", str(table), "--wp-space", WP, "--ent-space", WIKI,
                "--align", align, "--eval"]
        stderr = {}
        for verbose in ([], ["-v"]):
            out_dir = str(tmp_path / f"o{len(verbose)}")
            proc = subprocess.run([*argv[:3], *verbose, *argv[3:], "--out-dir", out_dir],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            stderr[bool(verbose)] = proc.stderr
        assert stderr[False] == ""
        assert "candidate table: kept 4 of 5 rows (2 surfaces)\n" in stderr[True]

    @pytest.mark.parametrize("mode", ["--eval", "--train"])
    @pytest.mark.parametrize("source", ["fixtures", "world"])
    def test_entity_space_holds_only_the_rows_the_spans_reach(
        self, tmp_path, capsys, monkeypatch, source, mode
    ):
        from entkit import embeddings
        from entkit import entity_linking as el

        if source == "fixtures":
            docs, table, wp, wiki = EL_DOCS, EL_TABLE, WP, WIKI
        else:
            world = make_world(tmp_path / "world", "ingest", 5)
            docs, table, wp, wiki = (
                str(world / name) for name in ("docs.jsonl", "table.tsv", "wp.txt", "wiki.txt")
            )
        align = str(tmp_path / "align.tsv")
        assert run(capsys, "align", "--src", wiki, "--tgt", wp, "--out", align)[0] == 0
        loaded = []
        load_space = embeddings.load_space

        def recording(*args, **kwargs):
            loaded.append(load_space(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(embeddings, "load_space", recording)
        code, _, stderr = run(
            capsys, "link", "--docs", docs, "--table", table, "--wp-space", wp,
            "--ent-space", wiki, "--align", align, mode, "--epochs", "2",
            "--out-dir", str(tmp_path / "o"),
        )
        assert (code, stderr) == (0, "")
        spans = el.load_candidate_table(table).spans
        reached = {
            c.entity
            for doc in el.load_documents(docs)
            for span in el.generate_candidates(el.span_keys(doc.tokens, 7), spans)
            for c in span.candidates
        }
        # The whole wordpiece space, then only the reached entity rows.
        wp_space, ent_space = loaded
        assert wp_space.vocab.symbols == load_space(wp).vocab.symbols
        assert set(ent_space.vocab.symbols) == reached
        if source == "world":
            # The table names entities no span reaches; they are not held.
            assert reached < set(el.load_candidate_table(table).entities.remaining())

    def test_iterations_below_one_exit_usage_before_loading(self, tmp_path, capsys):
        # The documents file does not exist: --iterations must be rejected first.
        code, _, stderr = run(
            capsys, "link", "--docs", str(tmp_path / "none.jsonl"),
            "--table", EL_TABLE, "--wp-space", WP, "--ent-space", WIKI,
            "--align", str(tmp_path / "none.tsv"), "--eval",
            "--out-dir", str(tmp_path / "o"), "--iterations", "0",
        )
        assert_one_line_error(code, stderr, 1, "--iterations must be at least 1")

    @pytest.mark.parametrize("flag,value,text", [
        ("--epochs", "-3", "--epochs must be at least 0"),
        ("--step", "nan", "--step must be finite"),
        ("--step", "inf", "--step must be finite"),
        ("--eps-bias", "nan", "--eps-bias must be finite"),
    ])
    def test_out_of_range_training_flag_exit_usage_before_loading(
        self, tmp_path, capsys, flag, value, text
    ):
        # The documents file does not exist: the flag must be rejected first.
        code, _, stderr = run(
            capsys, "link", "--docs", str(tmp_path / "none.jsonl"),
            "--table", EL_TABLE, "--wp-space", WP, "--ent-space", WIKI,
            "--align", str(tmp_path / "none.tsv"), "--train",
            "--out-dir", str(tmp_path / "o"), flag, value,
        )
        assert_one_line_error(code, stderr, 1, text)

    def test_zero_epochs_writes_the_starting_loss(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        out_dir = tmp_path / "link"
        code, _, _ = run(
            capsys, *link_args(align, out_dir, "--train", "--epochs", "0")
        )
        assert code == 0
        lines = (out_dir / "losses.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            "epoch", "0", "# dropped_unreachable_golds",
        ]

    def test_alignment_source_dimension_mismatch_exit_data(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            *link_args(seven_column_alignment(tmp_path), tmp_path / "o", "--eval"),
        )
        assert_one_line_error(code, stderr, 2, "alignment source dimension 7")

    def test_train_and_eval_mutually_exclusive(self, tmp_path, capsys):
        align = fit_alignment_file(tmp_path, capsys)
        code, _, stderr = run(
            capsys,
            *link_args(align, tmp_path / "o", "--train", "--eval"),
        )
        assert code == 1
        assert "not allowed with" in stderr


class TestResolve:
    def test_fixture_resolution(self, capsys):
        code, stdout, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES, "--fixture", WD_FIXTURE
        )
        assert code == 0
        assert stdout == (
            "surface\tqid\turl\tstatus\n"
            "Jean Marais\tQ168359\thttps://en.wikipedia.org/wiki/Jean_Marais"
            "\tresolved\n"
            "Tony Adams\tQ7\thttps://en.wikipedia.org/wiki/Tony_Adams"
            "\tambiguous_resolved_lowest\n"
            "Zzyzx Nobody\t\t\tnot_found\n"
        )

    def test_endpoint_failure_exit_code(self, capsys):
        code, stdout, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES, "--fixture", WD_DOWN
        )
        assert code == 3
        for line in stdout.splitlines()[1:]:
            assert line.endswith("endpoint_error")

    def test_cache_survives_outage(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        code, _, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_FIXTURE, "--cache", cache,
        )
        assert code == 0
        code, stdout, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_DOWN, "--cache", cache,
        )
        assert code == 0  # everything answered from the cache
        assert "endpoint_error" not in stdout

    def test_outage_results_never_cached(self, tmp_path, capsys):
        cache = tmp_path / "cache.tsv"
        code, _, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_DOWN, "--cache", str(cache),
        )
        assert code == 3
        assert not cache.exists()

    def test_surface_holding_a_tab_exit_data_before_any_query(self, tmp_path, capsys):
        # The cache and the result are tab-separated: such a surface would
        # write a cache line that the next run cannot read back.
        surfaces = tmp_path / "surfaces.txt"
        surfaces.write_text("Jean Marais\nJean\tMarais\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        code, stdout, stderr = run(
            capsys, "resolve", "--surfaces", str(surfaces),
            "--fixture", WD_FIXTURE, "--cache", str(cache),
        )
        assert_one_line_error(code, stderr, 2, "surfaces.txt: line 2: surface holds a tab")
        assert stdout == "" and not cache.exists()

    def test_sitelink_holding_a_tab_is_ignored(self, tmp_path, capsys):
        # Written out, such a URL would split its rows of the cache and of the
        # result, and the next run could not read the cache back.
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({
            "labels": {"Jean Marais": ["Q168359"]},
            "sitelinks": {"Q168359": "https://en.wikipedia.org/wiki/Jean\tMarais"},
        }), encoding="utf-8")
        surfaces = tmp_path / "surfaces.txt"
        surfaces.write_text("Jean Marais\n", encoding="utf-8")
        cache = tmp_path / "cache.tsv"
        argv = ["resolve", "--surfaces", str(surfaces), "--fixture", str(fixture),
                "--cache", str(cache)]
        expected = "surface\tqid\turl\tstatus\nJean Marais\tQ168359\t\tresolved\n"
        assert run(capsys, *argv) == (0, expected, "")
        assert cache.read_text(encoding="utf-8") == "Jean Marais\tQ168359\t\n"
        assert run(capsys, *argv) == (0, expected, "")

    def test_endpoint_and_fixture_conflict(self, capsys):
        code, _, stderr = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_FIXTURE, "--endpoint", "http://example.test",
        )
        assert code == 1
        assert "not allowed with" in stderr

    def test_resolve_never_imports_numpy(self, tmp_path):
        # Each command imports its own modules, so resolve starts without
        # numpy; a fresh interpreter shows what the command itself imported.
        script = (
            "import sys\n"
            "from entkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(entkit.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, "resolve", "--surfaces", WD_SURFACES,
             "--fixture", WD_FIXTURE, "--cache", str(tmp_path / "cache.tsv"),
             "--out", str(tmp_path / "res.tsv")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == "0 False\n"
        assert (tmp_path / "res.tsv").read_text(encoding="utf-8").startswith("surface\tqid")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "res.tsv"
        code, stdout, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_FIXTURE, "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text(encoding="utf-8").startswith("surface\tqid")



@pytest.mark.parametrize("threads", ["0", "-5"])
@pytest.mark.parametrize("command", ["eval-lama", "filter-uhn", "link"])
def test_threads_below_one_exit_usage_before_loading(tmp_path, capsys, command, threads):
    # The input files do not exist: --threads must be rejected first.
    missing = str(tmp_path / "none")
    argv = {
        "eval-lama": ["--data", missing, "--templates", TEMPLATES, "--wp-space", WP],
        "filter-uhn": ["--data", missing, "--templates", TEMPLATES, "--wp-space", WP,
                       "--out-dir", str(tmp_path / "uhn")],
        "link": ["--docs", missing, "--table", EL_TABLE, "--wp-space", WP,
                 "--ent-space", WIKI, "--align", missing, "--eval",
                 "--out-dir", str(tmp_path / "link")],
    }[command]
    code, stdout, stderr = run(capsys, command, *argv, "--threads", threads)
    assert_one_line_error(code, stderr, 1, f"--threads must be at least 1, got {threads}")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


GOOD_DOC = {"doc_id": "d", "tokens": ["Adams", "and", "Platt"],
            "golds": [{"start": 0, "end": 1, "entity": "ENTITY/Tony_Adams"}]}


@pytest.mark.parametrize("change,text", [
    ({"doc_id": 5}, "doc_id must be a string"),
    ({"tokens": [1, 2]}, "tokens must be a list of strings"),
    ({"tokens": "abc"}, "tokens must be a list of strings"),
    ({"golds": 5}, "golds must be a list"),
    ({"golds": [{"start": 0.7, "end": 1, "entity": "ENTITY/Tony_Adams"}]},
     "bad gold annotation (start and end must be integers"),
    ({"tokens": ["New York", "and", "Platt"]},
     "token 'New York' is empty or contains whitespace"),
    ({"tokens": ["Adams", "", "Platt"]}, "token '' is empty or contains whitespace"),
    ({"doc_id": "d\t1"}, "doc_id holds a tab or line break"),
    ({"doc_id": "d\n1"}, "doc_id holds a tab or line break"),
    ({}, "duplicate doc_id 'd', first on line 1"),
])
def test_malformed_document_exit_data(tmp_path, capsys, change, text):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        json.dumps(GOOD_DOC) + "\n" + json.dumps({**GOOD_DOC, **change}) + "\n",
        encoding="utf-8",
    )
    align = fit_alignment_file(tmp_path, capsys)
    argv = link_args(align, tmp_path / "link", "--eval")
    argv[argv.index(EL_DOCS)] = str(docs)
    code, _, stderr = run(capsys, *argv)
    assert_one_line_error(code, stderr, 2, f"docs.jsonl: line 2: {text}")


@pytest.mark.parametrize("command", ["eval-lama", "filter-uhn"])
def test_relation_without_template_exit_data_before_scoring(
    tmp_path, capsys, monkeypatch, command
):
    # P103 is a name-probe relation; filter-uhn must not keep its questions
    # unprobed, and neither command may score anything first.
    templates = tmp_path / "templates.json"
    records = json.loads(Path(TEMPLATES).read_text(encoding="utf-8"))
    templates.write_text(
        json.dumps([r for r in records if r["relation"] != "P103"]), encoding="utf-8"
    )
    monkeypatch.setattr("entkit.scorer.ReferenceScorer.score_answers", None)
    out = (["--out", str(tmp_path / "report.tsv")] if command == "eval-lama"
           else ["--out-dir", str(tmp_path / "uhn")])
    code, stdout, stderr = run(
        capsys, command, "--data", LAMA, "--templates", str(templates),
        "--wp-space", WP, "--answer-vocab", ANSWERS, *out,
    )
    assert_one_line_error(code, stderr, 2, "no template for relation 'P103'")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == [templates]


def test_non_string_template_exit_data(tmp_path, capsys):
    templates = json.loads(Path(TEMPLATES).read_text(encoding="utf-8"))
    templates[1]["template"] = 5
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(templates), encoding="utf-8")
    code, _, stderr = run(
        capsys, "eval-lama", "--data", LAMA, "--templates", str(path),
        "--wp-space", WP, "--answer-vocab", ANSWERS, "--mode", "bert",
    )
    assert_one_line_error(code, stderr, 2, "templates.json: malformed template record 2")


@pytest.mark.parametrize("fixture,text", [
    ([], "fixture must be a JSON object"),
    ({"labels": ["Jean Marais"]}, "labels must map surfaces to lists of Q-ids"),
])
def test_malformed_fixture_exit_data(tmp_path, capsys, fixture, text):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    code, _, stderr = run(
        capsys, "resolve", "--surfaces", WD_SURFACES, "--fixture", str(path)
    )
    assert_one_line_error(code, stderr, 2, f"fixture.json: {text}")


# "{file}" is a file holding the case's text; "{none}" is a file that does
# not exist, so a flag rejected before anything is read exits 1, not 2.
EVAL_ALIGNED = [*EVAL_BASE, "--ent-space", WIKI, "--mode", "concat", "--align", "{file}"]
RESOLVE_NOTHING = ["resolve", "--surfaces", "{none}", "--fixture", WD_FIXTURE, "--rate"]


@pytest.mark.parametrize("argv,content,expected_code,text", [
    (EVAL_ALIGNED, "0 8 0.0 5\n", 2, "line 1: alignment dimensions must be positive"),
    (EVAL_ALIGNED, "2 -3 0.0 5\n0.0\n0.0\n", 2,
     "line 1: alignment dimensions must be positive"),
    (EVAL_ALIGNED, "1 1000000000000 0.0 5\n0.0\n", 2,
     "line 2: expected 1000000000000 values, got 1"),
    ([*EVAL_BASE[:5], "--wp-space", "{file}", *EVAL_BASE[7:], "--mode", "bert"],
     "1 1000000000000\na 1.0\n", 2, "line 2: expected 1000000000000 values, got 1"),
    ([*RESOLVE_NOTHING, "0"], "", 1, "--rate must be positive and finite, got 0.0"),
    ([*RESOLVE_NOTHING, "-2"], "", 1, "--rate must be positive and finite, got -2.0"),
    ([*RESOLVE_NOTHING, "nan"], "", 1, "--rate must be positive and finite, got nan"),
    ([*RESOLVE_NOTHING, "inf"], "", 1, "--rate must be positive and finite, got inf"),
], ids=["align-zero-dim", "align-negative-dim", "align-huge-dim", "space-huge-dim",
        "rate-zero", "rate-negative", "rate-nan", "rate-inf"])
def test_bad_header_or_rate_exits_with_one_line(
    tmp_path, capsys, argv, content, expected_code, text
):
    path = tmp_path / "input.txt"
    path.write_text(content, encoding="utf-8")
    argv = [a.replace("{file}", str(path)).replace("{none}", str(tmp_path / "none.txt"))
            for a in argv]
    code, _, stderr = run(capsys, *argv)
    assert_one_line_error(code, stderr, expected_code, text)


class TestEntryPoint:
    def test_module_runs_as_script(self, tmp_path):
        out = tmp_path / "align.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "entkit", "align", "--src", WIKI,
             "--tgt", WP, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "shared_count\t8" in proc.stdout
        assert out.exists()

    def test_no_command_exits_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entkit"], capture_output=True, text=True
        )
        assert proc.returncode == 1

    def test_unknown_command_exits_usage(self, capsys):
        code, _, stderr = run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in stderr

    def test_float32_overflow_in_a_space_exits_with_one_line(self, tmp_path):
        # 1e39 is finite as a float64 but not as a float32; the cast must not
        # print a numpy warning above the error line.
        space = tmp_path / "wiki.txt"
        space.write_text("2 2\na 0.5 1e39\nb 1 2\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "entkit", "align", "--src", str(space),
             "--tgt", WP, "--out", str(tmp_path / "align.tsv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"entkit: data error: {space}: non-finite value in row for 'a'"
        ]

    @staticmethod
    def eval_lama_concat(tmp_path, align_text: str):
        align = tmp_path / "align.tsv"
        align.write_text(align_text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "entkit", *EVAL_BASE, "--ent-space", WIKI,
             "--align", str(align), "--mode", "concat", "--resolutions", RESOLUTIONS],
            capture_output=True, text=True,
        )
        return align, proc

    def test_non_finite_alignment_value_exits_with_one_line(self, tmp_path):
        rows = [" ".join(["0.5"] * 8)] * 8
        rows[2] = "0.5 0.5 nan" + " 0.5" * 5
        align, proc = self.eval_lama_concat(tmp_path, "8 8 0.0 8\n" + "\n".join(rows) + "\n")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"entkit: data error: {align}: line 4: non-finite value"
        ]

    def test_non_finite_residual_exits_with_one_line(self, tmp_path):
        rows = [" ".join(["0.5"] * 8)] * 8
        align, proc = self.eval_lama_concat(tmp_path, "8 8 nan 8\n" + "\n".join(rows) + "\n")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"entkit: data error: {align}: line 1: non-finite residual"
        ]

    def test_overflowing_alignment_exits_with_one_line(self, tmp_path):
        # Every entry is finite, but the derived entity rows overflow; numpy's
        # overflow warning must not print above the error line.
        rows = [" ".join(["1e308"] * 8)] * 8
        _, proc = self.eval_lama_concat(tmp_path, "8 8 0.0 8\n" + "\n".join(rows) + "\n")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "entkit: data error: non-finite embedding row for symbol 'ENTITY/Jean_Marais'"
        ]

    def test_import_does_not_load_requests(self):
        # Only a live endpoint needs HTTP; every other command skips the import.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, entkit.cli; print('requests' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"


# Commands the fuzzer runs, with the fixture files each reads and the numeric
# flags it takes. "{F}" is a private copy of fixtures/ holding a fitted
# alignment as align.tsv, and "{O}" is a scratch output directory.
FUZZ_COMMANDS = {
    "align": (
        ["align", "--src", "{F}/wiki.txt", "--tgt", "{F}/wordpieces.txt",
         "--out", "{O}/align.tsv"],
        ["wiki.txt", "wordpieces.txt"],
        [],
    ),
    "eval-lama": (
        ["eval-lama", "--data", "{F}/lama", "--templates", "{F}/templates.json",
         "--wp-space", "{F}/wordpieces.txt", "--ent-space", "{F}/wiki.txt",
         "--align", "{F}/align.tsv", "--mode", "concat",
         "--answer-vocab", "{F}/answers.txt", "--resolutions", "{F}/resolutions.tsv",
         "--out", "{O}/report.tsv"],
        ["lama/P103.jsonl", "lama/P176.jsonl", "templates.json", "wordpieces.txt",
         "wiki.txt", "align.tsv", "answers.txt", "resolutions.tsv"],
        ["--k", "--threads"],
    ),
    "filter-uhn": (
        ["filter-uhn", "--data", "{F}/lama", "--templates", "{F}/templates.json",
         "--wp-space", "{F}/wordpieces.txt", "--answer-vocab", "{F}/answers.txt",
         "--out-dir", "{O}/uhn"],
        ["lama/P103.jsonl", "templates.json", "wordpieces.txt", "answers.txt"],
        ["--top-k", "--threads"],
    ),
    "link": (
        ["link", "--docs", "{F}/el/docs.jsonl", "--table", "{F}/el/table.tsv",
         "--redirects", "{F}/el/redirects.tsv", "--wp-space", "{F}/wordpieces.txt",
         "--ent-space", "{F}/wiki.txt", "--align", "{F}/align.tsv",
         "--out-dir", "{O}/link", "--eps-bias=-2.0"],
        ["el/docs.jsonl", "el/table.tsv", "el/redirects.tsv", "wordpieces.txt",
         "wiki.txt", "align.tsv"],
        ["--iterations", "--max-span", "--epochs", "--threads"],
    ),
    "resolve": (
        ["resolve", "--surfaces", "{F}/wikidata/surfaces.txt",
         "--fixture", "{F}/wikidata/fixture.json", "--cache", "{O}/cache.tsv",
         "--out", "{O}/resolved.tsv"],
        ["wikidata/surfaces.txt", "wikidata/fixture.json"],
        ["--rate"],
    ),
}

FLAG_VALUES = st.one_of(
    st.integers(-2, 9).map(str),
    st.floats(-2.0, 9.0, allow_nan=False).map(repr),
)


@pytest.fixture(scope="module")
def pristine_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "fixtures"
    shutil.copytree(FIXTURES, root)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["align", "--src", str(root / "wiki.txt"),
                     "--tgt", str(root / "wordpieces.txt"),
                     "--out", str(root / "align.tsv")])
    assert code == 0
    return root


@st.composite
def fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv, files, flags = FUZZ_COMMANDS[name]
    if name == "link":
        argv = argv + [draw(st.sampled_from(["--eval", "--train"]))]
    for flag in flags:
        if draw(st.booleans()):
            argv = argv + [flag, draw(FLAG_VALUES)]
    damage = draw(st.one_of(
        st.none(),
        st.tuples(st.sampled_from(files), st.just("truncate"), st.floats(0.0, 1.0)),
        st.tuples(st.sampled_from(files), st.integers(0, 255), st.floats(0.0, 1.0)),
    ))
    return argv, damage


def damage_file(path: Path, how, where: float) -> None:
    data = path.read_bytes()
    at = min(int(where * len(data)), len(data) - 1)
    if how == "truncate":
        path.write_bytes(data[:at])
    else:
        path.write_bytes(data[:at] + bytes([how]) + data[at + 1 :])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=fuzz_cases())
def test_fuzzed_flags_and_files_keep_the_exit_code_contract(pristine_fixtures, case):
    argv, damage = case
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = Path(tmp) / "fixtures"
        shutil.copytree(pristine_fixtures, fixtures)
        if damage is not None:
            name, how, where = damage
            damage_file(fixtures / name, how, where)
        argv = [a.replace("{F}", str(fixtures)).replace("{O}", str(Path(tmp) / "out"))
                for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()


# Commands whose output must not change when the entity space gains rows
# that nothing references ("{F}" and "{O}" as in FUZZ_COMMANDS).
_EVAL_ENTITIES = [
    "eval-lama", "--data", "{F}/lama", "--templates", "{F}/templates.json",
    "--wp-space", "{F}/wordpieces.txt", "--ent-space", "{F}/wiki.txt",
    "--align", "{F}/align.tsv", "--answer-vocab", "{F}/answers.txt",
    "--resolutions", "{F}/resolutions.tsv", "--k", "3", "--out", "{O}/report.tsv",
]
_LINK_ENTITIES = [
    "link", "--docs", "{F}/el/docs.jsonl", "--table", "{F}/el/table.tsv",
    "--redirects", "{F}/el/redirects.tsv", "--wp-space", "{F}/wordpieces.txt",
    "--ent-space", "{F}/wiki.txt", "--align", "{F}/align.tsv", "--out-dir", "{O}/link",
]
ENTITY_COMMANDS = {
    "eval-lama-concat": [*_EVAL_ENTITIES, "--mode", "concat"],
    "eval-lama-replace": [*_EVAL_ENTITIES, "--mode", "replace"],
    "link-eval": [*_LINK_ENTITIES, "--eval"],
    "link-train": [*_LINK_ENTITIES, "--train", "--epochs", "5"],
}


class ProtocolOnlyScorer:
    """A reference scorer that exposes only the scorer protocol: ``wp_vocab``,
    ``ent``, ``mask_states`` and ``score_answers``."""

    def __init__(self, *args):
        inner = ReferenceScorer(*args)
        self.wp_vocab, self.ent = inner.wp_vocab, inner.ent
        self.mask_states, self.score_answers = inner.mask_states, inner.score_answers


def test_a_scorer_with_only_the_protocol_writes_the_same_bytes(
    pristine_fixtures, tmp_path, monkeypatch
):
    commands = {
        "eval-lama-concat": ENTITY_COMMANDS["eval-lama-concat"],
        "filter-uhn": [
            "filter-uhn", "--data", "{F}/lama", "--templates", "{F}/templates.json",
            "--wp-space", "{F}/wordpieces.txt", "--answer-vocab", "{F}/answers.txt",
            "--out-dir", "{O}/uhn",
        ],
        "link-train": ENTITY_COMMANDS["link-train"],
    }
    plain = {name: command_outputs(pristine_fixtures, tmp_path / name, argv)
             for name, argv in commands.items()}
    assert all(code == 0 and files for code, _, files in plain.values())
    monkeypatch.setattr("entkit.scorer.ReferenceScorer", ProtocolOnlyScorer)
    for name, argv in commands.items():
        protocol = command_outputs(pristine_fixtures, tmp_path / f"protocol-{name}", argv)
        assert protocol == plain[name], name


def command_outputs(fixtures: Path, out: Path, argv) -> tuple:
    """Exit code, stdout and the bytes of every file a command writes."""
    out.mkdir()
    argv = [a.replace("{F}", str(fixtures)).replace("{O}", str(out)) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), files


@pytest.fixture(scope="module")
def entity_baseline(pristine_fixtures, tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    outputs = {name: command_outputs(pristine_fixtures, out / name, argv)
               for name, argv in ENTITY_COMMANDS.items()}
    assert all(code == 0 and files for code, _, files in outputs.values())
    return outputs


@settings(max_examples=6, deadline=None, derandomize=True)
@given(extra=st.integers(1, 130), seed=st.integers(0, 2 ** 16))
def test_unreferenced_entity_rows_change_no_output(
    pristine_fixtures, entity_baseline, extra, seed
):
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = Path(tmp) / "fixtures"
        shutil.copytree(pristine_fixtures, fixtures)
        wiki = fixtures / "wiki.txt"
        header, body = wiki.read_text(encoding="utf-8").split("\n", 1)
        count, dim = map(int, header.split())
        values = np.random.default_rng(seed).standard_normal((extra, dim))
        rows = [" ".join([f"ENTITY/Unreferenced_{i}", *map(repr, row.tolist())])
                for i, row in enumerate(values)]
        wiki.write_text(f"{count + extra} {dim}\n" + body + "\n".join(rows) + "\n",
                        encoding="utf-8")
        for name, argv in ENTITY_COMMANDS.items():
            outputs = command_outputs(fixtures, Path(tmp) / name, argv)
            assert outputs == entity_baseline[name], name


def _fixture_entities() -> list[str]:
    with open(WIKI, encoding="utf-8") as fh:
        return [line.split(" ", 1)[0] for line in fh
                if line.startswith("ENTITY/")]


def _document_surfaces(max_span: int = 7) -> set[str]:
    """Every surface of up to ``max_span`` tokens in the fixture documents."""
    surfaces = set()
    with open(EL_DOCS, encoding="utf-8") as fh:
        for line in fh:
            tokens = json.loads(line)["tokens"]
            for start in range(len(tokens)):
                for end in range(start + 1, min(start + max_span, len(tokens)) + 1):
                    surfaces.add(" ".join(tokens[start:end]))
    return surfaces


@st.composite
def unmatched_table_rows(draw):
    """Candidate rows whose surface matches no fixture document and whose
    entity is in the fixture entity space."""
    words = sorted(_document_surfaces(1) | {"Nowhere"})
    taken = _document_surfaces()
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join)
            .filter(lambda surface: surface not in taken),
            st.sampled_from(_fixture_entities()),
            st.sampled_from(["1.0", "0.5", "0.01"]),
        ),
        min_size=1, max_size=12, unique_by=lambda row: row[:2],
    ))
    return ["\t".join(row) for row in rows]


@settings(max_examples=6, deadline=None, derandomize=True)
@given(rows=unmatched_table_rows())
def test_unmatched_table_surfaces_change_no_link_output(
    pristine_fixtures, entity_baseline, rows
):
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = Path(tmp) / "fixtures"
        shutil.copytree(pristine_fixtures, fixtures)
        with open(fixtures / "el" / "table.tsv", "a", encoding="utf-8") as fh:
            fh.write("".join(row + "\n" for row in rows))
        for name in ("link-eval", "link-train"):
            outputs = command_outputs(fixtures, Path(tmp) / name, ENTITY_COMMANDS[name])
            assert outputs == entity_baseline[name], name


@pytest.mark.parametrize("name", ["link-eval", "link-train"])
def test_colliding_table_hashes_change_no_link_output(
    pristine_fixtures, entity_baseline, tmp_path, name
):
    # Every pair, surface, entity and space symbol hashes alike: the exact
    # check runs, every surface is held, every entity is confirmed by string
    # and the spaces load line by line.
    from entkit import embeddings

    with mock.patch.object(embeddings, "_hash", lambda item: 0):
        outputs = command_outputs(pristine_fixtures, tmp_path / name, ENTITY_COMMANDS[name])
    assert outputs == entity_baseline[name]


@pytest.mark.parametrize("fault, error", [
    (None, ""),
    ("duplicate pair", "line 101: duplicate candidate"),
    ("missing entity", "missing from entity space: ['ENTITY/Nowhere']"),
])
def test_table_chunk_rows_change_no_link_output_or_error(tmp_path, capsys, fault, error):
    # The table's rows are read, and the space's symbols struck from its
    # entities, TABLE_CHUNK_ROWS at a time.
    from entkit import _candidate_table

    world = make_world(tmp_path / "world", "link", 1)
    table = world / "table.tsv"
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 100
    if fault == "duplicate pair":
        lines.insert(100, lines[40])
    elif fault == "missing entity":
        lines.insert(50, "Nowhere\tENTITY/Nowhere\t0.5\n")
    table.write_text("".join(lines), encoding="utf-8")
    commands = json.loads((world / "world.json").read_text(encoding="utf-8"))["commands"]
    argv = next(c["argv"] for c in commands if "--eval" in c["argv"])
    argv = [a.replace("{W}", str(world)) for a in argv]
    outcomes = []
    for rows in (1, 3, 1024):
        with mock.patch.object(_candidate_table, "TABLE_CHUNK_ROWS", rows):
            outputs = command_outputs(world, tmp_path / f"rows{rows}", argv)
        outcomes.append((outputs, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    (code, _, files), stderr = outcomes[0]
    assert code == (0 if fault is None else 2) and error in stderr
    assert bool(files) == (fault is None)


def _link_hwm_growth_kib(tmp_path, table: Path, align: str) -> int:
    """KiB by which ``link --eval`` on the fixture documents and ``table``
    raises the high-water mark of resident memory (VmHWM) of a new
    interpreter that has already imported the linker."""
    script = (
        "import sys\n"
        "import entkit.entity_linking\n"
        "from entkit.cli import main\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(hwm() - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(entkit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, "link", "--docs", EL_DOCS, "--table", str(table),
         "--wp-space", WP, "--ent-space", WIKI, "--align", align, "--eval",
         "--out-dir", str(tmp_path / table.stem)],
        capture_output=True, text=True, env=env, check=True,
    )
    return int(proc.stdout.split()[-1])


def test_link_memory_grows_little_with_unreached_table_rows(tmp_path, capsys):
    # The documents reach 4 of the table's rows; a row they do not reach
    # costs a few hashes and its entity's bytes, not a candidate object.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    align = fit_alignment_file(tmp_path, capsys)
    entities = _fixture_entities()
    grown = {}
    for n in (1_000, 101_000):
        table = tmp_path / f"table{n}.tsv"
        with open(table, "w", encoding="utf-8") as fh:
            fh.write(Path(EL_TABLE).read_text(encoding="utf-8"))
            fh.writelines(f"unreached {i}\t{entities[i % len(entities)]}\t0.5\n"
                          for i in range(n))
        grown[n] = _link_hwm_growth_kib(tmp_path, table, align)
    per_row = (grown[101_000] - grown[1_000]) * 1024 / 100_000
    assert per_row <= 120, (grown, per_row)


_NUMBER = re.compile(r"[-+]?(\d+\.?\d*(e[-+]?\d+)?|nan|inf(inity)?)", re.IGNORECASE)


def _numbers_are_finite(text: str) -> bool:
    """Whether every number among the words of a TSV, JSON or report text
    is finite."""
    return all(
        math.isfinite(float(word))
        for word in re.split(r"[\s,:{}\[\]\"]+", text)
        if _NUMBER.fullmatch(word)
    )


# The commands that map entities with an alignment, each writing to "{O}".
ALIGNED_COMMANDS = {
    "eval-lama-concat": [*_EVAL_ENTITIES, "--mode", "concat"],
    "eval-lama-replace": [*_EVAL_ENTITIES, "--mode", "replace"],
    "link-eval": [*_LINK_ENTITIES, "--eval"],
    "link-train": [*_LINK_ENTITIES, "--train", "--epochs", "3"],
}


def aligned_stderr(fixtures: Path, out: Path, align: Path, argv) -> str:
    """Run ``argv`` with the alignment ``align``, where no numpy warning may
    escape, and return its stderr after checking that an exit 0 wrote only
    finite numbers and any other exit is 2 with one stderr line."""
    argv = [str(align) if a == "{F}/align.tsv" else a for a in argv]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code, stdout, files = command_outputs(fixtures, out, argv)
    if code == 0:
        assert stderr.getvalue() == ""
        for text in [stdout, *(b.decode("utf-8") for b in files.values())]:
            assert _numbers_are_finite(text)
    else:
        assert code == 2
        assert len(stderr.getvalue().splitlines()) == 1
    return stderr.getvalue()


@pytest.mark.parametrize("scale", ["1e160", "1e300"])
@pytest.mark.parametrize("argv", ALIGNED_COMMANDS.values(), ids=ALIGNED_COMMANDS)
def test_huge_alignment_gives_finite_outputs_or_one_error_line(
    pristine_fixtures, tmp_path, argv, scale
):
    # Every entry is finite and so is every derived entity row, but the
    # products of those rows can overflow.
    align = tmp_path / "huge.tsv"
    align.write_text("8 8 0.0 5\n" + f"{' '.join([scale] * 8)}\n" * 8, encoding="utf-8")
    stderr = aligned_stderr(pristine_fixtures, tmp_path / "out", align, argv)
    if "--train" in argv:
        # The first update overflows the head, so the next epoch's logits do.
        assert stderr == "entkit: data error: candidate logits are not finite " \
                         "(the vectors are too large)\n"


def test_suppressed_null_entity_trains_with_finite_losses(tmp_path, capsys):
    # With --eps-bias=-1e9 a span whose gold is the null entity has p(gold)
    # = 0 in float64; its loss is large but finite, not infinite.
    world = make_world(tmp_path / "world", "ingest", 5)
    align = str(tmp_path / "align.txt")
    assert run(capsys, "align", "--src", str(world / "wiki.txt"),
               "--tgt", str(world / "wp.txt"), "--out", align)[0] == 0
    out = tmp_path / "link"
    code, _, stderr = run(
        capsys, "link", "--docs", str(world / "docs.jsonl"),
        "--table", str(world / "table.tsv"), "--wp-space", str(world / "wp.txt"),
        "--ent-space", str(world / "wiki.txt"), "--align", align,
        "--train", "--epochs", "3", "--eps-bias=-1e9", "--out-dir", str(out),
    )
    assert (code, stderr) == (0, "")
    rows = (out / "losses.tsv").read_text(encoding="utf-8").splitlines()
    losses = [float(row.split("\t")[1]) for row in rows[1:5]]
    assert all(1e8 < loss < math.inf for loss in losses)
    assert losses == sorted(losses, reverse=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.integers(-300, 300))
@example(k=-300)
@example(k=300)
def test_alignment_scaled_by_a_power_of_ten_gives_finite_outputs_or_one_error_line(
    pristine_fixtures, k
):
    # The fitted fixture alignment times 10^k.
    header, *rows = (pristine_fixtures / "align.tsv").read_text(encoding="utf-8").splitlines()
    scaled = [" ".join(repr(float(v) * 10.0 ** k) for v in row.split()) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        align = Path(tmp) / "scaled.tsv"
        align.write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")
        for name, argv in ALIGNED_COMMANDS.items():
            aligned_stderr(pristine_fixtures, Path(tmp) / name, align, argv)
