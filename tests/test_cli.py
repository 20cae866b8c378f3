"""End-to-end command-line behavior against the shipped toy fixtures."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from entkit.cli import main

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


EVAL_BASE = [
    "eval-lama", "--data", LAMA, "--templates", TEMPLATES,
    "--wp-space", WP, "--answer-vocab", ANSWERS,
]


class TestEvalLama:
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

        def counting(tokens, *args):
            calls.append(tuple(tokens))
            return generate(tokens, *args)

        monkeypatch.setattr(el, "generate_candidates", counting)
        align = fit_alignment_file(tmp_path, capsys)
        code, _, _ = run(capsys, *link_args(align, tmp_path / "link", "--train"))
        assert code == 0
        with open(EL_DOCS, encoding="utf-8") as fh:
            assert calls == [tuple(json.loads(line)["tokens"]) for line in fh]

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

    def test_endpoint_and_fixture_conflict(self, capsys):
        code, _, stderr = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_FIXTURE, "--endpoint", "http://example.test",
        )
        assert code == 1
        assert "not allowed with" in stderr

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "res.tsv"
        code, stdout, _ = run(
            capsys, "resolve", "--surfaces", WD_SURFACES,
            "--fixture", WD_FIXTURE, "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text(encoding="utf-8").startswith("surface\tqid")



GOOD_DOC = {"doc_id": "d", "tokens": ["Adams", "and", "Platt"],
            "golds": [{"start": 0, "end": 1, "entity": "ENTITY/Tony_Adams"}]}


@pytest.mark.parametrize("change,text", [
    ({"doc_id": 5}, "doc_id must be a string"),
    ({"tokens": [1, 2]}, "tokens must be a list of strings"),
    ({"tokens": "abc"}, "tokens must be a list of strings"),
    ({"golds": 5}, "golds must be a list"),
    ({"golds": [{"start": 0.7, "end": 1, "entity": "ENTITY/Tony_Adams"}]},
     "bad gold annotation (start and end must be integers"),
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
        ["--k"],
    ),
    "filter-uhn": (
        ["filter-uhn", "--data", "{F}/lama", "--templates", "{F}/templates.json",
         "--wp-space", "{F}/wordpieces.txt", "--answer-vocab", "{F}/answers.txt",
         "--out-dir", "{O}/uhn"],
        ["lama/P103.jsonl", "templates.json", "wordpieces.txt", "answers.txt"],
        ["--top-k"],
    ),
    "link": (
        ["link", "--docs", "{F}/el/docs.jsonl", "--table", "{F}/el/table.tsv",
         "--redirects", "{F}/el/redirects.tsv", "--wp-space", "{F}/wordpieces.txt",
         "--ent-space", "{F}/wiki.txt", "--align", "{F}/align.tsv",
         "--out-dir", "{O}/link", "--eps-bias=-2.0"],
        ["el/docs.jsonl", "el/table.tsv", "el/redirects.tsv", "wordpieces.txt",
         "wiki.txt", "align.tsv"],
        ["--iterations", "--max-span", "--epochs"],
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
