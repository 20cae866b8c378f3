"""Embedding space parsing, serialization, and shared-vocabulary extraction."""

import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_space
from oracles import write_space
from entkit import embeddings
from entkit.embeddings import (
    EmbeddingSpace,
    SpaceKind,
    Vocabulary,
    load_space,
    shared_vocabulary,
)
from entkit.errors import DataError
from entkit.symbols import is_entity_symbol


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadSpace:
    def test_happy_path(self, tmp_path):
        f = write(tmp_path / "s.txt", "2 3\nfoo 1 2 3\nbar 0.5 -0.25 0\n")
        space = load_space(f, SpaceKind.WORDPIECE)
        assert space.dim == 3
        assert space.vocab.symbols == ("foo", "bar")
        assert space.matrix.dtype == np.float32
        np.testing.assert_array_equal(
            space.matrix, np.array([[1, 2, 3], [0.5, -0.25, 0]], dtype=np.float32)
        )

    def test_rows_are_read_only(self, tmp_path):
        f = write(tmp_path / "s.txt", "1 2\nfoo 1 2\n")
        space = load_space(f, SpaceKind.WORDPIECE)
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 9.0

    def test_duplicate_symbol_reports_line(self, tmp_path):
        f = write(tmp_path / "s.txt", "3 2\na 1 2\nb 3 4\na 5 6\n")
        with pytest.raises(DataError, match=r"line 4: duplicate symbol 'a'"):
            load_space(f, SpaceKind.WORDPIECE)

    def test_row_count_mismatch(self, tmp_path):
        f = write(tmp_path / "s.txt", "3 2\na 1 2\nb 3 4\n")
        with pytest.raises(DataError, match=r"declares 3 rows but file has 2"):
            load_space(f, SpaceKind.WORDPIECE)

    def test_wrong_dimension_reports_line(self, tmp_path):
        f = write(tmp_path / "s.txt", "2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(DataError, match=r"line 3: expected 3 values, got 2"):
            load_space(f, SpaceKind.WORDPIECE)

    def test_unparseable_number_reports_line(self, tmp_path):
        f = write(tmp_path / "s.txt", "1 2\na 1 x\n")
        with pytest.raises(DataError, match=r"line 2: unparseable number"):
            load_space(f, SpaceKind.WORDPIECE)

    def test_non_finite_value_rejected(self, tmp_path):
        f = write(tmp_path / "s.txt", "2 2\na 1 2\nb nan 4\n")
        with pytest.raises(DataError, match=r"non-finite.*'b'"):
            load_space(f, SpaceKind.WORDPIECE)
        f2 = write(tmp_path / "s2.txt", "1 2\na inf 0\n")
        with pytest.raises(DataError, match=r"non-finite"):
            load_space(f2, SpaceKind.WORDPIECE)

    def test_malformed_header(self, tmp_path):
        for text in ("2\n", "a b\nfoo 1\n", ""):
            f = write(tmp_path / "s.txt", text)
            with pytest.raises(DataError):
                load_space(f, SpaceKind.WORDPIECE)

    def test_invalid_header_values(self, tmp_path):
        f = write(tmp_path / "s.txt", "1 0\na\n")
        with pytest.raises(DataError, match=r"invalid header values"):
            load_space(f, SpaceKind.WORDPIECE)

    def test_zero_rows_is_valid(self, tmp_path):
        f = write(tmp_path / "s.txt", "0 4\n")
        space = load_space(f, SpaceKind.WORD_AND_ENTITY)
        assert len(space.vocab) == 0 and space.dim == 4


# Corruptions of a rendered space, each applied to its lines (header first)
# at data line ``k`` with choice ``c``; "lone_cr" is applied to the joined
# text by ``space_texts``.
SEPARATORS = ["\t", "  ", "\xa0", "\x1c", "\x85", " \t"]
ODD_VALUES = ["1_0", "0x1p3", "nan", "inf", "-inf", "1e39", "+.5", "\u0663"]


def _corrupt(lines: list[str], op: str, k: int, c: int) -> None:
    row = 1 + k % (len(lines) - 1)
    fields = lines[row].split(" ")
    j = 1 + c % max(len(fields) - 1, 1)  # a value field
    if op == "separator":
        # The c-th single space of the line becomes an odd separator.
        gaps = [i for i, ch in enumerate(lines[row]) if ch == " "] or [0]
        at = gaps[c % len(gaps)]
        lines[row] = lines[row][:at] + SEPARATORS[k % len(SEPARATORS)] + lines[row][at + 1 :]
    elif op == "pad":
        pad = [" ", "\t", "  "][k % 3]
        lines[row] = pad + lines[row] if c % 2 else lines[row] + pad
    elif op == "hash" and j < len(fields):
        # A '#' inside a value, often the last and never first: the text
        # before it would still parse if '#' started a comment.
        f = -1 if c % 2 else j
        at = 1 + k % max(len(fields[f]), 1)
        fields[f] = fields[f][:at] + "#" + fields[f][at:]
        lines[row] = " ".join(fields)
    elif op == "odd_value" and j < len(fields):
        fields[j] = ODD_VALUES[k % len(ODD_VALUES)]
        lines[row] = " ".join(fields)
    elif op == "duplicate":
        other = 1 + c % (len(lines) - 1)
        lines[row] = lines[other].split(" ")[0] + " " + " ".join(fields[1:])
    elif op == "short":
        lines[row] = " ".join(fields[:-1])
    elif op == "long":
        lines[row] += " 0.25"
    elif op == "blank":
        lines.insert(row, "")
    elif op == "count":
        n, d = lines[0].split(" ")
        lines[0] = f"{int(n) + (1 if c % 2 else -1)} {d}"


@st.composite
def space_texts(draw):
    """The text of a small rendered space and the corruptions applied."""
    dim = draw(st.integers(1, 4))
    symbols = draw(st.lists(
        st.text("abcé#/_()ENTITY.1", min_size=1, max_size=5),
        min_size=1, max_size=6, unique=True,
    ))
    values = st.floats(-1e3, 1e3, allow_nan=False, width=32)
    fmt = draw(st.sampled_from([repr, "{:.3e}".format, "{:g}".format]))
    lines = [f"{len(symbols)} {dim}"] + [
        " ".join([sym] + [fmt(draw(values)) for _ in range(dim)]) for sym in symbols
    ]
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["separator", "pad", "hash", "odd_value", "duplicate",
                             "short", "long", "blank", "count", "lone_cr"]),
            st.integers(0, 99), st.integers(0, 99),
        ),
        max_size=3,
    ))
    for op, k, c in ops:
        _corrupt(lines, op, k, c)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    for op, k, c in ops:
        if op == "lone_cr":
            at = (100 * k + c) % (len(text) + 1)
            text = text[:at] + "\r" + text[at:]
    return text, bool(ops)


def _outcome(path, keep=None, absent=None):
    try:
        space = load_space(path, SpaceKind.WORD_AND_ENTITY, keep, absent)
    except DataError as exc:
        return "error", str(exc)
    return "space", space.vocab.symbols, space.matrix.shape, space.matrix.tobytes()


class TestFastPathMatchesLineParser:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=space_texts(), chunk_chars=st.integers(1, 80))
    @example(case=("1 2\na 0.5 0.25#7\n", True), chunk_chars=80)
    @example(case=("2 1\na 0.5\nb\n", True), chunk_chars=80)
    def test_same_symbols_and_bits_or_same_error(self, case, chunk_chars):
        text, corrupted = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.txt"
            path.write_bytes(text.encode("utf-8"))
            parse_lines = mock.Mock(wraps=embeddings._parse_lines)
            with mock.patch.object(embeddings, "CHUNK_CHARS", chunk_chars), \
                    mock.patch.object(embeddings, "_parse_lines", parse_lines):
                fast = _outcome(path)
            with mock.patch.object(embeddings, "_parse_chunks", lambda *args: None):
                reference = _outcome(path)
        assert fast == reference
        if not corrupted:
            # A clean file never needs the line-by-line parser.
            assert not parse_lines.called

    def test_streaming_peak_stays_near_the_result(self, tmp_path):
        n, dim = 20_000, 64
        values = np.random.default_rng(5).standard_normal((n, dim)).astype(np.float32)
        path = tmp_path / "big.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {dim}\n")
            rows = np.column_stack([np.arange(n), values])
            np.savetxt(fh, rows, fmt=["ENTITY/E%d"] + ["%.8g"] * dim)
        tracemalloc.start()
        try:
            space = load_space(path, SpaceKind.WORD_AND_ENTITY)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(space.vocab) == n and space.dim == dim
        assert peak <= 1.5 * held, (peak, held)


def _file_symbols(text: str) -> list[str]:
    """The first field of each data line, in file order: what a keep set
    picks from."""
    return [line.split()[0] for line in text.splitlines()[1:] if line.split()]


def _check_kept_rows(case, chunk_chars, picks, absent, collide=False):
    """Loading with a keep set, by either path, gives the kept rows of the
    full load or its error, and empties an ``absent`` set of every symbol of
    the file."""
    text, corrupted = case
    symbols = _file_symbols(text)
    keep = {symbols[i] for i in picks if i < len(symbols)}
    if absent:
        keep.add("ENTITY/not_in_the_file")
    left = {"fast": set(keep), "reference": set(keep)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.txt"
        path.write_bytes(text.encode("utf-8"))
        parse_lines = mock.Mock(wraps=embeddings._parse_lines)
        with mock.patch.object(embeddings, "CHUNK_CHARS", chunk_chars), \
                mock.patch.object(embeddings, "_parse_lines", parse_lines):
            full = _outcome(path)
            fast = _outcome(path, keep, left["fast"])
        with mock.patch.object(embeddings, "_parse_chunks", lambda *args: None):
            reference = _outcome(path, keep, left["reference"])
    if full[0] == "error":
        expected = full
    else:
        _, all_symbols, shape, data = full
        ids = [i for i, sym in enumerate(all_symbols) if sym in keep]
        rows = np.frombuffer(data, dtype=np.float32).reshape(shape)[ids]
        expected = ("space", tuple(all_symbols[i] for i in ids), rows.shape,
                    rows.tobytes())
        assert left["fast"] == left["reference"] == keep - set(all_symbols)
    assert fast == expected
    assert reference == expected
    if not corrupted:
        # A clean file needs the line-by-line parser only for a collision.
        assert parse_lines.called == (collide and len(symbols) > 1)


class TestKeep:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=space_texts(), chunk_chars=st.integers(1, 80),
           picks=st.sets(st.integers(0, 7)), absent=st.booleans())
    # Files whose only fault is in a row outside keep.
    @example(case=("2 1\na 0.5\nb nan\n", True), chunk_chars=80, picks={0}, absent=False)
    @example(case=("2 1\na 0.5\nb 1e39\n", True), chunk_chars=80, picks={0}, absent=False)
    @example(case=("2 2\na 0.5 1\nb 1\n", True), chunk_chars=80, picks={0}, absent=False)
    @example(case=("3 1\na 0.5\nb 1\nb 2\n", True), chunk_chars=80, picks={0}, absent=False)
    # The first non-finite row is named even when a later one is kept.
    @example(case=("3 1\na inf\nb 1\nc nan\n", True), chunk_chars=4, picks={2}, absent=False)
    def test_kept_rows_of_the_full_load_or_the_same_error(
        self, case, chunk_chars, picks, absent
    ):
        _check_kept_rows(case, chunk_chars, picks, absent)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=space_texts(), chunk_chars=st.integers(1, 80),
           picks=st.sets(st.integers(0, 7)), absent=st.booleans())
    def test_colliding_hashes_change_no_result(self, case, chunk_chars, picks, absent):
        # Every symbol hashes alike, so every file of two or more rows looks
        # like it holds a duplicate, and the line-by-line path decides.
        with mock.patch.object(embeddings, "_hash", lambda sym: 0):
            _check_kept_rows(case, chunk_chars, picks, absent, collide=True)

    @pytest.mark.parametrize("collide", [False, True])
    def test_duplicate_in_another_chunk_names_its_line(self, tmp_path, collide):
        path = write(tmp_path / "space.txt", "3 1\na 0.5\nb 1\na 2\n")
        with mock.patch.object(embeddings, "CHUNK_CHARS", 1), \
                mock.patch.object(embeddings, "_hash",
                                  (lambda sym: 0) if collide else hash):
            with pytest.raises(DataError, match=r"line 4: duplicate symbol 'a'"):
                load_space(path, SpaceKind.WORD_AND_ENTITY, {"b"})

    def test_keep_raises_the_memory_high_water_mark_far_less(self, tmp_path):
        n = 30_000
        path = _write_entity_space(tmp_path / "big.txt", n, 64, seed=9)
        grown = {}
        for mode, keep in (("all", "None"),
                           ("keep", "{f'ENTITY/E{i}' for i in range(0, 30_000, 300)}")):
            rows, grown[mode] = _load_in_a_fresh_process(path, keep)
            assert rows == (n if mode == "all" else 100)
        assert grown["keep"] < grown["all"] / 2, grown

    def test_duplicate_check_costs_a_few_bytes_per_file_row(self, tmp_path):
        # Duplicates are found from one 8-byte hash per row, not from a set
        # of every symbol (about 100 bytes per row).
        n = 300_000
        path = _write_entity_space(tmp_path / "tall.txt", n, 4, seed=10)
        rows, grown_kib = _load_in_a_fresh_process(path, "{'ENTITY/E7'}")
        assert rows == 1
        assert grown_kib * 1024 < 48 * n, grown_kib


def _write_entity_space(path, n: int, dim: int, seed: int):
    """A space of ``n`` random rows named ``ENTITY/E0`` to ``ENTITY/E{n-1}``."""
    values = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {dim}\n")
        np.savetxt(fh, np.column_stack([np.arange(n), values]),
                   fmt=["ENTITY/E%d"] + ["%.8g"] * dim)
    return path


def _load_in_a_fresh_process(path, keep: str) -> tuple[int, int]:
    """Load ``path`` keeping the set the expression ``keep`` builds, in a new
    interpreter, and return the rows held and how many KiB the load raised
    the high-water mark of resident memory (VmHWM, which is per process)."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = (
        "import sys\n"
        "from entkit.embeddings import SpaceKind, load_space\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        f"keep = {keep}\n"
        "before = hwm()\n"
        "space = load_space(sys.argv[1], SpaceKind.WORD_AND_ENTITY, keep)\n"
        "print(len(space.vocab), hwm() - before)\n"
    )
    env = {**os.environ,
           "PYTHONPATH": str(Path(embeddings.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env, check=True)
    rows, grown = map(int, proc.stdout.split())
    return rows, grown


def _load_through_fifo(tmp_path, text: str, keep=None):
    """``_outcome`` of loading ``text`` through a named pipe, with the pipe's
    path in an error message written as ``PATH``."""
    fifo = tmp_path / "space.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(text.encode("utf-8"))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    parse_chunks = mock.Mock(wraps=embeddings._parse_chunks)
    with mock.patch.object(embeddings, "_parse_chunks", parse_chunks):
        outcome = _outcome(fifo, keep)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert not parse_chunks.called  # a pipe cannot be read twice
    return outcome[:1] + tuple(
        v.replace(str(fifo), "PATH") if isinstance(v, str) else v for v in outcome[1:]
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestPipeInput:
    TEXT = "3 2\nENTITY/A 0.5 1\nb -0.25 2e-3\nENTITY/C 1e3 0\n"

    @pytest.mark.parametrize("keep", [None, {"ENTITY/A", "ENTITY/C", "absent"}])
    def test_same_symbols_and_bits_as_the_file(self, tmp_path, keep):
        path = write(tmp_path / "space.txt", self.TEXT)
        assert _load_through_fifo(tmp_path, self.TEXT, keep) == _outcome(path, keep)

    @pytest.mark.parametrize("text", [
        "3 2\nENTITY/A 0.5 1\nb x 2\nENTITY/C 1 0\n",
        "3 2\nENTITY/A 0.5 1\nb nan 2\nENTITY/C 1 0\n",
        "3 2\nENTITY/A 0.5 1\nENTITY/A 1 2\nENTITY/C 1 0\n",
        "3 2\nENTITY/A 0.5 1\nb 1\nENTITY/C 1 0\n",
        "4 2\nENTITY/A 0.5 1\nb 1 2\nENTITY/C 1 0\n",
    ])
    def test_same_error_as_the_file(self, tmp_path, text):
        path = write(tmp_path / "space.txt", text)
        error, message = _outcome(path, {"ENTITY/A"})
        assert error == "error"
        expected = ("error", message.replace(str(path), "PATH"))
        assert _load_through_fifo(tmp_path, text, {"ENTITY/A"}) == expected


class TestSaveLoadRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 4)).astype(np.float32)
        space = EmbeddingSpace(
            Vocabulary(["a", "b", "ENTITY/X", "d", "e"]),
            4,
            values,
            SpaceKind.WORD_AND_ENTITY,
        )
        f = tmp_path / "round.txt"
        write_space(space, f)
        again = load_space(f, SpaceKind.WORD_AND_ENTITY)
        assert again.vocab.symbols == space.vocab.symbols
        np.testing.assert_array_equal(again.matrix, values)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, width=32,
                min_value=-(2.0 ** 40), max_value=2.0 ** 40,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_finite_float32_row_survives(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("rt")
        space = make_space(
            ["sym"], np.array([values], dtype=np.float32), SpaceKind.WORDPIECE
        )
        f = tmp / "one.txt"
        write_space(space, f)
        again = load_space(f, SpaceKind.WORDPIECE)
        np.testing.assert_array_equal(again.matrix, space.matrix.astype(np.float32))


class TestVocabularyAndClasses:
    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(DataError, match="duplicate symbol"):
            Vocabulary(["a", "b", "a"])

    def test_vocabulary_ids_are_positional(self):
        v = Vocabulary(["z", "a", "m"])
        assert v.index == {"z": 0, "a": 1, "m": 2}
        assert "a" in v and "q" not in v
        assert v.symbols == ("z", "a", "m")

    def test_entity_prefix_detection(self):
        assert is_entity_symbol("ENTITY/Jean_Marais")
        assert not is_entity_symbol("Jean_Marais")
        assert not is_entity_symbol("entity/x")

    def test_space_shape_validation(self):
        with pytest.raises(ValueError, match="does not match"):
            EmbeddingSpace(Vocabulary(["a"]), 3, np.zeros((1, 2)), SpaceKind.WORDPIECE)
        with pytest.raises(ValueError, match="dimension must be positive"):
            EmbeddingSpace(Vocabulary([]), 0, np.zeros((0, 0)), SpaceKind.WORDPIECE)

    def test_space_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            make_space(["a"], [[np.inf, 0.0]], SpaceKind.WORDPIECE)

    def test_row_lookup(self):
        space = make_space(["a", "b"], [[1, 2], [3, 4]], SpaceKind.WORDPIECE)
        np.testing.assert_array_equal(space.row("b"), [3, 4])
        assert space.row("missing") is None


class TestSharedVocabulary:
    def test_order_follows_wordpiece_ids(self):
        wp = make_space(["red", "blue", "green"], np.zeros((3, 2)), SpaceKind.WORDPIECE)
        wiki = make_space(
            ["green", "ENTITY/X", "red"], np.zeros((3, 2)), SpaceKind.WORD_AND_ENTITY
        )
        pairs = shared_vocabulary(wp, wiki)
        assert [(p.symbol, p.wp_id, p.wiki_id) for p in pairs] == [
            ("red", 0, 2),
            ("green", 2, 0),
        ]

    def test_intersection_is_case_sensitive(self):
        wp = make_space(["Paris", "rome"], np.zeros((2, 2)), SpaceKind.WORDPIECE)
        wiki = make_space(
            ["paris", "rome"], np.zeros((2, 2)), SpaceKind.WORD_AND_ENTITY
        )
        pairs = shared_vocabulary(wp, wiki)
        assert [p.symbol for p in pairs] == ["rome"]

    def test_empty_intersection_is_data_error(self):
        wp = make_space(["a"], np.zeros((1, 2)), SpaceKind.WORDPIECE)
        wiki = make_space(["b"], np.zeros((1, 2)), SpaceKind.WORD_AND_ENTITY)
        with pytest.raises(DataError, match="empty intersection"):
            shared_vocabulary(wp, wiki)

    def test_kind_mixups_rejected(self):
        wp = make_space(["a"], np.zeros((1, 2)), SpaceKind.WORDPIECE)
        wiki = make_space(["a"], np.zeros((1, 2)), SpaceKind.WORD_AND_ENTITY)
        with pytest.raises(ValueError):
            shared_vocabulary(wiki, wp)
        with pytest.raises(ValueError):
            shared_vocabulary(wp, wp)
