"""Candidate generation, prior-biased scoring, training, iterative decoding,
redirect canonicalization, and strong-match scoring."""

import math
import os
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SPECIAL_PIECES,
    ent_space_with,
    flat_linking_world,
    grid_values,
    make_space,
    span_posterior,
    word_mask_states,
    wp_space_with,
)
from oracles import el_input, head_gradients, mask_state, render, row
from entkit import embeddings
from entkit._candidate_table import PackedSymbols
from entkit._tsv import tsv_rows
from entkit.entity_linking import (
    Candidate,
    CandidateSpan,
    Document,
    GoldAnnotation,
    NullEntityParams,
    SpanState,
    build_training_examples,
    candidate_groups,
    canonical_entity,
    document_pieces,
    generate_candidates,
    iterative_refine,
    load_candidate_table,
    load_documents,
    load_redirects,
    normalize_entity,
    span_keys,
    strong_match_f1,
    train_linker,
)
from entkit.errors import DataError
from entkit.scorer import AffineHead, ReferenceScorer, candidate_gradients, candidate_probs


def cand(name, prior=1.0):
    return Candidate(f"ENTITY/{name}", prior)


class TestCandidateSpan:
    def test_validation(self):
        with pytest.raises(ValueError, match="bad span"):
            CandidateSpan(2, 2, (cand("A"),))
        with pytest.raises(ValueError, match="bad span"):
            CandidateSpan(-1, 1, (cand("A"),))
        with pytest.raises(ValueError, match="non-empty candidate"):
            CandidateSpan(0, 1, ())

    def test_overlaps(self):
        a = CandidateSpan(0, 2, (cand("A"),))
        assert a.overlaps(CandidateSpan(1, 3, (cand("B"),)))
        assert a.overlaps(CandidateSpan(0, 1, (cand("B"),)))
        assert not a.overlaps(CandidateSpan(2, 3, (cand("B"),)))  # adjacent
        assert not a.overlaps(CandidateSpan(5, 6, (cand("B"),)))

    def test_decode_requires_membership(self):
        span = CandidateSpan(0, 1, (cand("A"), cand("B", 0.5)))
        with pytest.raises(ValueError, match="not a candidate"):
            span.decode("ENTITY/C")
        span.decode("ENTITY/B")
        assert span.state is SpanState.DECODED
        assert span.entity == "ENTITY/B"


class TestLoadCandidateTable:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text(
            "Platt\tENTITY/David_Platt\t0.7\n"
            "Platt\tENTITY/Platt_Bridge\t0.3\n"
            "\n"
            "a b c\tENTITY/Abc\t1.0\n",
            encoding="utf-8",
        )
        table = load_candidate_table(f, max_span=7)
        assert table.spans["Platt"] == (
            Candidate("ENTITY/David_Platt", 0.7),
            Candidate("ENTITY/Platt_Bridge", 0.3),
        )
        assert table.rejected_long_keys == 0
        assert table.entities.remaining() == [
            "ENTITY/Abc", "ENTITY/David_Platt", "ENTITY/Platt_Bridge",
        ]

    def test_long_keys_rejected_and_counted(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text(
            "a b c\tENTITY/Abc\t1.0\nx\tENTITY/X\t0.5\n", encoding="utf-8"
        )
        table = load_candidate_table(f, max_span=2)
        assert "a b c" not in table.spans
        assert table.rejected_long_keys == 1
        assert set(table.spans) == {"x"}

    def test_the_exact_pass_is_linear_in_a_surface_s_candidates(self, tmp_path):
        # A quadratic duplicate check takes seconds here.
        n = 10_000
        f = tmp_path / "t.tsv"
        f.write_text("".join(f"x\tENTITY/E{i}\t0.5\n" for i in range(n)), encoding="utf-8")
        started = time.perf_counter()
        table = load_candidate_table(f, 7)
        assert time.perf_counter() - started < 1.0
        assert table.spans["x"] == tuple(Candidate(f"ENTITY/E{i}", 0.5) for i in range(n))

    @pytest.mark.parametrize(
        "row,msg",
        [
            ("x\tENTITY/X\n", "expected 3 tab-separated fields"),
            ("x\tX\t0.5\n", "ENTITY/ symbol"),
            ("x\tENTITY/X\tabc\n", "unparseable prior"),
            ("x\tENTITY/X\t0.0\n", r"prior must lie in \(0, 1\]"),
            ("x\tENTITY/X\t1.5\n", r"prior must lie in \(0, 1\]"),
            ("x\tENTITY/X\t-0.2\n", r"prior must lie in \(0, 1\]"),
            ("x\tENTITY/X\t0.5\nx\tENTITY/X\t0.4\n", "duplicate candidate"),
        ],
    )
    def test_errors(self, tmp_path, row, msg):
        f = tmp_path / "t.tsv"
        f.write_text(row, encoding="utf-8")
        with pytest.raises(DataError, match=msg):
            load_candidate_table(f)


def _reference_table(path, max_span: int):
    """One exact pass over a candidate table that holds every row: the
    candidates of every surface, the entities of the rows within the length
    limit and the count of longer rows, or the DataError of the first bad
    row."""
    spans: dict[str, list[Candidate]] = {}
    rejected = 0
    for lineno, (surface, entity, prior_text) in tsv_rows(path, 3):
        if not entity.startswith("ENTITY/"):
            raise DataError(f"{path}: line {lineno}: entity must be an ENTITY/ symbol")
        try:
            prior = float(prior_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable prior") from None
        if not (0.0 < prior <= 1.0):
            raise DataError(f"{path}: line {lineno}: prior must lie in (0, 1], got {prior}")
        if len(surface.split()) > max_span:
            rejected += 1
            continue
        cands = spans.setdefault(surface, [])
        if entity in {c.entity for c in cands}:
            raise DataError(f"{path}: line {lineno}: duplicate candidate {entity!r} "
                            f"for surface {surface!r}")
        cands.append(Candidate(entity, prior))
    entities = {c.entity for cands in spans.values() for c in cands}
    return {s: tuple(c) for s, c in spans.items()}, entities, rejected


def _surfaces(docs, max_span: int) -> set[str]:
    return {" ".join(tokens[start:end])
            for tokens in docs for start in range(len(tokens))
            for end in range(start + 1, min(start + max_span, len(tokens)) + 1)}


_WORDS = ["a", "b", "c d", "é"]
_TABLE_LINES = st.lists(
    st.one_of(
        st.tuples(
            st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
            st.sampled_from(["ENTITY/X", "ENTITY/Y", "ENTITY/Ü", "ENTITY/X "]),
            st.sampled_from(["0.5", "1", "0.25"]),
        ).map("\t".join),
        # Rarer bad rows: a bad entity or prior, a missing field, a blank line.
        st.sampled_from(["a\tX\t0.5", "b\tENTITY/X\t2", "c\tENTITY/Y\tp",
                         "a\tENTITY/X", ""]),
    ),
    max_size=12,
)


class TestStreamedTable:
    """``load_candidate_table`` with the documents' span surfaces streams a
    regular file and holds only those surfaces; the reference pass holds
    every row."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lines=_TABLE_LINES,
           docs=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "é"]), max_size=5),
                         max_size=3),
           max_span=st.integers(1, 3), collide=st.booleans())
    # A duplicate pair before a bad row: the duplicate's line is named.
    @example(lines=["a\tENTITY/X\t0.5", "a\tENTITY/X\t1", "a\tX\t0.5"], docs=[["a"]],
             max_span=1, collide=False)
    def test_same_candidates_entities_and_errors_as_one_exact_pass(
        self, lines, docs, max_span, collide
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.tsv"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            try:
                expected = _reference_table(path, max_span)
            except DataError as exc:
                expected = str(exc)
            # A constant hash makes every pair, surface and entity collide.
            with mock.patch.object(embeddings, "_hash",
                                   (lambda item: 0) if collide else hash):
                try:
                    table = load_candidate_table(path, max_span, _surfaces(docs, max_span))
                except DataError as exc:
                    assert str(exc) == expected
                    return
        spans, entities, rejected = expected
        assert table.rejected_long_keys == rejected
        assert table.entities.remaining() == sorted(entities)
        reached = _surfaces(docs, max_span)
        assert {s: c for s, c in table.spans.items() if s in reached} == \
            {s: c for s, c in spans.items() if s in reached}
        # A surface kept on a hash collision keeps its full candidate list.
        assert all(spans[s] == c for s, c in table.spans.items())
        if collide:
            assert table.spans == (spans if reached else {})

    @pytest.mark.parametrize("collide", [False, True])
    def test_duplicate_pair_gives_the_exact_line_numbered_error(self, tmp_path, collide):
        f = tmp_path / "t.tsv"
        f.write_text("x\tENTITY/X\t0.5\ny\tENTITY/Y\t0.5\n"
                     "x\tENTITY/X\t0.4\nz\tZ\t0.5\n", encoding="utf-8")
        with mock.patch.object(embeddings, "_hash",
                               (lambda item: 0) if collide else hash):
            with pytest.raises(DataError) as exc:
                load_candidate_table(f, 7, ["y"])
        assert str(exc.value) == (
            f"{f}: line 3: duplicate candidate 'ENTITY/X' for surface 'x'"
        )

    def test_holds_only_the_surfaces_the_documents_reach(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("a b\tENTITY/Ab\t1\nb\tENTITY/B\t1\nc\tENTITY/C\t1\n"
                     "b c\tENTITY/Bc\t0.5\n", encoding="utf-8")
        table = load_candidate_table(f, 2, _surfaces([("a", "b"), ()], 2))
        assert table.spans == {"a b": (Candidate("ENTITY/Ab", 1.0),),
                               "b": (Candidate("ENTITY/B", 1.0),)}
        assert table.entities.remaining() == [
            "ENTITY/Ab", "ENTITY/B", "ENTITY/Bc", "ENTITY/C",
        ]
        assert load_candidate_table(f, 2, []).spans == {}


def _table_outcome(path, docs):
    """What ``load_candidate_table`` gives for ``path``: the candidates of the
    surfaces ``docs`` reach, the entities and the rejected count, or the
    error message with the path written as ``PATH``."""
    try:
        table = load_candidate_table(path, 2, _surfaces(docs, 2))
    except DataError as exc:
        return str(exc).replace(str(path), "PATH")
    reached = _surfaces(docs, 2)
    return ({s: c for s, c in table.spans.items() if s in reached},
            table.entities.remaining(), table.rejected_long_keys)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestPipeTable:
    """A pipe cannot be read twice, so a table read from one is loaded in
    one exact pass."""

    DOCS = [["a", "b"]]

    @pytest.mark.parametrize("text", [
        "a\tENTITY/A\t0.5\nb\tENTITY/B\t1\nc d e\tENTITY/C\t1\nz\tENTITY/Z\t1\n",
        "a\tENTITY/A\t0.5\nb\tENTITY/B\t2\n",
        "a\tENTITY/A\t0.5\na\tENTITY/A\t1\nb\tB\t1\n",
        "a\tENTITY/A\t0.5\nb\tENTITY/B\n",
    ])
    def test_same_table_or_error_as_the_file(self, tmp_path, text):
        path = tmp_path / "table.tsv"
        path.write_text(text, encoding="utf-8")
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(text.encode("utf-8"))

        outcome = []
        writer = threading.Thread(target=feed, daemon=True)
        # A second open of the pipe would wait for a writer forever.
        loader = threading.Thread(
            target=lambda: outcome.append(_table_outcome(fifo, self.DOCS)), daemon=True)
        writer.start()
        loader.start()
        loader.join(timeout=10)
        assert not loader.is_alive(), "the pipe was opened a second time"
        writer.join(timeout=10)
        assert outcome == [_table_outcome(path, self.DOCS)]


class TestPackedSymbols:
    def test_equal_hashes_are_confirmed_by_string(self):
        with mock.patch.object(embeddings, "_hash", lambda item: 0):
            symbols = PackedSymbols()
            symbols.update(["ENTITY/A", "ENTITY/Ü"])
            symbols.update(["ENTITY/B", "ENTITY/A", ""])
            symbols.difference_update(["ENTITY/A", "ENTITY/C", "ENTITY/"])
            assert symbols.remaining() == ["", "ENTITY/B", "ENTITY/Ü"]

    def test_removes_only_symbols_it_holds(self):
        symbols = PackedSymbols()
        symbols.update([])
        symbols.update(["ENTITY/A"])
        symbols.difference_update([])
        symbols.difference_update(["ENTITY/B", "ENTITY/A"])
        assert symbols.remaining() == []
        assert PackedSymbols().remaining() == []


class TestGenerateCandidates:
    TABLE = {
        "a": (cand("A"),),
        "a b": (cand("Ab"),),
        "b a": (cand("Ba"),),
    }

    def test_lexicographic_span_order(self):
        spans = generate_candidates(span_keys(["a", "b", "a"], 7), self.TABLE)
        assert [(s.start, s.end) for s in spans] == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert all(s.state is SpanState.UNDECIDED for s in spans)

    def test_max_span_bounds_window(self):
        spans = generate_candidates(span_keys(["a", "b", "a"], 1), self.TABLE)
        assert [(s.start, s.end) for s in spans] == [(0, 1), (2, 3)]

    def test_no_matches(self):
        assert generate_candidates(span_keys(["x", "y"], 7), self.TABLE) == []

    def test_window_clipped_at_document_end(self):
        spans = generate_candidates(span_keys(["b", "a"], 10), self.TABLE)
        assert [(s.start, s.end) for s in spans] == [(0, 2), (1, 2)]


DIM = 3
_RNG = np.random.default_rng(17)
EL_SCORER = ReferenceScorer(
    wp_space_with({w: _RNG.standard_normal(DIM) for w in ("the", "cat", "sat")}, DIM),
    ent_space_with({f"ENTITY/{n}": _RNG.standard_normal(DIM)
                    for n in ("Cat", "Sat", "The", "The_Cat", "Cat_Sat")}, DIM),
)


class TestBuildElInput:
    """Hand-written linking inputs: the oracle ``el_input`` renders each,
    and the library's state of each span is the oracle state of that input."""

    def span(self, start, end, *names):
        return CandidateSpan(start, end, tuple(cand(n) for n in names))

    def render(self, tokens, span, decoded=None, use_emask=True):
        seq = el_input(tokens, span, decoded or {}, use_emask, EL_SCORER.wp_vocab)
        state = word_mask_states([(tokens, [span], decoded)], EL_SCORER, use_emask)[0]
        assert np.array_equal(state, mask_state(seq, EL_SCORER.wp, EL_SCORER.ent))
        return render(seq)

    def test_rendering_shape(self):
        assert self.render(["the", "cat", "sat"], self.span(1, 2, "Cat")) == [
            "[CLS]", "the", "[E-MASK]", "/", "cat", "*", "sat", "[SEP]",
        ]

    def test_plain_mask_variant(self):
        assert self.render(
            ["the", "cat", "sat"], self.span(1, 2, "Cat"), use_emask=False
        ) == ["[CLS]", "the", "[MASK]", "/", "cat", "*", "sat", "[SEP]"]

    def test_decoded_spans_render_as_entities(self):
        assert self.render(
            ["the", "cat", "sat"], self.span(2, 3, "Sat"), {(0, 2): "ENTITY/The_Cat"}
        ) == ["[CLS]", "ENTITY/The_Cat", "[E-MASK]", "/", "sat", "*", "[SEP]"]

    def test_decoded_span_in_right_context(self):
        assert self.render(
            ["the", "cat", "sat"], self.span(0, 1, "The"), {(1, 3): "ENTITY/Cat_Sat"}
        ) == ["[CLS]", "[E-MASK]", "/", "the", "*", "ENTITY/Cat_Sat", "[SEP]"]

    def test_decoded_span_straddling_window_falls_back_to_text(self):
        # A decoded record reaching past the context window renders as plain
        # wordpieces rather than leaking an entity token across the boundary.
        assert self.render(
            ["the", "cat", "sat"], self.span(2, 3, "Sat"), {(1, 3): "ENTITY/Cat_Sat"}
        ) == ["[CLS]", "the", "cat", "[E-MASK]", "/", "sat", "*", "[SEP]"]

    def test_unknown_context_word_falls_back_to_unk(self):
        assert self.render(["xyzzy", "cat"], self.span(1, 2, "Cat")) == [
            "[CLS]", "[UNK]", "[E-MASK]", "/", "cat", "*", "[SEP]",
        ]

    def test_span_beyond_document_rejected(self):
        # Also when the span is in the second document of the call.
        ok = ["the", "cat"], [self.span(0, 1, "The")], None
        with pytest.raises(ValueError, match="exceeds document length"):
            word_mask_states([ok, (["the"], [self.span(0, 2, "The")], None)], EL_SCORER)


class TestSpanMaskStates:
    """The batched mask states against the per-span oracle
    ``mask_state(el_input(...))``, bit for bit, on standard-normal spaces
    whose sums round."""

    D = 17
    # "new-york," splits on punctuation, "walks" into "walk ##s", and
    # "qqq" has no decomposition, so it falls back to [UNK].
    TOKENS = (
        "the", "new-york,", "city", "walks", "qqq", "new", "york", "city",
        "walks", "the", "city",
    )
    TABLE = {
        "new-york,": (cand("NY"),),
        "new-york, city": (cand("NYC", 0.7), cand("NY", 0.3)),
        "city": (cand("City", 0.6), cand("NYC", 0.4)),
        "city walks": (cand("Walks"),),
        "new york": (cand("NY"),),
        "new york city": (cand("NYC"),),
        "york city walks": (cand("Walks", 0.5), cand("City", 0.5)),
        "the city": (cand("City"),),
    }
    # (1, 3) holds the scored span (2, 3), so it crosses that span's left
    # boundary and span (1, 2)'s right boundary; (5, 8), (8, 9) and (9, 11)
    # lie end to end, so one entity follows another with no word between.
    DECODED = {
        (1, 3): "ENTITY/NYC",
        (5, 8): "ENTITY/NYC",
        (8, 9): "ENTITY/Walks",
        (9, 11): "ENTITY/City",
    }

    def scorer(self, with_mask=True):
        rng = np.random.default_rng(2024)
        pieces = [p for p in SPECIAL_PIECES if with_mask or p != "[MASK]"]
        pieces += ["the", "new", "york", "city", "walk", "##s", "-", ","]
        wp = make_space(pieces, rng.standard_normal((len(pieces), self.D)))
        ent = ent_space_with(
            {f"ENTITY/{n}": rng.standard_normal(self.D)
             for n in ("NY", "NYC", "City", "Walks")},
            self.D,
        )
        return ReferenceScorer(wp, ent)

    def oracle(self, scorer, spans, decoded, use_emask):
        return [
            mask_state(el_input(self.TOKENS, span, decoded, use_emask, scorer.wp_vocab),
                       scorer.wp, scorer.ent)
            for span in spans
        ]

    @pytest.mark.parametrize("use_emask", [True, False])
    @pytest.mark.parametrize("decoded", [{}, DECODED])
    def test_every_span_matches_the_oracle(self, use_emask, decoded):
        scorer = self.scorer()
        spans = generate_candidates(span_keys(self.TOKENS, 7), self.TABLE)
        assert any(a.overlaps(b) for a in spans for b in spans if a is not b)
        states = word_mask_states([(self.TOKENS, spans, decoded)], scorer, use_emask)
        assert states.shape == (len(spans), self.D)
        for got, want in zip(states, self.oracle(scorer, spans, decoded, use_emask)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 10**6])
    def test_one_scorer_call_per_call_whatever_the_block(self, monkeypatch, block):
        # The caller bounds the batch: SPAN_BLOCK splits no call.
        import entkit.entity_linking as el

        monkeypatch.setattr(el, "SPAN_BLOCK", block)
        reference = self.scorer()
        calls = []

        class Spy:
            """Forwards to the reference scorer, recording each batch's size."""

            wp_vocab, ent = reference.wp_vocab, reference.ent

            def mask_states(self, tokens, inputs):
                calls.append(len(inputs))
                return reference.mask_states(tokens, inputs)

        docs = [
            (self.TOKENS[i:], generate_candidates(span_keys(self.TOKENS[i:], 7), self.TABLE), None)
            for i in (0, 3, 5)
        ]
        states = word_mask_states(docs, Spy())
        n = sum(len(spans) for _, spans, _ in docs)
        assert calls == [n] and states.shape == (n, self.D)

    @pytest.mark.parametrize("block", [1, 10**6])
    def test_each_distinct_word_is_tokenized_once_per_call(self, monkeypatch, block):
        # Whatever the blocks and rounds, training and decoding each split a
        # word shared by several documents once.
        import entkit.entity_linking as el
        import entkit.text_input as text_input

        monkeypatch.setattr(el, "SPAN_BLOCK", block)
        split, words = text_input._punct_units, []

        def counted(word, vocab):
            words.append(word)
            return split(word, vocab)

        monkeypatch.setattr(text_input, "_punct_units", counted)
        scorer = self.scorer()
        rng = np.random.default_rng(3)
        head = AffineHead(rng.standard_normal((self.D, self.D)), rng.standard_normal(self.D))
        eps = NullEntityParams(rng.standard_normal(self.D), -30.0)
        texts = [self.TOKENS[i:] for i in (0, 3, 5)]
        examples = [
            ex for i, text in enumerate(texts)
            for ex in build_training_examples(
                Document(f"d{i}", text), generate_candidates(span_keys(text, 7), self.TABLE))[0]
        ]
        train_linker(examples, head, eps, scorer, epochs=2, step=0.1)
        assert sorted(words) == sorted(set(self.TOKENS))
        words.clear()
        docs = [(text, generate_candidates(span_keys(text, 7), self.TABLE)) for text in texts]
        _, steps = iterative_refine(docs, scorer, head, eps, 3)
        assert max(step.iteration for step in steps) > 1
        assert sorted(words) == sorted(set(self.TOKENS))

    def test_decoded_spans_cross_scored_boundaries(self):
        # A decoded span renders as its entity only when it lies inside one
        # context; (1, 3) crosses both scored spans and stays text.
        scorer = self.scorer()
        spans = [CandidateSpan(2, 3, (cand("City"),)), CandidateSpan(1, 2, (cand("NY"),))]
        right = ["walk", "##s", "[UNK]", "ENTITY/NYC", "ENTITY/Walks", "ENTITY/City", "[SEP]"]
        assert [
            render(el_input(self.TOKENS, s, self.DECODED, True, scorer.wp_vocab))
            for s in spans
        ] == [
            ["[CLS]", "the", "new", "-", "york", ",", "[E-MASK]", "/", "city", "*"]
            + right,
            ["[CLS]", "the", "[E-MASK]", "/", "new", "-", "york", ",", "*", "city"]
            + right,
        ]
        states = word_mask_states([(self.TOKENS, spans, self.DECODED)], scorer)
        for got, want in zip(states, self.oracle(scorer, spans, self.DECODED, True)):
            assert np.array_equal(got, want)

    def test_training_path_uses_the_same_states(self, monkeypatch):
        import entkit.entity_linking as el

        scorer = self.scorer()
        doc = Document(
            "d", self.TOKENS,
            (GoldAnnotation(1, 3, "ENTITY/NYC"), GoldAnnotation(5, 8, "ENTITY/NYC")),
        )
        other = Document("e", self.TOKENS[3:], ())
        examples = [
            ex for d in (doc, other)
            for ex in build_training_examples(
                d, generate_candidates(span_keys(d.tokens, 7), self.TABLE))[0]
        ]
        batched = el.span_mask_states
        rng = np.random.default_rng(5)
        head = AffineHead(rng.standard_normal((self.D, self.D)), rng.standard_normal(self.D))
        eps = NullEntityParams(rng.standard_normal(self.D), 0.3)

        for mode in (True, False):
            calls = []

            def recording(docs, scorer_, use_emask):
                out = batched(docs, scorer_, use_emask)
                at = 0
                for pieces, spans, decoded in docs:
                    calls.append((pieces, spans, decoded, use_emask, out[at : at + len(spans)]))
                    at += len(spans)
                return out

            monkeypatch.setattr(el, "span_mask_states", recording)
            loss = train_linker(examples, head, eps, scorer, epochs=0, step=0.1, use_emask=mode)[0]

            assert len(calls) == 2  # one entry per document
            assert sum(len(c[1]) for c in calls) == len(examples)
            oracle_loss = 0.0
            for ex in examples:
                seq = el_input(ex.tokens, ex.span, {}, mode, scorer.wp_vocab)
                h = mask_state(seq, scorer.wp, scorer.ent)
                pieces, spans, decoded, use_emask, out = next(
                    c for c in calls if c[0] == document_pieces([ex.tokens], scorer.wp_vocab)[0]
                )
                assert decoded is None and use_emask is mode
                assert np.array_equal(out[spans.index(ex.span)], h)
                cands = [
                    (row(scorer.ent, c.entity).astype(np.float64), math.log(c.prior))
                    for c in ex.candidates
                ]
                gold = (
                    len(cands) if ex.gold is None
                    else [c.entity for c in ex.candidates].index(ex.gold)
                )
                oracle_loss += head_gradients(h, head, cands + [(eps.e, eps.b)], gold).loss
            assert loss == oracle_loss / len(examples)

    def test_linking_needs_only_the_linking_protocol(self):
        class LinkingProtocolOnly:
            """Exposes ``wp_vocab``, ``ent`` and ``mask_states`` only."""

            def __init__(self, inner):
                self.wp_vocab = inner.wp_vocab
                self.ent = inner.ent
                self.mask_states = inner.mask_states

        def run(scorer):
            rng = np.random.default_rng(9)
            head = AffineHead(rng.standard_normal((self.D, self.D)), rng.standard_normal(self.D))
            eps = NullEntityParams(rng.standard_normal(self.D), -30.0)
            doc = Document("d", self.TOKENS, (GoldAnnotation(1, 3, "ENTITY/NYC"),))
            spans = generate_candidates(span_keys(doc.tokens, 7), self.TABLE)
            examples = build_training_examples(doc, spans)[0]
            losses = train_linker(examples, head, eps, scorer, epochs=3, step=0.1)
            spans = generate_candidates(span_keys(self.TOKENS, 7), self.TABLE)
            out, steps = iterative_refine([(self.TOKENS, spans)], scorer, head, eps, 3)
            return losses, steps, [(s.start, s.end, s.state, s.entity) for s in out]

        reference = self.scorer()
        losses, steps, spans = run(reference)
        assert run(LinkingProtocolOnly(reference)) == (losses, steps, spans)
        assert any(step.decoded for step in steps)

    def test_errors(self):
        scorer = self.scorer()
        span = CandidateSpan(0, 1, (cand("City"),))
        with pytest.raises(ValueError, match="no spans"):
            word_mask_states([(self.TOKENS, [], None)], scorer)
        with pytest.raises(ValueError, match="exceeds document length"):
            word_mask_states(
                [(self.TOKENS, [span, CandidateSpan(10, 12, (cand("City"),))], None)], scorer
            )
        with pytest.raises(DataError, match=r"no \[MASK\] row"):
            word_mask_states([(self.TOKENS, [span], None)], self.scorer(with_mask=False),
                             use_emask=False)
        with pytest.raises(DataError, match="missing from entity space"):
            word_mask_states([(self.TOKENS, [CandidateSpan(0, 1, (cand("Mars"),))], None)], scorer)
        with pytest.raises(DataError, match="missing from entity space"):
            word_mask_states([(self.TOKENS, [span], {(2, 3): "ENTITY/Mars"})], scorer)
        wide = ent_space_with({"ENTITY/City": np.ones(self.D + 1)}, self.D + 1)
        with pytest.raises(ValueError, match="different dimensions"):
            word_mask_states([(self.TOKENS, [span], None)], ReferenceScorer(scorer.wp, wide))


    @pytest.mark.parametrize("bad", [(3, 3), (4, 2), (-1, 2)])
    def test_bad_decoded_span_is_an_error(self, bad):
        span = CandidateSpan(0, 1, (cand("City"),))
        with pytest.raises(ValueError, match=r"bad decoded span"):
            word_mask_states([(self.TOKENS, [span], {bad: "ENTITY/NYC"})], self.scorer())

    def test_decoded_spans_in_the_document_must_be_disjoint(self):
        scorer = self.scorer()
        span = CandidateSpan(0, 1, (cand("City"),))
        with pytest.raises(ValueError, match=r"bad decoded span \[6, 9\)"):
            word_mask_states(
                [(self.TOKENS, [span], {(5, 8): "ENTITY/NYC", (6, 9): "ENTITY/Walks"})], scorer
            )
        # A span past the document's end is an error too, overlapping or not;
        # one that ends at the document's end is not.
        last = {(9, 11): "ENTITY/City"}
        for a, b in [(10, 12), (11, 13), (12, 14)]:
            with pytest.raises(ValueError, match=rf"bad decoded span \[{a}, {b}\)"):
                word_mask_states([(self.TOKENS, [span], {**last, (a, b): "ENTITY/NY"})], scorer)
        states = word_mask_states([(self.TOKENS, [span], last)], scorer)
        assert np.array_equal(states, self.oracle(scorer, [span], last, True))


class TestEntityDistribution:
    """A span's posterior from ``candidate_groups`` and ``candidate_probs``."""

    def test_zero_head_with_suppressed_null_returns_priors(self):
        rng = np.random.default_rng(7)
        head = AffineHead.zeros(DIM)
        eps = NullEntityParams.zeros(DIM, b=-1e9)
        ents = {f"E{i}": grid_values(rng, DIM) for i in range(4)}
        space = ent_space_with(
            {f"ENTITY/{n}": v for n, v in ents.items()}, DIM
        )
        priors = np.array([0.4, 0.3, 0.2, 0.1])
        candidates = [Candidate(f"ENTITY/E{i}", priors[i]) for i in range(4)]
        h = grid_values(rng, DIM)
        dist = span_posterior(h, head, candidates, space, eps)
        assert dist.shape == (5,)
        np.testing.assert_allclose(dist[:-1], priors, atol=1e-9)
        assert dist[-1] <= 1e-12

    def test_prior_scaling_leaves_candidate_ratios_unchanged(self):
        rng = np.random.default_rng(8)
        head = AffineHead(grid_values(rng, DIM, DIM), grid_values(rng, DIM))
        eps = NullEntityParams(grid_values(rng, DIM), 0.25)
        space = ent_space_with(
            {f"ENTITY/E{i}": grid_values(rng, DIM) for i in range(3)}, DIM
        )
        priors = [0.5, 0.25, 0.125]
        h = grid_values(rng, DIM)
        base = [Candidate(f"ENTITY/E{i}", p) for i, p in enumerate(priors)]
        scaled = [Candidate(c.entity, c.prior * 0.37) for c in base]
        d0 = span_posterior(h, head, base, space, eps)
        d1 = span_posterior(h, head, scaled, space, eps)
        np.testing.assert_allclose(
            d0[:-1] / d0[:-1].sum(), d1[:-1] / d1[:-1].sum(), atol=1e-9
        )

    def test_hand_computed_posterior(self):
        head = AffineHead.identity(2)
        eps = NullEntityParams(np.array([2.0, 0.0]), 0.25)
        space = ent_space_with(
            {"ENTITY/A": [1.0, 0.0], "ENTITY/B": [0.0, 1.0]}, 2
        )
        h = np.array([1.0, 0.0])
        candidates = [Candidate("ENTITY/A", 0.5), Candidate("ENTITY/B", 1.0)]
        dist = span_posterior(h, head, candidates, space, eps)
        logits = np.array([1.0 + np.log(0.5), 0.0, 2.0 + 0.25])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_errors(self):
        head = AffineHead.identity(2)
        eps = NullEntityParams.zeros(2)
        space = ent_space_with({"ENTITY/A": [1.0, 0.0]}, 2)
        h = np.zeros(2)
        with pytest.raises(ValueError, match="no candidates"):
            span_posterior(h, head, [], space, eps)
        with pytest.raises(ValueError, match="must be positive"):
            span_posterior(
                h, head, [Candidate("ENTITY/A", 0.0)], space, eps
            )
        with pytest.raises(DataError, match="missing from entity space"):
            span_posterior(
                h, head, [Candidate("ENTITY/Zz", 1.0)], space, eps
            )


class TestCandidateBatches:
    """A span's probabilities and an example's loss do not depend on the
    batch they are computed in. Standard-normal values make every product
    round, and the spans have 1 to 9 candidates, so the softmax sums of the
    wider ones are grouped pairwise."""

    D = 12
    N = 150  # more than one ROW_BLOCK of states

    def world(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"ENTITY/E{i}" for i in range(30)]
        space = ent_space_with({e: rng.standard_normal(self.D) for e in names}, self.D)
        lists = [
            tuple(Candidate(str(e), float(rng.uniform(0.01, 1.0)))
                  for e in rng.choice(names, size=k, replace=False))
            for k in [*range(1, 10), *rng.integers(1, 10, size=self.N - 9)]
        ]
        states = rng.standard_normal((self.N, self.D))
        head = AffineHead(rng.standard_normal((self.D, self.D)), rng.standard_normal(self.D))
        eps = NullEntityParams(rng.standard_normal(self.D), float(rng.standard_normal()))
        return rng, space, lists, states, head, eps

    def test_probabilities_alone_and_in_a_shuffled_batch(self):
        rng, space, lists, states, head, eps = self.world(3)
        perm = rng.permutation(self.N)
        groups = candidate_groups([lists[i] for i in perm], space)
        assert len(groups) == 9
        batched = {}
        probs = candidate_probs(head.apply(states[perm]), groups, (eps.e, eps.b))
        for (rows, _, _), p in zip(groups, probs):
            batched.update(zip(perm[rows], p))
        for i, cands in enumerate(lists):
            alone = span_posterior(states[i], head, cands, space, eps)
            assert np.array_equal(batched[i], alone)

    def test_losses_equal_head_gradients_losses(self):
        rng, space, lists, states, head, eps = self.world(4)
        gold = np.array([rng.integers(0, len(c) + 1) for c in lists])
        groups = candidate_groups(lists, space)
        loss = candidate_gradients(head.apply(states), groups, gold, (eps.e, eps.b))[0]
        for i, cands in enumerate(lists):
            rows = [(row(space, c.entity).astype(np.float64), math.log(c.prior)) for c in cands]
            one = head_gradients(states[i], head, rows + [(eps.e, eps.b)], int(gold[i]))
            assert np.array_equal(loss[i], one.loss)


def training_world(seed=11):
    """Three-token document with a multi-candidate table, one unannotated
    span, and one gold entity missing from its span's candidates."""
    rng = np.random.default_rng(seed)
    wp = wp_space_with(
        {w: grid_values(rng, DIM) for w in ("Adams", "visits", "Platt")}, DIM
    )
    names = ["A1", "A2", "P1", "P2", "V1"]
    ent = ent_space_with(
        {f"ENTITY/{n}": grid_values(rng, DIM) for n in names}, DIM
    )
    table = {
        "Adams": (cand("A1", 0.6), cand("A2", 0.4)),
        "visits": (cand("V1", 0.5),),
        "Platt": (cand("P1", 0.7), cand("P2", 0.3)),
    }
    doc = Document(
        "d0",
        ("Adams", "visits", "Platt"),
        (GoldAnnotation(0, 1, "ENTITY/A1"), GoldAnnotation(2, 3, "ENTITY/P2")),
    )
    return doc, table, wp, ent


class TestBuildTrainingExamples:
    def test_gold_and_null_assignment(self):
        doc, table, wp, _ = training_world()
        spans = generate_candidates(span_keys(doc.tokens, 7), table)
        examples, dropped = build_training_examples(doc, spans)
        assert dropped == 0
        assert [ex.gold for ex in examples] == [
            "ENTITY/A1", None, "ENTITY/P2",
        ]
        assert [len(ex.candidates) for ex in examples] == [2, 1, 2]

    def test_unreachable_gold_dropped_with_count(self):
        doc, table, wp, _ = training_world()
        bad = Document(
            doc.doc_id, doc.tokens,
            (GoldAnnotation(0, 1, "ENTITY/Nowhere"), doc.golds[1]),
        )
        spans = generate_candidates(span_keys(bad.tokens, 7), table)
        examples, dropped = build_training_examples(bad, spans)
        assert dropped == 1
        assert [ex.gold for ex in examples] == [None, "ENTITY/P2"]


class TestTrainLinker:
    def make_setup(self, seed=11):
        doc, table, wp, ent = training_world(seed)
        spans = generate_candidates(span_keys(doc.tokens, 7), table)
        examples, dropped = build_training_examples(doc, spans)
        assert dropped == 0
        rng = np.random.default_rng(seed + 100)
        head = AffineHead(grid_values(rng, DIM, DIM), grid_values(rng, DIM))
        eps = NullEntityParams(grid_values(rng, DIM), 0.125)
        scorer = ReferenceScorer(wp, ent)
        return examples, head, eps, scorer, ent

    def loss_at(self, examples, head, eps, scorer, ent):
        h = AffineHead(head.a.copy(), head.c.copy())
        e = NullEntityParams(eps.e.copy(), eps.b)
        return train_linker(examples, h, e, scorer, epochs=0, step=0.1)[0]

    def test_loss_trajectory_length_and_decrease(self):
        examples, head, eps, scorer, ent = self.make_setup()
        losses = train_linker(examples, head, eps, scorer, epochs=20, step=0.1)
        assert len(losses) == 21
        for before, after in zip(losses, losses[1:]):
            assert after < before

    def test_parameters_updated_in_place_and_entities_frozen(self):
        examples, head, eps, scorer, ent = self.make_setup()
        a0, c0 = head.a.copy(), head.c.copy()
        e0, b0 = eps.e.copy(), eps.b
        rows0 = ent.matrix.copy()
        train_linker(examples, head, eps, scorer, epochs=3, step=0.1)
        assert not np.array_equal(head.a, a0)
        assert not np.array_equal(head.c, c0)
        assert not np.array_equal(eps.e, e0)
        assert eps.b != b0
        np.testing.assert_array_equal(ent.matrix, rows0)

    def test_gradient_matches_finite_differences(self):
        examples, head, eps, scorer, ent = self.make_setup()
        step = 1e-3
        h1 = AffineHead(head.a.copy(), head.c.copy())
        e1 = NullEntityParams(eps.e.copy(), eps.b)
        train_linker(examples, h1, e1, scorer, epochs=1, step=step)
        grads = {
            "a": (head.a - h1.a) / step,
            "c": (head.c - h1.c) / step,
            "e": (eps.e - e1.e) / step,
            "b": (eps.b - e1.b) / step,
        }

        delta = 1e-6

        def fd(param, index):
            out = {}
            for sign in (+1, -1):
                hh = AffineHead(head.a.copy(), head.c.copy())
                ee = NullEntityParams(eps.e.copy(), eps.b)
                target = {"a": hh.a, "c": hh.c, "e": ee.e}
                if param == "b":
                    ee.b += sign * delta
                else:
                    target[param][index] += sign * delta
                out[sign] = self.loss_at(examples, hh, ee, scorer, ent)
            return (out[+1] - out[-1]) / (2 * delta)

        for i in range(DIM):
            for j in range(DIM):
                assert grads["a"][i, j] == pytest.approx(
                    fd("a", (i, j)), rel=1e-4, abs=1e-7
                )
            assert grads["c"][i] == pytest.approx(fd("c", (i,)), rel=1e-4, abs=1e-7)
            assert grads["e"][i] == pytest.approx(fd("e", (i,)), rel=1e-4, abs=1e-7)
        assert grads["b"] == pytest.approx(fd("b", None), rel=1e-4, abs=1e-7)

    def test_empty_examples_rejected(self):
        _, head, eps, scorer, ent = self.make_setup()
        with pytest.raises(ValueError, match="no training examples"):
            train_linker([], head, eps, scorer, epochs=50, step=0.1)

    def test_scorer_without_entity_space_rejected(self):
        doc, table, wp, _ = training_world()
        spans = generate_candidates(span_keys(doc.tokens, 7), table)
        examples = build_training_examples(doc, spans)[0]
        head, eps = AffineHead.zeros(DIM), NullEntityParams.zeros(DIM)
        with pytest.raises(ValueError, match="needs a scorer with an entity space"):
            train_linker(examples, head, eps, ReferenceScorer(wp, None),
                         epochs=50, step=0.1, use_emask=False)


def ceil_div(a, b):
    return -(-a // b)


class TestIterativeRefine:
    def run_schedule(self, n, j_total):
        tokens, table, scorer = flat_linking_world(n)
        spans = generate_candidates(span_keys(tokens, 7), table)
        assert len(spans) == n
        head = AffineHead.zeros(2)
        eps = NullEntityParams.zeros(2, b=-1e9)
        return iterative_refine(
            [(tokens, spans)], scorer, head, eps, iterations=j_total
        )

    @pytest.mark.parametrize("n,j_total", [(1, 1), (5, 3), (7, 5), (20, 4), (3, 5)])
    def test_cumulative_schedule_is_exact(self, n, j_total):
        spans, steps = self.run_schedule(n, j_total)
        cumulative = 0
        for step in steps:
            cumulative += len(step.decoded)
            assert cumulative == ceil_div(step.iteration * n, j_total)
        assert cumulative == n
        assert all(s.state is SpanState.DECODED for s in spans)

    def test_ties_decode_in_span_order(self):
        spans, steps = self.run_schedule(6, 3)
        order = [d[0] for step in steps for d in step.decoded]
        assert order == sorted(order)
        assert [len(s.decoded) for s in steps] == [2, 2, 2]

    def test_zero_quota_round_is_logged_and_skipped(self):
        # ceil(3j/5) for j=1..4 is 1,2,2,3: the third round has quota 0.
        _, steps = self.run_schedule(3, 5)
        assert [s.quota for s in steps] == [1, 1, 0, 1]
        assert [len(s.decoded) for s in steps] == [1, 1, 0, 1]
        assert [s.iteration for s in steps] == [1, 2, 3, 4]

    def overlap_world(self):
        wp = wp_space_with({w: [0.0, 0.0] for w in ("a", "b", "c")}, 2)
        ent = ent_space_with(
            {f"ENTITY/{n}": [0.0, 0.0] for n in ("X1", "X2", "X3")}, 2
        )
        table = {
            "a": (cand("X1"),),
            "a b": (cand("X2"),),
            "b c": (cand("X3"),),
        }
        return ["a", "b", "c"], table, ReferenceScorer(wp, ent)

    def test_overlapping_candidates_never_both_decode(self):
        tokens, table, scorer = self.overlap_world()
        spans = generate_candidates(span_keys(tokens, 7), table)
        assert [(s.start, s.end) for s in spans] == [(0, 1), (0, 2), (1, 3)]
        out, steps = iterative_refine(
            [(tokens, spans)], scorer, AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1e9), iterations=1,
        )
        by_span = {(s.start, s.end): s.state for s in out}
        assert by_span[(0, 1)] is SpanState.DECODED
        assert by_span[(1, 3)] is SpanState.DECODED
        assert by_span[(0, 2)] is SpanState.REJECTED
        decoded = [s for s in out if s.state is SpanState.DECODED]
        for i, a in enumerate(decoded):
            for b in decoded[i + 1:]:
                assert not a.overlaps(b)
        # The skipped overlap does not consume quota: both non-overlapping
        # spans decode in the single round.
        assert steps[0].quota == 3
        assert len(steps[0].decoded) == 2

    def test_overlap_skips_carry_across_rounds(self):
        tokens, table, scorer = self.overlap_world()
        spans = generate_candidates(span_keys(tokens, 7), table)
        out, steps = iterative_refine(
            [(tokens, spans)], scorer, AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1e9), iterations=2,
        )
        assert [len(s.decoded) for s in steps] == [2, 0]
        states = {(s.start, s.end): s.state for s in out}
        assert states[(0, 2)] is SpanState.REJECTED

    def test_confidence_orders_decoding(self):
        wp = wp_space_with({"a": [0.0, 0.0], "b": [0.0, 0.0]}, 2)
        ent = ent_space_with(
            {"ENTITY/A": [0.0, 0.0], "ENTITY/B": [0.0, 0.0]}, 2
        )
        table = {"a": (cand("A", 0.5),), "b": (cand("B", 1.0),)}
        tokens = ["a", "b"]
        spans = generate_candidates(span_keys(tokens, 7), table)
        _, steps = iterative_refine(
            [(tokens, spans)], ReferenceScorer(wp, ent), AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1.0), iterations=2,
        )
        # The prior-1.0 span is more confidently an entity, so it goes first.
        assert steps[0].decoded == ((1, 2, "ENTITY/B"),)
        assert steps[1].decoded == ((0, 1, "ENTITY/A"),)

    def test_null_dominant_spans_are_rejected(self):
        wp = wp_space_with({"a": [0.0, 0.0]}, 2)
        ent = ent_space_with({"ENTITY/A": [0.0, 0.0]}, 2)
        table = {"a": (cand("A", 0.25),)}
        spans = generate_candidates(span_keys(["a"], 7), table)
        out, steps = iterative_refine(
            [(["a"], spans)], ReferenceScorer(wp, ent), AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=0.0), iterations=3,
        )
        # log 0.25 < 0: the null entity wins the argmax, nothing is selectable.
        assert out[0].state is SpanState.REJECTED
        assert steps == [type(steps[0])(1, 0, 0, ())]

    def test_iteration_count_does_not_change_final_set(self):
        tokens, table, scorer = self.overlap_world()
        results = []
        for iterations in (1, 3):
            spans = generate_candidates(span_keys(tokens, 7), table)
            out, _ = iterative_refine(
                [(tokens, spans)], scorer, AffineHead.zeros(2),
                NullEntityParams.zeros(2, b=-1e9), iterations=iterations,
            )
            results.append(
                sorted(
                    (s.start, s.end, s.entity)
                    for s in out
                    if s.state is SpanState.DECODED
                )
            )
        assert results[0] == results[1]

    def test_thread_count_does_not_change_results(self):
        tokens, table, scorer = flat_linking_world(8)
        spans = generate_candidates(span_keys(tokens, 7), table)
        _, steps = iterative_refine(
            [(tokens, spans)], scorer, AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1e9), iterations=3,
        )
        assert [s.decoded for s in steps] == [
            ((0, 1, "ENTITY/E0"), (1, 2, "ENTITY/E1"), (2, 3, "ENTITY/E2")),
            ((3, 4, "ENTITY/E3"), (4, 5, "ENTITY/E4"), (5, 6, "ENTITY/E5")),
            ((6, 7, "ENTITY/E6"), (7, 8, "ENTITY/E7")),
        ]

    def test_each_round_scores_only_the_undecided_spans(self, monkeypatch):
        import entkit.entity_linking as el

        tokens, table, scorer = self.overlap_world()
        tokens = tokens * 3
        spans = generate_candidates(span_keys(tokens, 7), table)
        calls = []
        groups, states = el.candidate_groups, el.span_mask_states

        def recording_groups(lists, ent):
            calls.append(("groups", list(lists), [s.state for s in spans]))
            return groups(lists, ent)

        def recording_states(docs, *args):
            out = states(docs, *args)
            calls.append(("states", [s for _, scored, _ in docs for s in scored], len(out)))
            return out

        monkeypatch.setattr(el, "candidate_groups", recording_groups)
        monkeypatch.setattr(el, "span_mask_states", recording_states)
        _, steps = iterative_refine(
            [(tokens, spans)], scorer, AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1e9), iterations=3,
        )
        assert len(calls) == 2 * len(steps) and len(steps) > 1
        for (kind_g, lists, before), (kind_s, scored, n_states) in zip(
            calls[::2], calls[1::2]
        ):
            assert (kind_g, kind_s) == ("groups", "states")
            undecided = [
                s for s, state in zip(spans, before) if state is SpanState.UNDECIDED
            ]
            assert scored == undecided and all(a is b for a, b in zip(scored, undecided))
            assert lists == [s.candidates for s in undecided]
            assert n_states == len(undecided)
        assert len(calls[-1][1]) < len(spans)

    def test_rounds_stop_once_no_document_is_left_going(self, monkeypatch):
        import entkit.entity_linking as el

        tokens, table, scorer = flat_linking_world(2)
        docs = [([w], generate_candidates(span_keys([w], 7), table)) for w in tokens]
        calls = []
        blocks = el._blocks

        def counting(items, size):
            calls.append(len(items))
            return blocks(items, size)

        monkeypatch.setattr(el, "_blocks", counting)
        out, steps = iterative_refine(
            docs, scorer, AffineHead.zeros(2), NullEntityParams.zeros(2, b=-1e9),
            iterations=1000,
        )
        assert all(s.state is SpanState.DECODED for s in out)
        assert [(s.doc, s.iteration) for s in steps] == [(0, 1), (1, 1)]
        # One round decodes both documents; no later round takes a block.
        assert calls == [2]

    def test_errors(self):
        tokens, table, scorer = flat_linking_world(2)
        spans = generate_candidates(span_keys(tokens, 7), table)
        with pytest.raises(ValueError, match="at least one iteration"):
            iterative_refine(
                [(tokens, spans)], scorer, AffineHead.zeros(2),
                NullEntityParams.zeros(2), iterations=0,
            )
        no_ent = ReferenceScorer(scorer.wp, None)
        with pytest.raises(ValueError, match="entity space"):
            iterative_refine(
                [(tokens, spans)], no_ent, AffineHead.zeros(2),
                NullEntityParams.zeros(2),
            )


class TestCanonicalEntity:
    def test_fixpoint_without_redirect(self):
        assert canonical_entity("ENTITY/X", {}) == "ENTITY/X"

    def test_chain_resolves(self):
        redirects = {"ENTITY/A": "ENTITY/B", "ENTITY/B": "ENTITY/C"}
        assert canonical_entity("ENTITY/A", redirects) == "ENTITY/C"

    def test_fifteen_hops_resolve(self):
        redirects = {f"ENTITY/A{i}": f"ENTITY/A{i + 1}" for i in range(15)}
        assert canonical_entity("ENTITY/A0", redirects) == "ENTITY/A15"

    def test_sixteen_hops_exceed_depth(self):
        redirects = {f"ENTITY/A{i}": f"ENTITY/A{i + 1}" for i in range(16)}
        with pytest.raises(DataError, match="exceeds depth"):
            canonical_entity("ENTITY/A0", redirects)

    def test_cycle_detected(self):
        redirects = {"ENTITY/A": "ENTITY/B", "ENTITY/B": "ENTITY/A"}
        with pytest.raises(DataError, match="exceeds depth"):
            canonical_entity("ENTITY/A", redirects)


class TestStrongMatchF1:
    def test_identity_scores_one(self):
        anns = [[(0, 1, "ENTITY/A"), (3, 5, "ENTITY/B")]]
        scores = strong_match_f1(anns, anns)
        assert scores.micro == (1.0, 1.0, 1.0)
        assert scores.macro == (1.0, 1.0, 1.0)

    def test_half_precision_half_recall(self):
        golds = [[(0, 1, "ENTITY/A"), (2, 3, "ENTITY/B")]]
        preds = [[(0, 1, "ENTITY/A"), (5, 6, "ENTITY/C")]]
        scores = strong_match_f1(preds, golds)
        assert scores.micro == (0.5, 0.5, 0.5)

    def test_boundary_mismatch_is_no_match(self):
        golds = [[(0, 2, "ENTITY/A")]]
        preds = [[(0, 1, "ENTITY/A")]]
        assert strong_match_f1(preds, golds).micro.f1 == 0.0

    def test_redirects_canonicalize_both_sides(self):
        redirects = {
            "ENTITY/Dave_Platt_(footballer)": "ENTITY/David_Platt",
            "ENTITY/D._Platt": "ENTITY/David_Platt",
        }
        golds = [[(0, 1, "ENTITY/D._Platt")]]
        preds = [[(0, 1, "ENTITY/Dave_Platt_(footballer)")]]
        assert strong_match_f1(preds, golds, redirects).micro == (1.0, 1.0, 1.0)
        assert strong_match_f1(preds, golds).micro.f1 == 0.0

    def test_micro_pools_macro_averages(self):
        golds = [[(0, 1, "ENTITY/A")], [(0, 1, "ENTITY/B"), (2, 3, "ENTITY/C"),
                                        (4, 5, "ENTITY/D")]]
        preds = [[(0, 1, "ENTITY/A")], [(0, 1, "ENTITY/B"), (2, 3, "ENTITY/X"),
                                        (4, 5, "ENTITY/Y")]]
        scores = strong_match_f1(preds, golds)
        assert scores.micro.precision == pytest.approx(0.5)
        assert scores.micro.recall == pytest.approx(0.5)
        assert scores.macro.precision == pytest.approx((1.0 + 1 / 3) / 2)

    def test_empty_conventions(self):
        both_empty = strong_match_f1([[]], [[]])
        assert both_empty.micro == (1.0, 1.0, 1.0)
        assert both_empty.macro == (1.0, 1.0, 1.0)
        missed = strong_match_f1([[]], [[(0, 1, "ENTITY/A")]])
        assert missed.micro == (0.0, 0.0, 0.0)
        spurious = strong_match_f1([[(0, 1, "ENTITY/A")]], [[]])
        assert spurious.micro == (0.0, 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same documents"):
            strong_match_f1([[]], [[], []])


class TestNormalizeEntity:
    def test_symbol_passthrough(self):
        assert normalize_entity("ENTITY/David_Platt") == "ENTITY/David_Platt"

    def test_url_conversion(self):
        assert (
            normalize_entity("https://en.wikipedia.org/wiki/David_Platt")
            == "ENTITY/David_Platt"
        )

    def test_garbage_rejected(self):
        with pytest.raises(DataError, match="not an entity URL"):
            normalize_entity("David Platt")


class TestLoadDocuments:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "docs.jsonl"
        f.write_text(
            '{"doc_id": "d0", "tokens": ["a", "b"], "golds": '
            '[{"start": 1, "end": 2, "entity": '
            '"https://en.wikipedia.org/wiki/B_Thing"}, '
            '{"start": 0, "end": 1, "entity": "ENTITY/A_Thing"}]}\n'
            '{"doc_id": "d1", "tokens": ["c"]}\n',
            encoding="utf-8",
        )
        docs = load_documents(f)
        assert [d.doc_id for d in docs] == ["d0", "d1"]
        assert [g.entity for g in docs[0].golds] == [
            "ENTITY/A_Thing", "ENTITY/B_Thing",  # sorted by span
        ]
        assert docs[1].golds == ()

    @pytest.mark.parametrize(
        "line,msg",
        [
            ("not json", "invalid JSON"),
            ('{"tokens": ["a"]}', "missing doc_id/tokens"),
            (
                '{"doc_id": "d", "tokens": ["a"], "golds": [{"start": 0}]}',
                "bad gold annotation",
            ),
            (
                '{"doc_id": "d", "tokens": ["a", "b"], "golds": '
                '[{"start": 0, "end": 2, "entity": "ENTITY/X"}, '
                '{"start": 1, "end": 2, "entity": "ENTITY/Y"}]}',
                "overlapping gold spans",
            ),
            (
                '{"doc_id": "d", "tokens": ["a"], "golds": '
                '[{"start": 0, "end": 2, "entity": "ENTITY/X"}]}',
                "exceeds document length",
            ),
        ],
    )
    def test_errors(self, tmp_path, line, msg):
        f = tmp_path / "docs.jsonl"
        f.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=msg):
            load_documents(f)


class TestLoadRedirects:
    def test_happy_path_with_urls(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text(
            "ENTITY/A\tENTITY/B\n"
            "https://en.wikipedia.org/wiki/C\tENTITY/D\n",
            encoding="utf-8",
        )
        assert load_redirects(f) == {
            "ENTITY/A": "ENTITY/B", "ENTITY/C": "ENTITY/D",
        }

    def test_errors(self, tmp_path):
        f = tmp_path / "r.tsv"
        f.write_text("ENTITY/A\n", encoding="utf-8")
        with pytest.raises(DataError, match="2 tab-separated fields"):
            load_redirects(f)
        f.write_text("ENTITY/A\tENTITY/B\nENTITY/A\tENTITY/C\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate redirect"):
            load_redirects(f)
