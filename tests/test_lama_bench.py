"""Cloze benchmark rendering, ranking, macro scoring, and name filtering."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    TableScorer, ent_space_with, keyed, random_uhn_fixture, sequences, wp_space_with,
)
from oracles import person_name_filter, render
from entkit.embeddings import Vocabulary
from entkit.errors import DataError
from entkit.lama_bench import (
    DEFAULT_NAME_NOUN_BY_RELATION,
    PROBE_TEMPLATE,
    KbTriple,
    RelationTemplate,
    build_lama_uhn,
    hits_at_k,
    load_lama_dir,
    load_templates,
    rank_answers,
    render_question,
    resolve_subjects,
    string_match_filter,
)
from entkit.scorer import ROW_BLOCK, ReferenceScorer
from entkit.text_input import InputMode, Token, TokenKind, TokenSequence


class TestTypes:
    def test_triple_validation(self):
        with pytest.raises(ValueError, match="non-empty answer"):
            KbTriple("subject", "")
        with pytest.raises(ValueError, match="ENTITY/"):
            KbTriple("subject", "obj", sub_entity="Jean_Marais")
        t = KbTriple("s", "o", sub_entity="ENTITY/X")
        assert t.sub_entity == "ENTITY/X"

    def test_template_placeholder_validation(self):
        with pytest.raises(DataError, match=r"\[X\] exactly once"):
            RelationTemplate("P1", "no placeholders [MASK].")
        with pytest.raises(DataError, match=r"\[MASK\] exactly once"):
            RelationTemplate("P1", "[X] is [MASK] and [MASK].")
        with pytest.raises(DataError, match="unknown name noun"):
            RelationTemplate("P1", "[X] is [MASK].", name_noun="animal")

    def test_relation_noun_assignments(self):
        assert DEFAULT_NAME_NOUN_BY_RELATION["P103"] == "language"
        assert DEFAULT_NAME_NOUN_BY_RELATION["P1412"] == "language"
        assert DEFAULT_NAME_NOUN_BY_RELATION["P27"] == "country"
        for rel in ("P19", "P20", "place_of_birth", "place_of_death"):
            assert DEFAULT_NAME_NOUN_BY_RELATION[rel] == "city"

    def test_probe_template_shape(self):
        assert PROBE_TEMPLATE == (
            "[X] is a common name in the following {noun}: [MASK]."
        )


TEMPLATE = RelationTemplate(
    "P103", "The native language of [X] is [MASK].", name_noun="language"
)
WORDS = {
    w: [0.0, 0.0]
    for w in ["The", "native", "language", "of", "is", ".", "Jean", "Mara",
              "##is", "plays"]
}
WP = wp_space_with(WORDS, 2)
ENT = ent_space_with({"ENTITY/Jean_Marais": [1.0, 1.0]}, 2)


class TestRenderQuestion:
    def triple(self, entity=None):
        return KbTriple("Jean Marais", "French", sub_entity=entity)

    def test_plain_rendering_separates_mask_and_period(self):
        seq = render_question(self.triple(), TEMPLATE, InputMode.BERT, None, WP.vocab)
        assert render(seq) == [
            "[CLS]", "The", "native", "language", "of", "Jean", "Mara",
            "##is", "is", "[MASK]", ".", "[SEP]",
        ]
        kinds = [t.kind for t in seq.tokens]
        assert kinds.count(TokenKind.MASK) == 1

    def test_concat_injects_entity_and_surface(self):
        seq = render_question(
            self.triple("ENTITY/Jean_Marais"), TEMPLATE, InputMode.CONCAT, ENT,
            WP.vocab,
        )
        assert render(seq) == [
            "[CLS]", "The", "native", "language", "of", "ENTITY/Jean_Marais",
            "/", "Jean", "Mara", "##is", "is", "[MASK]", ".", "[SEP]",
        ]

    def test_replace_substitutes_entity(self):
        seq = render_question(
            self.triple("ENTITY/Jean_Marais"), TEMPLATE, InputMode.REPLACE, ENT,
            WP.vocab,
        )
        assert render(seq) == [
            "[CLS]", "The", "native", "language", "of", "ENTITY/Jean_Marais",
            "is", "[MASK]", ".", "[SEP]",
        ]

    def test_unresolved_subject_makes_replace_equal_bert(self):
        bert = render_question(self.triple(), TEMPLATE, InputMode.BERT, ENT, WP.vocab)
        rep = render_question(self.triple(), TEMPLATE, InputMode.REPLACE, ENT, WP.vocab)
        assert render(rep) == render(bert)

    def test_subject_at_template_start(self):
        template = RelationTemplate("P0", "[X] plays [MASK].")
        seq = render_question(
            KbTriple("Jean", "x"), template, InputMode.BERT, None, WP.vocab
        )
        assert render(seq) == ["[CLS]", "Jean", "plays", "[MASK]", ".", "[SEP]"]

    def test_empty_subject_renders_without_mention(self):
        seq = render_question(
            KbTriple("", "French"), TEMPLATE, InputMode.CONCAT, ENT, WP.vocab
        )
        assert render(seq) == [
            "[CLS]", "The", "native", "language", "of", "is", "[MASK]", ".",
            "[SEP]",
        ]


class TestAnswerQuestion:
    def test_full_ranking_descending(self):
        vocab = Vocabulary(["gold", "r1", "r2"])
        scorer = TableScorer(vocab, {"Jean": ["r1", "gold", "r2"]})
        seq = render_question(
            KbTriple("Jean", "gold"), TEMPLATE, InputMode.BERT, None,
            Vocabulary(["Jean"]),
        )
        ranking = rank_answers([seq], scorer, vocab, 3)[0]
        assert [vocab.symbols[i] for i in ranking] == ["r1", "gold", "r2"]
        probs = scorer.score_answers(*keyed([seq]), vocab.symbols)[0]
        assert list(probs[ranking]) == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)

    def test_ties_break_by_ascending_vocab_id(self):
        # Zero vectors everywhere: every answer gets the same probability, so
        # the ranking must be exactly the vocabulary order.
        scorer = ReferenceScorer(WP)
        vocab = Vocabulary(["native", "The", "of"])
        seq = render_question(
            KbTriple("Jean", "The"), TEMPLATE, InputMode.BERT, None,
            WP.vocab,
        )
        ranking = rank_answers([seq], scorer, vocab, 3)[0]
        assert ranking == [0, 1, 2]

    def test_mask_count_enforced(self):
        scorer = ReferenceScorer(WP)
        vocab = Vocabulary(["The"])
        no_mask = TokenSequence((Token.wordpiece("The"),))
        with pytest.raises(ValueError, match="exactly one mask"):
            rank_answers([no_mask], scorer, vocab, 1)
        two = TokenSequence((Token.mask(), Token.mask()))
        with pytest.raises(ValueError, match="exactly one mask"):
            rank_answers([two], scorer, vocab, 1)

    def test_empty_answer_vocab_rejected(self):
        scorer = ReferenceScorer(WP)
        with pytest.raises(ValueError, match="empty answer vocabulary"):
            rank_answers([TokenSequence((Token.mask(),))], scorer, Vocabulary([]), 1)


def random_questions(seed, n_questions, n_answers, dim=16):
    """A standard-normal reference scorer over ``n_answers`` words, its
    answer vocabulary (every word), and single-mask questions of 1-5 words."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_answers)]
    wp = wp_space_with(dict(zip(words, rng.standard_normal((n_answers, dim)))), dim)
    seqs = []
    for _ in range(n_questions):
        toks = [Token.wordpiece(words[i])
                for i in rng.integers(0, n_answers, int(rng.integers(1, 6)))]
        toks.insert(int(rng.integers(0, len(toks) + 1)), Token.mask())
        seqs.append(TokenSequence(tuple(toks)))
    return ReferenceScorer(wp), Vocabulary(words), seqs


class TestRankingBlocks:
    @pytest.mark.parametrize("n_questions", [63, 64, 65, 129])
    def test_rankings_equal_ranking_each_question_alone(self, n_questions):
        scorer, vocab, seqs = random_questions(n_questions, n_questions, 50)
        for k in (3, len(vocab)):
            rankings = rank_answers(seqs, scorer, vocab, k)
            assert len(rankings) == n_questions
            for seq, ranking in zip(seqs, rankings):
                assert rank_answers([seq], scorer, vocab, k) == [ranking]

    def test_questions_are_drawn_one_block_at_a_time(self):
        scorer, vocab, seqs = random_questions(0, 129, 50)
        drawn = []

        def rendered():
            for seq in seqs:
                drawn.append(seq)
                yield seq

        scored = []

        class Scorer:
            def score_answers(self, tokens, inputs, symbols):
                # No question past this block has been rendered yet.
                scored.append(len(inputs))
                assert len(drawn) == sum(scored)
                return scorer.score_answers(tokens, inputs, symbols)

        assert rank_answers(rendered(), Scorer(), vocab, 3) == rank_answers(seqs, scorer, vocab, 3)
        assert scored == [ROW_BLOCK, ROW_BLOCK, 1]

    def test_scorer_data_is_left_as_returned(self):
        # The scorer hands out views of one cached matrix, with ties planted;
        # ranking must not write into them.
        cached = np.random.default_rng(2).integers(0, 4, size=(150, 20)) / 7.0
        before = cached.copy()

        class CachedScorer:
            def score_answers(self, tokens, inputs, symbols):
                first = int(sequences(tokens, inputs)[0].tokens[0].text)
                return cached[first : first + len(inputs)]

        vocab = Vocabulary([f"a{i}" for i in range(cached.shape[1])])
        seqs = [TokenSequence((Token.wordpiece(str(q)), Token.mask()))
                for q in range(len(cached))]
        rankings = rank_answers(seqs, CachedScorer(), vocab, 5)
        assert np.array_equal(cached, before)
        for p, ranking in zip(cached, rankings):
            assert ranking == sorted(range(len(p)), key=lambda i: (-p[i], i))[:5]

    def test_memory_is_bounded_by_the_block_not_the_questions(self):
        n_questions, n_answers = 2_000, 3_000
        scorer, vocab, seqs = random_questions(0, n_questions, n_answers)
        bound = 6 * ROW_BLOCK * n_answers * 8
        assert n_questions * n_answers * 8 > bound  # all questions' probabilities
        tracemalloc.start()
        try:
            rankings = rank_answers(seqs, scorer, vocab, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(r) for r in rankings] == [3] * n_questions
        assert peak <= bound, peak

    def test_one_scorer_call_holds_two_blocks(self):
        # The (V, 64) product and its transposed copy, which is softmaxed in
        # place and returned, besides the (V, d) answer rows gathered per
        # call: no third (64, V) array.
        n_answers = 3_000
        scorer, vocab, seqs = random_questions(1, ROW_BLOCK + 1, n_answers)
        tokens, inputs = keyed(seqs)
        tracemalloc.start()
        try:
            probs = scorer.score_answers(tokens, inputs[:ROW_BLOCK], vocab.symbols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (ROW_BLOCK, n_answers)
        assert peak <= 2.5 * ROW_BLOCK * n_answers * 8, peak
        with pytest.raises(ValueError, match=f"at most {ROW_BLOCK} inputs"):
            scorer.score_answers(tokens, inputs, vocab.symbols)


def ranking_with_gold_at(position, symbols):
    order = [s for s in symbols if s != "gold"]
    order.insert(position, "gold")
    return order


class TestHitsAtK:
    def test_macro_not_micro(self):
        symbols = ["gold", "a", "b"]
        hit = ranking_with_gold_at(0, symbols)
        miss = ranking_with_gold_at(2, symbols)
        by_relation = {
            "A": [(hit, "gold"), (miss, "gold")],
            "B": [(hit, "gold"), (hit, "gold"), (hit, "gold")],
        }
        report = hits_at_k(by_relation, 1)
        assert report.per_relation == {"A": 0.5, "B": 1.0}
        assert report.overall == pytest.approx(0.75)
        micro = (1 + 3) / 5
        assert micro == pytest.approx(0.8)
        assert report.overall != pytest.approx(micro)
        assert report.counts == {"A": 2, "B": 3}

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        symbols = [f"s{i}" for i in range(6)]
        by_relation = {}
        for rel in ("R0", "R1", "R2"):
            pairs = []
            for _ in range(12):
                ranking = [str(s) for s in rng.permutation(symbols)]
                pairs.append((ranking, str(rng.choice(symbols))))
            by_relation[rel] = pairs
        reports = [hits_at_k(by_relation, k) for k in range(1, 7)]
        for lo, hi in zip(reports, reports[1:]):
            assert hi.overall >= lo.overall
            for rel in by_relation:
                assert hi.per_relation[rel] >= lo.per_relation[rel]
        assert reports[-1].overall == 1.0

    def test_errors(self):
        ranking = ranking_with_gold_at(0, ["gold", "x"])
        with pytest.raises(ValueError, match="at least 1"):
            hits_at_k({"A": [(ranking, "gold")]}, 0)
        with pytest.raises(ValueError, match="no questions"):
            hits_at_k({"A": []}, 1)
        with pytest.raises(ValueError, match="no relations"):
            hits_at_k({}, 1)

    def test_case_sensitive_membership(self):
        ranking = ranking_with_gold_at(0, ["gold", "x"])
        assert hits_at_k({"A": [(ranking, "GOLD")]}, 2).overall == 0.0


class TestStringMatchFilter:
    @pytest.mark.parametrize(
        "sub,obj",
        [
            ("Fiat Multipla", "Fiat"),
            ("Christmas Island", "Christmas"),
            ("Australian Senate", "Australia"),
        ],
    )
    def test_helpful_names_deleted(self, sub, obj):
        assert string_match_filter(KbTriple(sub, obj)) is True

    def test_unhelpful_name_kept(self):
        assert string_match_filter(KbTriple("Jean Marais", "French")) is False

    def test_case_insensitive_both_sides(self):
        assert string_match_filter(KbTriple("FIAT MULTIPLA", "fiat")) is True
        assert string_match_filter(KbTriple("fiat multipla", "FIAT")) is True


PROBE_VOCAB = Vocabulary(["AA", "BB", "CC", "DD"])
ANSWERS = Vocabulary(["gold", "r1", "r2", "r3", "r4"])
RANKS = {
    "AA": ["r1", "r2", "gold", "r3", "r4"],  # gold 3rd: inside top-3
    "BB": ["r1", "r2", "r3", "gold", "r4"],  # gold 4th: outside top-3
    "CC": ["r2", "r1", "r3", "gold", "r4"],  # gold 4th: outside top-3
    "DD": ["gold", "r1", "r2", "r3", "r4"],  # gold 1st
}
PROBE_SCORER = TableScorer(PROBE_VOCAB, RANKS)
ELIGIBLE = RelationTemplate("R1", "[X] speaks [MASK].", name_noun="language")


def name_probe_deletes(triple, **kwargs) -> bool:
    """Whether the name probe deletes ``triple`` under ``ELIGIBLE``, after
    checking that ``build_lama_uhn`` on a one-question dataset agrees with
    the per-question oracle."""
    want = person_name_filter(triple, ELIGIBLE, PROBE_SCORER, ANSWERS, **kwargs)
    result = build_lama_uhn({"R1": [triple]}, {"R1": ELIGIBLE}, PROBE_SCORER, ANSWERS, **kwargs)
    assert result.stage1["R1"] == [triple]
    assert (result.stage2["R1"] == []) is want
    return want


class TestPersonNameFilter:
    def test_any_part_in_top_k_deletes(self):
        assert name_probe_deletes(KbTriple("AA BB", "gold")) is True
        assert name_probe_deletes(KbTriple("BB DD", "gold")) is True

    def test_all_parts_below_top_k_keeps(self):
        assert name_probe_deletes(KbTriple("BB CC", "gold")) is False

    def test_top_k_zero_never_deletes(self):
        assert name_probe_deletes(KbTriple("DD", "gold"), top_k=0) is False

    def test_wider_top_k_deletes_rank_four(self):
        assert name_probe_deletes(KbTriple("BB CC", "gold"), top_k=4) is True

    def test_empty_subject_kept(self):
        assert name_probe_deletes(KbTriple("", "gold")) is False

    def test_ineligible_template_rejected(self):
        # A relation without a probe noun is never probed, so its questions
        # pass stage 2 even where the probe would delete them.
        class NeverScores(TableScorer):
            def score_answers(self, tokens, inputs, symbols):
                raise AssertionError("an ineligible relation was probed")

        triples = [KbTriple("AA", "gold"), KbTriple("DD", "gold")]
        plain = RelationTemplate("R2", "[X] speaks [MASK].")
        result = build_lama_uhn({"R2": triples}, {"R2": plain}, NeverScores(PROBE_VOCAB, RANKS),
                                ANSWERS)
        assert result.stage2["R2"] == triples

    def test_case_sensitivity_flag(self):
        triple = KbTriple("DD", "GOLD")
        assert name_probe_deletes(triple) is False
        assert name_probe_deletes(triple, case_insensitive=True) is True

    def test_probe_ignores_entity_knowledge(self):
        # The probe renders in plain wordpiece mode: a scorer keyed on entity
        # symbols never sees them, so resolution cannot affect deletion.
        resolved = KbTriple("AA", "gold", sub_entity="ENTITY/AA")
        assert name_probe_deletes(resolved) is True


def is_ordered_subset(sub, seq):
    it = iter(seq)
    return all(any(b is a for b in it) for a in sub)


class TestBuildLamaUhn:
    def test_stages_are_ordered_subsets(self):
        dataset, templates, scorer, answers = random_uhn_fixture()
        result = build_lama_uhn(dataset, templates, scorer, answers)
        for rel, triples in dataset.items():
            s1, s2 = result.stage1[rel], result.stage2[rel]
            assert is_ordered_subset(s1, triples)
            assert is_ordered_subset(s2, s1)
            assert result.stats[rel] == (len(triples), len(s1), len(s2))
            assert len(triples) >= len(s1) >= len(s2)

    def test_stage_one_matches_string_filter_exactly(self):
        dataset, templates, scorer, answers = random_uhn_fixture(seed=1)
        result = build_lama_uhn(dataset, templates, scorer, answers)
        for rel, triples in dataset.items():
            expected = [t for t in triples if not string_match_filter(t)]
            assert result.stage1[rel] == expected

    def test_ineligible_relations_skip_the_name_probe(self):
        dataset, templates, scorer, answers = random_uhn_fixture(seed=2)
        result = build_lama_uhn(dataset, templates, scorer, answers)
        assert result.stage2["R2"] == result.stage1["R2"]

    def test_stage_two_matches_name_filter_exactly(self):
        dataset, templates, scorer, answers = random_uhn_fixture(seed=3)
        result = build_lama_uhn(dataset, templates, scorer, answers)
        for rel in ("R0", "R1", "R3"):
            expected = [
                t
                for t in result.stage1[rel]
                if not person_name_filter(t, templates[rel], scorer, answers)
            ]
            assert result.stage2[rel] == expected

    def test_each_distinct_probe_scored_once(self):
        dataset, templates, _, answers = random_uhn_fixture(seed=5)
        # A second language relation shares the parts of R0, so the dedup
        # must hold across relations with the same noun, not only within one.
        templates = dict(templates)
        templates["R4"] = RelationTemplate("R4", "[X] writes [MASK].", name_noun="language")
        dataset = dict(dataset)
        dataset["R4"] = [KbTriple(t.sub_surface, t.obj_surface) for t in dataset["R0"]]
        _, _, base, _ = random_uhn_fixture(seed=5)
        nouns = ["language", "city", "country"]

        class CountingScorer(TableScorer):
            def __init__(self):
                # The nouns are in the vocabulary so each probe renders apart.
                super().__init__(Vocabulary([*base.wp_vocab.symbols, *nouns]), base.rank_table)
                self.seen = []

            def score_answers(self, tokens, inputs, symbols):
                self.seen.extend(tuple(render(seq)) for seq in sequences(tokens, inputs))
                return super().score_answers(tokens, inputs, symbols)

        scorer = CountingScorer()
        pairs = {
            (part, templates[rel].name_noun)
            for rel, triples in dataset.items()
            if templates[rel].name_noun != "none"
            for t in triples
            if not string_match_filter(t)
            for part in t.sub_surface.split()
        }
        expected = sorted(
            tuple(render(render_question(
                KbTriple(part, "x"),
                RelationTemplate("R", PROBE_TEMPLATE.format(noun=noun)),
                InputMode.BERT, None, scorer.wp_vocab,
            )))
            for part, noun in pairs
        )
        assert len(set(expected)) == len(pairs)
        for _ in range(2):
            scorer.seen = []
            result = build_lama_uhn(dataset, templates, scorer, answers)
            assert sorted(scorer.seen) == expected
        for rel in ("R0", "R1", "R3", "R4"):
            assert result.stage2[rel] == [
                t for t in result.stage1[rel]
                if not person_name_filter(t, templates[rel], scorer, answers)
            ]

    def test_relation_without_template_is_a_data_error_before_scoring(self):
        # P103 is a name relation: with a template it would be probed, so
        # keeping its questions unprobed would pass them through stage 2.
        class NeverScores(TableScorer):
            def score_answers(self, tokens, inputs, symbols):
                raise AssertionError("scored before the templates were checked")

        dataset = {
            "P103": [KbTriple("AA", "gold"), KbTriple("BB", "gold")],
            "R1": [KbTriple("AA", "gold")],
        }
        for top_k in (0, 3):
            with pytest.raises(DataError, match="^no template for relation 'P103'$"):
                build_lama_uhn(dataset, {"R1": ELIGIBLE}, NeverScores(PROBE_VOCAB, RANKS),
                               ANSWERS, top_k=top_k)


class TestLoaders:
    def test_load_templates(self, tmp_path):
        f = tmp_path / "t.json"
        f.write_text(
            json.dumps(
                [
                    {"relation": "P103", "template": "[X] speaks [MASK]."},
                    {
                        "relation": "P9",
                        "template": "[X] is [MASK].",
                        "name_noun": "city",
                    },
                    {"relation": "P10", "template": "[X] is [MASK]."},
                ]
            ),
            encoding="utf-8",
        )
        templates = load_templates(f)
        # Known relations default to their canonical noun, unknown ones to none.
        assert templates["P103"].name_noun == "language"
        assert templates["P9"].name_noun == "city"
        assert templates["P10"].name_noun == "none"

    def test_load_templates_errors(self, tmp_path):
        f = tmp_path / "t.json"
        f.write_text("{", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            load_templates(f)
        f.write_text("{}", encoding="utf-8")
        with pytest.raises(DataError, match="expected a JSON list"):
            load_templates(f)
        f.write_text(
            json.dumps(
                [
                    {"relation": "P1", "template": "[X] a [MASK]."},
                    {"relation": "P1", "template": "[X] b [MASK]."},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate template"):
            load_templates(f)
        f.write_text(json.dumps([{"relation": "P1"}]), encoding="utf-8")
        with pytest.raises(DataError, match="malformed template record"):
            load_templates(f)

    def test_load_lama_dir(self, tmp_path):
        (tmp_path / "P1.jsonl").write_text(
            '{"sub_label": "Jean Marais", "obj_label": "French", '
            '"sub_uri": "Q168359"}\n'
            '{"sub_label": "Someone", "obj_label": "Old French"}\n'
            '{"sub_label": "Other", "obj_label": "Klingon"}\n'
            "\n",
            encoding="utf-8",
        )
        (tmp_path / "P2.jsonl").write_text(
            '{"sub_label": "A", "obj_label": "French"}\n', encoding="utf-8"
        )
        vocab = Vocabulary(["French"])
        dataset, rejected = load_lama_dir(tmp_path, vocab)
        assert [t.sub_surface for t in dataset["P1"]] == ["Jean Marais"]
        assert dataset["P1"][0].sub_entity is None  # sub_uri ignored
        assert rejected == {"P1": 2, "P2": 0}
        assert set(dataset) == {"P1", "P2"}

    def test_load_lama_dir_errors(self, tmp_path):
        vocab = Vocabulary(["x"])
        with pytest.raises(DataError, match="no .jsonl"):
            load_lama_dir(tmp_path, vocab)
        (tmp_path / "P1.jsonl").write_text("oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: invalid JSON"):
            load_lama_dir(tmp_path, vocab)
        (tmp_path / "P1.jsonl").write_text('{"obj_label": "x"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="missing sub_label"):
            load_lama_dir(tmp_path, vocab)
        # eval-lama's report ends with its total row, named ALL.
        (tmp_path / "P1.jsonl").unlink()
        (tmp_path / "ALL.jsonl").write_text('{"sub_label": "A", "obj_label": "x"}\n',
                                            encoding="utf-8")
        with pytest.raises(DataError, match="'ALL.jsonl' is reserved for the report's total row"):
            load_lama_dir(tmp_path, vocab)

    def test_resolve_subjects(self):
        dataset = {
            "P1": [KbTriple("Jean Marais", "French"),
                   KbTriple("Unknown Person", "French")]
        }
        resolved = resolve_subjects(
            dataset, {"Jean Marais": "ENTITY/Jean_Marais"}
        )
        assert resolved["P1"][0].sub_entity == "ENTITY/Jean_Marais"
        assert resolved["P1"][1].sub_entity is None
        # Input is untouched.
        assert dataset["P1"][0].sub_entity is None
