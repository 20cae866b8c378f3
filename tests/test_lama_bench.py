"""Cloze benchmark rendering, ranking, macro scoring, and name filtering."""

import json

import numpy as np
import pytest

from conftest import TableScorer, ent_space_with, random_uhn_fixture, wp_space_with
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
from entkit.scorer import ReferenceScorer
from entkit.text_input import InputMode, Token, TokenKind, TokenSequence


class TestTypes:
    def test_triple_validation(self):
        with pytest.raises(ValueError, match="non-empty answer"):
            KbTriple("P1", "subject", "")
        with pytest.raises(ValueError, match="ENTITY/"):
            KbTriple("P1", "subject", "obj", sub_entity="Jean_Marais")
        t = KbTriple("P1", "s", "o", sub_entity="ENTITY/X")
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
        return KbTriple("P103", "Jean Marais", "French", sub_entity=entity)

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
            KbTriple("P0", "Jean", "x"), template, InputMode.BERT, None, WP.vocab
        )
        assert render(seq) == ["[CLS]", "Jean", "plays", "[MASK]", ".", "[SEP]"]

    def test_empty_subject_renders_without_mention(self):
        seq = render_question(
            KbTriple("P103", "", "French"), TEMPLATE, InputMode.CONCAT, ENT, WP.vocab
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
            KbTriple("P103", "Jean", "gold"), TEMPLATE, InputMode.BERT, None,
            Vocabulary(["Jean"]),
        )
        ranking = rank_answers([seq], scorer, vocab)[0]
        assert [sym for sym, _ in ranking] == ["r1", "gold", "r2"]
        probs = [p for _, p in ranking]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0)

    def test_ties_break_by_ascending_vocab_id(self):
        # Zero vectors everywhere: every answer gets the same probability, so
        # the ranking must be exactly the vocabulary order.
        scorer = ReferenceScorer(WP)
        vocab = Vocabulary(["native", "The", "of"])
        seq = render_question(
            KbTriple("P103", "Jean", "The"), TEMPLATE, InputMode.BERT, None,
            WP.vocab,
        )
        ranking = rank_answers([seq], scorer, vocab)[0]
        assert [sym for sym, _ in ranking] == ["native", "The", "of"]

    def test_mask_count_enforced(self):
        scorer = ReferenceScorer(WP)
        vocab = Vocabulary(["The"])
        no_mask = TokenSequence((Token.wordpiece("The"),))
        with pytest.raises(ValueError, match="exactly one mask"):
            rank_answers([no_mask], scorer, vocab)[0]
        two = TokenSequence((Token.mask(), Token.mask()))
        with pytest.raises(ValueError, match="exactly one mask"):
            rank_answers([two], scorer, vocab)[0]

    def test_empty_answer_vocab_rejected(self):
        scorer = ReferenceScorer(WP)
        with pytest.raises(ValueError, match="empty answer vocabulary"):
            rank_answers([TokenSequence((Token.mask(),))], scorer, Vocabulary([]))[0]


def ranking_with_gold_at(position, symbols):
    order = [s for s in symbols if s != "gold"]
    order.insert(position, "gold")
    n = len(order)
    return [(s, (n - i) / (n * (n + 1) / 2)) for i, s in enumerate(order)]


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
                perm = list(rng.permutation(symbols))
                n = len(perm)
                ranking = [(s, (n - i) / n) for i, s in enumerate(perm)]
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
        assert string_match_filter(KbTriple("R", sub, obj)) is True

    def test_unhelpful_name_kept(self):
        assert string_match_filter(KbTriple("R", "Jean Marais", "French")) is False

    def test_case_insensitive_both_sides(self):
        assert string_match_filter(KbTriple("R", "FIAT MULTIPLA", "fiat")) is True
        assert string_match_filter(KbTriple("R", "fiat multipla", "FIAT")) is True


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
        assert name_probe_deletes(KbTriple("R1", "AA BB", "gold")) is True
        assert name_probe_deletes(KbTriple("R1", "BB DD", "gold")) is True

    def test_all_parts_below_top_k_keeps(self):
        assert name_probe_deletes(KbTriple("R1", "BB CC", "gold")) is False

    def test_top_k_zero_never_deletes(self):
        assert name_probe_deletes(KbTriple("R1", "DD", "gold"), top_k=0) is False

    def test_wider_top_k_deletes_rank_four(self):
        assert name_probe_deletes(KbTriple("R1", "BB CC", "gold"), top_k=4) is True

    def test_empty_subject_kept(self):
        assert name_probe_deletes(KbTriple("R1", "", "gold")) is False

    def test_ineligible_template_rejected(self):
        # A relation without a probe noun is never probed, so its questions
        # pass stage 2 even where the probe would delete them.
        class NeverScores(TableScorer):
            def score_answers(self, seqs, symbols):
                raise AssertionError("an ineligible relation was probed")

        triples = [KbTriple("R2", "AA", "gold"), KbTriple("R2", "DD", "gold")]
        plain = RelationTemplate("R2", "[X] speaks [MASK].")
        result = build_lama_uhn({"R2": triples}, {"R2": plain}, NeverScores(PROBE_VOCAB, RANKS),
                                ANSWERS)
        assert result.stage2["R2"] == triples

    def test_case_sensitivity_flag(self):
        triple = KbTriple("R1", "DD", "GOLD")
        assert name_probe_deletes(triple) is False
        assert name_probe_deletes(triple, case_insensitive=True) is True

    def test_probe_ignores_entity_knowledge(self):
        # The probe renders in plain wordpiece mode: a scorer keyed on entity
        # symbols never sees them, so resolution cannot affect deletion.
        resolved = KbTriple("R1", "AA", "gold", sub_entity="ENTITY/AA")
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
        dataset["R4"] = [KbTriple("R4", t.sub_surface, t.obj_surface) for t in dataset["R0"]]
        _, _, base, _ = random_uhn_fixture(seed=5)
        nouns = ["language", "city", "country"]

        class CountingScorer(TableScorer):
            def __init__(self):
                # The nouns are in the vocabulary so each probe renders apart.
                super().__init__(Vocabulary([*base.wp_vocab.symbols, *nouns]), base.rank_table)
                self.seen = []

            def score_answers(self, seqs, symbols):
                self.seen.extend(tuple(render(seq)) for seq in seqs)
                return super().score_answers(seqs, symbols)

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
                KbTriple("R", part, "x"),
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
            def score_answers(self, seqs, symbols):
                raise AssertionError("scored before the templates were checked")

        dataset = {
            "P103": [KbTriple("P103", "AA", "gold"), KbTriple("P103", "BB", "gold")],
            "R1": [KbTriple("R1", "AA", "gold")],
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
        with pytest.raises(DataError, match="no .jsonl"):
            load_lama_dir(tmp_path, None)
        (tmp_path / "P1.jsonl").write_text("oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1: invalid JSON"):
            load_lama_dir(tmp_path, None)
        (tmp_path / "P1.jsonl").write_text('{"obj_label": "x"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="missing sub_label"):
            load_lama_dir(tmp_path, None)

    def test_resolve_subjects(self):
        dataset = {
            "P1": [KbTriple("P1", "Jean Marais", "French"),
                   KbTriple("P1", "Unknown Person", "French")]
        }
        resolved = resolve_subjects(
            dataset, {"Jean Marais": "ENTITY/Jean_Marais"}
        )
        assert resolved["P1"][0].sub_entity == "ENTITY/Jean_Marais"
        assert resolved["P1"][1].sub_entity is None
        # Input is untouched.
        assert dataset["P1"][0].sub_entity is None
