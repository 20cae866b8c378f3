"""Tokenization and input construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ent_space_with, wp_space_with
from entkit.embeddings import Vocabulary
from entkit.text_input import (
    InputMode,
    MentionSpan,
    Token,
    TokenKind,
    TokenSequence,
    build_input,
    build_rc_input,
    wordpiece_tokens,
)

VOCAB = Vocabulary(
    [
        "[CLS]", "[SEP]", "[UNK]", "[MASK]", "/", "*", "#", "$", ".", ",",
        "un", "##aff", "##able", "##affable", "aff", "the", "cat", "sat",
        "end", "won't",
    ]
)


def wordpiece_tokenize(text, vocab):
    """The pieces of ``wordpiece_tokens`` for the whitespace words of ``text``."""
    return [t.text for t in wordpiece_tokens(text.split(), vocab)]


class TestWordpieceTokenize:
    def test_greedy_longest_match_first(self):
        assert wordpiece_tokenize("unaffable", VOCAB) == ["un", "##affable"]

    def test_words_in_vocab_stay_whole(self):
        assert wordpiece_tokenize("the cat sat", VOCAB) == ["the", "cat", "sat"]

    def test_vocab_short_circuit_beats_punctuation_split(self):
        # "won't" contains an apostrophe but is a vocabulary entry, so it is
        # never split; "[MASK]" likewise survives its brackets.
        assert wordpiece_tokenize("won't", VOCAB) == ["won't"]
        assert wordpiece_tokenize("[MASK]", VOCAB) == ["[MASK]"]

    def test_punctuation_splits_unknown_words(self):
        assert wordpiece_tokenize("end.", VOCAB) == ["end", "."]
        assert wordpiece_tokenize("end,.", VOCAB) == ["end", ",", "."]
        assert wordpiece_tokenize(".end", VOCAB) == [".", "end"]

    def test_undecomposable_unit_becomes_unk(self):
        assert wordpiece_tokenize("xyzzy", VOCAB) == ["[UNK]"]
        # A word that starts decomposable but dead-ends is [UNK] as a whole.
        assert wordpiece_tokenize("affxyz", VOCAB) == ["[UNK]"]

    def test_mixed_sentence(self):
        assert wordpiece_tokenize("the unaffable cat.", VOCAB) == [
            "the", "un", "##affable", "cat", ".",
        ]

    def test_whitespace_only(self):
        assert wordpiece_tokenize("", VOCAB) == []
        assert wordpiece_tokenize("   \t\n", VOCAB) == []

    def test_continuation_requires_prefix_entry(self):
        vocab = Vocabulary(["[UNK]", "aff", "able"])
        # "able" exists only as a word start, not as "##able", so the
        # decomposition of "affable" dead-ends.
        assert wordpiece_tokenize("affable", vocab) == ["[UNK]"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["the", "cat", "sat", "won't", "un"]),
                    min_size=1, max_size=8))
    def test_vocab_words_tokenize_to_themselves(self, words):
        assert wordpiece_tokenize(" ".join(words), VOCAB) == words

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="unaf.b,x ", max_size=24))
    def test_every_piece_is_vocab_or_unk(self, text):
        for piece in wordpiece_tokenize(text, VOCAB):
            assert piece in VOCAB.index or piece == "[UNK]"

    def test_wordpiece_tokens_mirrors_string_form(self):
        tokens = wordpiece_tokens(["the", "unaffable", "end."], VOCAB)
        assert [t.kind for t in tokens] == [TokenKind.WORDPIECE] * 5
        assert [t.text for t in tokens] == ["the", "un", "##affable", "end", "."]


class TestTokens:
    def test_entity_requires_prefix(self):
        assert Token.entity("ENTITY/X").text == "ENTITY/X"
        with pytest.raises(ValueError, match="prefix"):
            Token.entity("X")

    def test_emask_requires_candidates(self):
        tok = Token.emask(["ENTITY/A", "ENTITY/B"])
        assert tok.candidates == ("ENTITY/A", "ENTITY/B")
        with pytest.raises(ValueError, match="non-empty"):
            Token.emask([])

    def test_render(self):
        seq = TokenSequence(
            (
                Token.wordpiece("[CLS]"),
                Token.wordpiece("the"),
                Token.entity("ENTITY/X"),
                Token.mask(),
                Token.emask(["ENTITY/A"]),
                Token.wordpiece("/"),
                Token.wordpiece("[SEP]"),
            )
        )
        assert seq.render() == [
            "[CLS]", "the", "ENTITY/X", "[MASK]", "[E-MASK]", "/", "[SEP]",
        ]

    def test_mention_span_validation(self):
        with pytest.raises(ValueError):
            MentionSpan(2, 2)
        with pytest.raises(ValueError):
            MentionSpan(-1, 1)


DIM = 2
WORDS = {w: [0.0, 0.0] for w in ["the", "cat", "sat", "Jean", "Mara", "##is"]}
WP = wp_space_with(WORDS, DIM)
ENT = ent_space_with({"ENTITY/Jean_Marais": [1.0, 2.0]}, DIM)


class TestBuildInput:
    def sentence(self):
        return "Jean Marais sat", [
            MentionSpan(0, 2, "ENTITY/Jean_Marais")
        ]

    def test_bert_mode_ignores_mentions(self):
        text, mentions = self.sentence()
        seq = build_input(text, mentions, InputMode.BERT, ENT, WP.vocab)
        bare = build_input(text, [], InputMode.BERT, ENT, WP.vocab)
        assert seq.render() == bare.render() == [
            "[CLS]", "Jean", "Mara", "##is", "sat", "[SEP]",
        ]

    def test_concat_mode_injects_entity_then_surface(self):
        text, mentions = self.sentence()
        seq = build_input(text, mentions, InputMode.CONCAT, ENT, WP.vocab)
        assert seq.render() == [
            "[CLS]", "ENTITY/Jean_Marais", "/", "Jean", "Mara", "##is",
            "sat", "[SEP]",
        ]

    def test_replace_mode_substitutes_entity(self):
        text, mentions = self.sentence()
        seq = build_input(text, mentions, InputMode.REPLACE, ENT, WP.vocab)
        assert seq.render() == ["[CLS]", "ENTITY/Jean_Marais", "sat", "[SEP]"]

    def test_unresolvable_mentions_fall_back_individually(self):
        text = "Jean Marais sat the cat"
        mentions = [
            MentionSpan(0, 2, "ENTITY/Jean_Marais"),
            MentionSpan(3, 5, "ENTITY/Missing"),
        ]
        seq = build_input(text, mentions, InputMode.REPLACE, ENT, WP.vocab)
        assert seq.render() == [
            "[CLS]", "ENTITY/Jean_Marais", "sat", "the", "cat", "[SEP]",
        ]
        # No entity vector table at all: every mention falls back.
        seq = build_input(text, mentions, InputMode.REPLACE, None, WP.vocab)
        assert seq.render() == [
            "[CLS]", "Jean", "Mara", "##is", "sat", "the", "cat", "[SEP]",
        ]

    def test_mention_without_entity_id_falls_back(self):
        seq = build_input(
            "Jean sat", [MentionSpan(0, 1)], InputMode.CONCAT, ENT, WP.vocab
        )
        assert seq.render() == ["[CLS]", "Jean", "sat", "[SEP]"]

    def test_mask_word_becomes_mask_token(self):
        seq = build_input("the cat [MASK]", [], InputMode.BERT, None, WP.vocab)
        assert [t.kind for t in seq.tokens] == [
            TokenKind.WORDPIECE, TokenKind.WORDPIECE, TokenKind.WORDPIECE,
            TokenKind.MASK, TokenKind.WORDPIECE,
        ]

    def test_mention_may_not_cover_mask(self):
        with pytest.raises(ValueError, match="MASK"):
            build_input(
                "the [MASK] cat",
                [MentionSpan(1, 3, "ENTITY/Jean_Marais")],
                InputMode.CONCAT,
                ENT,
                WP.vocab,
            )

    def test_mention_bounds_and_overlap_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_input("the cat", [MentionSpan(1, 3)], InputMode.BERT,
                        None, WP.vocab)
        overlapping = [
            [MentionSpan(0, 2), MentionSpan(1, 3)],
            [MentionSpan(1, 3), MentionSpan(0, 2)],  # reverse start order
            [MentionSpan(0, 2), MentionSpan(0, 1)],  # a shared start
            [MentionSpan(0, 1), MentionSpan(0, 2)],
        ]
        for mentions in overlapping:
            with pytest.raises(ValueError, match="overlap"):
                build_input("the cat sat", mentions, InputMode.BERT, None, WP.vocab)


class TestBuildRcInput:
    def test_markers_wrap_spans(self):
        seq = build_rc_input(
            "Jean Marais sat the cat",
            MentionSpan(0, 2, "ENTITY/Jean_Marais"),
            MentionSpan(3, 5),
            InputMode.REPLACE,
            ENT,
            WP.vocab,
        )
        assert seq.render() == [
            "[CLS]", "#", "ENTITY/Jean_Marais", "#", "sat",
            "$", "the", "cat", "$", "[SEP]",
        ]

    def test_object_may_precede_subject(self):
        seq = build_rc_input(
            "the cat sat Jean",
            MentionSpan(3, 4),
            MentionSpan(0, 2),
            InputMode.BERT,
            None,
            WP.vocab,
        )
        assert seq.render() == [
            "[CLS]", "$", "the", "cat", "$", "sat", "#", "Jean", "#", "[SEP]",
        ]

    def test_concat_inside_markers(self):
        seq = build_rc_input(
            "Jean Marais sat the cat",
            MentionSpan(0, 2, "ENTITY/Jean_Marais"),
            MentionSpan(3, 5),
            InputMode.CONCAT,
            ENT,
            WP.vocab,
        )
        assert seq.render() == [
            "[CLS]", "#", "ENTITY/Jean_Marais", "/", "Jean", "Mara", "##is",
            "#", "sat", "$", "the", "cat", "$", "[SEP]",
        ]

    def test_identical_spans_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            build_rc_input(
                "the cat", MentionSpan(0, 1), MentionSpan(0, 1),
                InputMode.BERT, None, WP.vocab,
            )

    def test_overlapping_spans_rejected(self):
        pairs = [
            (MentionSpan(0, 2), MentionSpan(1, 3)),
            (MentionSpan(1, 3), MentionSpan(0, 2)),  # reverse start order
            (MentionSpan(0, 2), MentionSpan(0, 1)),  # a shared start
            (MentionSpan(0, 1), MentionSpan(0, 2)),
        ]
        for subject, object_ in pairs:
            with pytest.raises(ValueError, match="overlap"):
                build_rc_input(
                    "the cat sat", subject, object_, InputMode.BERT, None, WP.vocab
                )

