"""The input builders against a renderer written from their definitions.

The renderers walk the words one at a time without ``text_input.build_input``
or ``entity_linking._block_inputs``, so cloze inputs and the linking mask
states (against ``oracles.el_input`` and ``oracles.mask_state``) are each
checked against code they do not share.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECIAL_PIECES, ent_space_with, make_space
from oracles import el_input, mask_state
from entkit import entity_linking
from entkit.embeddings import SpaceKind
from entkit.entity_linking import Candidate, CandidateSpan, span_mask_states
from entkit.scorer import ReferenceScorer
from entkit.text_input import (
    MASK_WORD,
    InputMode,
    MentionSpan,
    Token,
    build_input,
    wordpiece_tokens,
)

DIM = 5
_RNG = np.random.default_rng(12)
_PIECES = [*SPECIAL_PIECES, "the", "cat", "sat", "walk", "##s", "new", "york", "-", ","]
WP = make_space(_PIECES, _RNG.standard_normal((len(_PIECES), DIM)), SpaceKind.WORDPIECE)
ENT = ent_space_with({e: _RNG.standard_normal(DIM) for e in ("ENTITY/A", "ENTITY/B")}, DIM)
# "walks" and "new-york," split into several pieces, "qqq" becomes [UNK].
WORDS = ["the", "cat", "sat", "walks", "new-york,", "qqq", "york"]
# Mention entities: two with a vector in ENT, one without.
ENTITY_IDS = [None, "ENTITY/A", "ENTITY/B", "ENTITY/Missing"]


def pieces(words) -> list[Token]:
    return [t for w in words for t in wordpiece_tokens([w], WP.vocab)]


@st.composite
def cloze_inputs(draw):
    """Words with [MASK] among them, and mentions (in any order) over
    disjoint, possibly adjacent runs of words without [MASK]."""
    words = draw(st.lists(st.sampled_from([*WORDS, MASK_WORD]), min_size=1, max_size=12))
    cuts = draw(st.sets(st.integers(1, len(words) - 1))) if len(words) > 1 else set()
    bounds = [0, *sorted(cuts), len(words)]
    mentions = [
        MentionSpan(s, e, draw(st.sampled_from(ENTITY_IDS)))
        for s, e in zip(bounds, bounds[1:])
        if MASK_WORD not in words[s:e] and draw(st.booleans())
    ]
    mode = draw(st.sampled_from(list(InputMode)))
    space = draw(st.sampled_from([ENT, None]))
    return words, draw(st.permutations(mentions)), mode, space


def render_cloze(words, mentions, mode, space) -> list[Token]:
    """[CLS], then word by word: a mention's words become its entity when
    injected (in concat mode followed by ``/`` and its wordpieces) or else
    its wordpieces; a [MASK] word becomes a mask; any other word its
    wordpieces. Then [SEP]."""
    at = {m.start: m for m in mentions}
    out = [Token.wordpiece("[CLS]")]
    i = 0
    while i < len(words):
        if i in at:
            m = at[i]
            surface = pieces(words[m.start : m.end])
            if mode is not InputMode.BERT and space is not None and m.entity_id in space.vocab:
                out.append(Token.entity(m.entity_id))
                if mode is InputMode.CONCAT:
                    out += [Token.wordpiece("/"), *surface]
            else:
                out += surface
            i = m.end
        else:
            out += [Token.mask()] if words[i] == MASK_WORD else pieces([words[i]])
            i += 1
    return out + [Token.wordpiece("[SEP]")]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cloze_inputs())
def test_build_input_matches_the_word_by_word_renderer(case):
    words, mentions, mode, space = case
    seq = build_input(" ".join(words), mentions, mode, space, WP.vocab)
    assert list(seq.tokens) == render_cloze(words, mentions, mode, space)


@st.composite
def linking_inputs(draw):
    """A document, spans to score, and a decoded map whose spans are
    disjoint, as the decoder makes them, and may overlap the scored spans."""
    tokens = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
    n = len(tokens)

    def span():
        start = draw(st.integers(0, n - 1))
        return start, draw(st.integers(start + 1, min(n, start + 4)))

    candidates = (Candidate("ENTITY/A", 0.5), Candidate("ENTITY/B", 0.25))
    scored = [CandidateSpan(*span(), candidates) for _ in range(draw(st.integers(1, 4)))]
    decoded = {}
    for _ in range(draw(st.integers(0, 5))):
        start, end = span()
        if all(end <= s or e <= start for s, e in decoded):
            decoded[start, end] = draw(st.sampled_from(["ENTITY/A", "ENTITY/B"]))
    return tokens, scored, decoded, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=linking_inputs())
def test_linking_inputs_and_states_match_the_word_by_word_renderer(case):
    tokens, spans, decoded, use_emask = case
    scorer = ReferenceScorer(WP, ENT)
    states = span_mask_states([(tokens, spans, decoded)], scorer, use_emask)
    for span, state in zip(spans, states):
        want = mask_state(el_input(tokens, span, decoded, use_emask, WP.vocab), WP, ENT)
        assert np.array_equal(state.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("block", [1, 3, 10**6])
@pytest.mark.parametrize("use_emask", [True, False])
def test_decoded_spans_at_scored_span_edges_match_the_renderer(monkeypatch, block, use_emask):
    """Decoded spans that cross a scored span's left or right edge, lie
    inside it, contain it or touch it, for the spans of several documents
    in one call and in blocks of any size, against the renderer."""
    monkeypatch.setattr(entity_linking, "SPAN_BLOCK", block)
    tokens = ["the", "cat", "sat", "walks", "new-york,", "qqq", "york", "the", "cat"]
    candidates = (Candidate("ENTITY/A", 0.5), Candidate("ENTITY/B", 0.25))
    spans = [CandidateSpan(s, e, candidates) for s, e in ((3, 6), (0, 1), (4, 5), (6, 9))]
    decoded_maps = [
        {},
        {(2, 4): "ENTITY/A"},  # crosses the left edge of (3, 6)
        {(5, 7): "ENTITY/B"},  # crosses its right edge
        {(4, 5): "ENTITY/A"},  # lies inside it
        {(2, 7): "ENTITY/B"},  # contains it
        {(1, 3): "ENTITY/A", (6, 8): "ENTITY/B"},  # touches both edges
        {(0, 1): "ENTITY/B", (2, 4): "ENTITY/A", (5, 8): "ENTITY/B"},
        {(0, 2): "ENTITY/A", (3, 4): "ENTITY/B", (4, 6): "ENTITY/A", (8, 9): "ENTITY/A"},
        {(2, 4): "ENTITY/A", (4, 6): "ENTITY/B", (6, 9): "ENTITY/A"},  # end to end
    ]
    docs = [(tokens[: 9 - i % 2], spans[: 4 - i % 2], d) for i, d in enumerate(decoded_maps)]
    scorer = ReferenceScorer(WP, ENT)
    states = span_mask_states(docs, scorer, use_emask)
    want = [
        mask_state(el_input(doc, span, decoded, use_emask, WP.vocab), WP, ENT)
        for doc, doc_spans, decoded in docs for span in doc_spans
    ]
    assert states.shape == (len(want), DIM)
    assert np.array_equal(states.view(np.int64), np.array(want).view(np.int64))
