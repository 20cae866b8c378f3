"""Test oracles written from the definitions, not from the library.

Each oracle computes one thing the library computes in batches, the slow and
plain way, so a test can compare the two:

- ``el_input`` renders a linking input word by word, without
  ``entity_linking._block_inputs``;
- ``mask_state`` embeds one sequence token by token and takes the
  leave-one-out mean at its mask, without ``mask_states`` or
  ``_token_rows``, and matches ``mask_states`` bit for bit;
- ``person_name_filter`` decides the name probe for one question, with its
  own probe sentence and ranking, without ``build_lama_uhn``'s batching;
- ``alignment_objective`` is the least-squares objective in numpy;
- ``write_space`` writes a space in word2vec text format;
- ``render`` spells a token sequence out as text, for readable asserts;
- ``row`` looks one symbol's row up in a space.

``head_gradients`` is the one adapter: the library's ``candidate_gradients``
and ``candidate_probs`` on a batch of one, shaped for finite-difference
checks of library code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from entkit.scorer import candidate_gradients, candidate_probs
from entkit.text_input import (
    MASK_WORD,
    UNK,
    InputMode,
    Token,
    TokenKind,
    TokenSequence,
    build_input,
    wordpiece_tokens,
)


def row(space, symbol: str) -> np.ndarray | None:
    """``symbol``'s row of ``space``, or None when the space lacks it."""
    i = space.vocab.index.get(symbol)
    return None if i is None else space.matrix[i]


def render(seq: TokenSequence) -> list[str]:
    """Each token as text: a wordpiece or entity its own text, a mask
    ``[MASK]``, an entity mask ``[E-MASK]``."""
    names = {TokenKind.MASK: MASK_WORD, TokenKind.EMASK: "[E-MASK]"}
    return [names.get(t.kind, t.text) for t in seq.tokens]


def el_input(tokens, span, decoded, use_emask, vocab) -> TokenSequence:
    """[CLS], then word by word: at the scored span, the mask, ``/``, the
    span's wordpieces and ``*``; at a word where decoded spans that do not
    overlap the scored span start, the entity of the shortest, skipping its
    words; any other word its wordpieces. Then [SEP]."""

    def pieces(words):
        return [t for w in words for t in wordpiece_tokens([w], vocab)]

    mask = (Token.emask([c.entity for c in span.candidates]) if use_emask
            else Token.mask())
    out = [Token.wordpiece("[CLS]")]
    i = 0
    while i < len(tokens):
        ends = sorted(e for s, e in decoded
                      if s == i and (e <= span.start or span.end <= s))
        if i == span.start:
            out += [mask, Token.wordpiece("/"), *pieces(tokens[span.start : span.end]),
                    Token.wordpiece("*")]
            i = span.end
        elif ends:
            out.append(Token.entity(decoded[(i, ends[0])]))
            i = ends[0]
        else:
            out += pieces([tokens[i]])
            i += 1
    return TokenSequence((*out, Token.wordpiece("[SEP]")))


def _embed(token: Token, wp, ent) -> np.ndarray:
    """One token's float64 input row: a wordpiece's row ([UNK]'s when it has
    none), [MASK]'s row for a mask, an entity's row, or for an entity mask
    its candidates' rows added one by one from zero, over their count."""
    if token.kind is TokenKind.EMASK:
        total = np.zeros(wp.dim)
        for c in token.candidates:
            total = total + row(ent, c).astype(np.float64)
        return total / len(token.candidates)
    if token.kind is TokenKind.ENTITY:
        return row(ent, token.text).astype(np.float64)
    piece = MASK_WORD if token.kind is TokenKind.MASK else token.text
    found = row(wp, piece)
    return (row(wp, UNK) if found is None else found).astype(np.float64)


def mask_state(seq: TokenSequence, wp, ent=None) -> np.ndarray:
    """The reference scorer's state at the one mask of ``seq``: the rows of
    its n tokens added one by one in input order from zero, less the mask's
    row, over n - 1; zero when n is 1."""
    rows = [_embed(t, wp, ent) for t in seq.tokens]
    (pos,) = [i for i, t in enumerate(seq.tokens)
              if t.kind in (TokenKind.MASK, TokenKind.EMASK)]
    if len(rows) == 1:
        return np.zeros(wp.dim)
    total = np.zeros(wp.dim)
    for row in rows:
        total = total + row
    return (total - rows[pos]) / (len(rows) - 1)


def person_name_filter(triple, template, scorer, answer_vocab, top_k=3,
                       case_insensitive=False) -> bool:
    """True when the name probe deletes this one question: some whitespace
    part of its subject, asked in plain wordpieces as ``"<part> is a common
    name in the following <noun>: [MASK] ."``, ranks the answer among its
    top ``top_k`` answers, ordered by probability and then by vocabulary id.
    The match is exact unless ``case_insensitive``."""

    def fold(s):
        return s.lower() if case_insensitive else s

    noun = template.name_noun
    for part in triple.sub_surface.split():
        sentence = f"{part} is a common name in the following {noun}: {MASK_WORD} ."
        seq = build_input(sentence, [], InputMode.BERT, None, scorer.wp_vocab).tokens
        tokens = list(dict.fromkeys(seq))
        (pos,) = [i for i, t in enumerate(seq) if t.kind is TokenKind.MASK]
        idx = np.array([tokens.index(t) for t in seq])
        p = scorer.score_answers(tokens, [(idx, pos)], answer_vocab.symbols)[0]
        top = sorted(range(len(p)), key=lambda i: (-p[i], i))[: max(top_k, 0)]
        if fold(triple.obj_surface) in {fold(answer_vocab.symbols[i]) for i in top}:
            return True
    return False


def alignment_objective(w, src, tgt, pairs) -> float:
    """The summed squared error of ``x W^T - y`` over the shared pairs, with
    x each pair's source row and y its target row."""
    x = np.array([src.matrix[p.wiki_id] for p in pairs], dtype=np.float64)
    y = np.array([tgt.matrix[p.wp_id] for p in pairs], dtype=np.float64)
    return float(np.sum((x @ np.asarray(w, dtype=np.float64).T - y) ** 2))


def write_space(space, path) -> None:
    """Write ``space`` in word2vec text format: a ``count dim`` header, then
    one line per symbol with its values as float32 strings."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.vocab)} {space.dim}\n")
        for sym, row in zip(space.vocab.symbols, space.matrix.astype(np.float32)):
            fh.write(" ".join([sym, *map(str, row)]) + "\n")


class HeadGradients(NamedTuple):
    """Gradients of -log p(gold) for one state: d/dA, d/dc, each candidate's
    (d/de, d/db), and the probabilities and loss they come with."""

    a: np.ndarray
    c: np.ndarray
    cands: list
    probs: np.ndarray
    loss: float


def head_gradients(h, head, cands, gold: int) -> HeadGradients:
    """``candidate_gradients`` of a batch of one state ``h`` whose candidates
    are the ``(e, b)`` pairs ``cands``, the last one as the shared one, with
    their probabilities from ``candidate_probs``."""
    h = np.asarray(h, dtype=np.float64)
    u = head.apply(h[None])
    *own, shared = cands
    e = np.array([e for e, _ in own], dtype=np.float64).reshape(1, len(own), len(h))
    group = ([0], e, np.array([[b for _, b in own]]))
    loss, du, _ = candidate_gradients(u, [group], np.array([gold]), shared)
    probs = candidate_probs(u, [group], shared)[0][0]
    g = probs - np.eye(len(cands))[gold]
    return HeadGradients(np.outer(du[0], h), du[0], [(gj * u[0], float(gj)) for gj in g],
                         probs, float(loss[0]))
