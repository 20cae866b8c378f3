"""Pluggable masked-LM scoring contract and its reference implementation.

A scorer turns a token sequence into per-position vectors (embed), mixes in
context (contextualize), and transforms the state at a mask position with a
head before dotting it against output embeddings. The reference scorer is
deliberately tiny and fully analytic: contextualization is the leave-one-out
mean of the embedded sequence, and the head is a single affine map. That is
enough to exercise every downstream contract without a trained network.

This module is the only one that knows how a state or a candidate
distribution is computed. Consumers duck-type against a small protocol.
Cloze evaluation and filtering need ``wp_vocab`` (the wordpiece vocabulary
used for tokenization) and ``score_answers(seqs, symbols)``, which returns
a (Q, V) array of the V answer probabilities at the mask of each of Q
single-mask sequences. Entity linking needs ``wp_vocab``, ``ent`` (the
entity space of the candidate rows) and ``mask_states(tokens, inputs)``,
which returns the (S, d) states of inputs ``(idx, pos)``, each the sequence
``tokens[idx]`` over a list of distinct tokens with its mask at ``pos``.
A row of either batch method must not depend on the rest of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace, Vocabulary
from .errors import DataError
from .text_input import CONTROL_PIECES, UNK, Token, TokenKind, TokenSequence

MASK_PIECE = "[MASK]"
_MASK_KINDS = (TokenKind.MASK, TokenKind.EMASK)

# States (cloze questions or linking spans) per head product, and questions
# per answer-logit product. Every product has exactly this many states (the
# last block of a batch is zero-padded), and the states are the columns of
# its right-hand operand, so BLAS tiles them uniformly and a state's
# probabilities are bit-identical whatever batch it is scored in. On
# OpenBLAS, a product whose shape follows the batch size, or that has the
# states as rows of its left-hand operand, changes the last bits of rows.
# ``by_blocks`` takes every such block; ``alignment.derive_entity_space`` too.
ROW_BLOCK = 64


def by_blocks(x: np.ndarray, width: int, f) -> np.ndarray:
    """``f`` of the rows of ``x``, ``ROW_BLOCK`` at a time: ``f`` gets one
    float64 ``(ROW_BLOCK, x.shape[1])`` buffer, zero-padded past the last
    row, and returns ``(ROW_BLOCK, width)``; real rows fill the result."""
    out = np.empty((len(x), width))
    block = np.zeros((ROW_BLOCK, x.shape[1]))
    for start in range(0, len(x), ROW_BLOCK):
        part = x[start : start + ROW_BLOCK]
        block[: len(part)] = part
        block[len(part) :] = 0.0
        out[start : start + len(part)] = f(block)[: len(part)]
    return out


def embed_sequence(
    seq: TokenSequence,
    wp: EmbeddingSpace,
    ent: EmbeddingSpace | None = None,
) -> list[np.ndarray]:
    """Embed every token: wordpiece rows, entity rows, mask row, or the
    componentwise mean of candidate entity rows for an entity mask.

    Wordpieces missing from the vocabulary fall back to the ``[UNK]`` row.
    Missing entities are an error; the input builders are responsible for
    falling back to surface wordpieces before this point.
    """
    out = [_token_row(tok, wp, ent) for tok in seq.tokens]
    if len({v.shape for v in out}) > 1:
        raise ValueError("wordpiece and entity spaces have different dimensions")
    return out


def _token_row(tok: Token, wp: EmbeddingSpace, ent: EmbeddingSpace | None) -> np.ndarray:
    """The float64 input row of one token, as ``embed_sequence`` describes."""
    if tok.kind is TokenKind.WORDPIECE:
        return _wp_row(wp, tok.text)
    if tok.kind is TokenKind.CONTROL:
        return _wp_row(wp, CONTROL_PIECES[tok.text])
    if tok.kind is TokenKind.MASK:
        row = wp.row(MASK_PIECE)
        if row is None:
            raise DataError("wordpiece space has no [MASK] row")
        return row.astype(np.float64)
    if tok.kind is TokenKind.ENTITY:
        return _ent_row(ent, tok.text)
    if tok.kind is TokenKind.EMASK:
        return np.mean([_ent_row(ent, c) for c in tok.candidates], axis=0)
    raise ValueError(f"unknown token kind {tok.kind}")  # pragma: no cover


def _wp_row(wp: EmbeddingSpace, piece: str) -> np.ndarray:
    row = wp.row(piece)
    if row is None:
        row = wp.row(UNK)
        if row is None:
            raise DataError(f"wordpiece {piece!r} missing and no [UNK] row to fall back on")
    return row.astype(np.float64)


def _ent_row(ent: EmbeddingSpace | None, entity_id: str) -> np.ndarray:
    if ent is None:
        raise ValueError("sequence contains entity tokens but no entity space was given")
    row = ent.row(entity_id)
    if row is None:
        raise DataError(f"entity {entity_id!r} missing from entity space")
    return row.astype(np.float64)


def reference_contextualize(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Leave-one-out mean: output i is the mean of all inputs except i.

    A length-1 sequence contextualizes to a single zero vector.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("cannot contextualize an empty sequence")
    if n == 1:
        return [np.zeros_like(np.asarray(vectors[0], dtype=np.float64))]
    stack = np.asarray(vectors, dtype=np.float64)
    total = stack.sum(axis=0)
    return [(total - stack[i]) / (n - 1) for i in range(n)]


@dataclass
class AffineHead:
    """Affine transform h -> A h + c standing in for the MLM head."""

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"head matrix must be square, got {self.a.shape}")
        if self.c.shape != (self.a.shape[0],):
            raise ValueError(
                f"head offset shape {self.c.shape} does not match matrix {self.a.shape}"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.c))):
            raise ValueError("head parameters must be finite")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def apply(self, h: np.ndarray) -> np.ndarray:
        """``A h + c`` for each row of an (S, d) stack of states, or for one
        state as a stack of one. The stack is taken ``ROW_BLOCK`` zero-padded
        rows at a time in transposed form, ``A H^T + c``, so a row's output
        does not depend on the rest of its stack."""
        h = np.asarray(h, dtype=np.float64)
        u = by_blocks(
            np.atleast_2d(h), self.dim, lambda b: (self.a @ b.T + self.c[:, None]).T
        )
        return u[0] if h.ndim == 1 else u

    @classmethod
    def identity(cls, dim: int) -> "AffineHead":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def zeros(cls, dim: int) -> "AffineHead":
        return cls(np.zeros((dim, dim)), np.zeros(dim))


def candidate_probs(u: np.ndarray, groups, shared) -> list[np.ndarray]:
    """Softmax over ``e . u + b`` for the candidates ``(e, b)`` of each row
    of the (S, d) head outputs ``u``, then the ``shared`` one.

    A group ``(rows, e, b)`` holds the rows with c candidates each: their
    indices into ``u``, and their candidates' (S_c, c, d) vectors and (S_c,
    c) biases. ``shared`` is one ``(e, b)`` candidate scored last for every
    row. Returns one (S_c, c + 1) array per group. Rows sum to 1, are
    invariant to adding a constant to all their logits, and, as every dot
    product is a sum along the last axis, do not depend on their batch.
    """
    probs = []
    for rows, e, b in groups:
        ug = u[rows]
        logits = (e * ug[:, None, :]).sum(axis=-1) + b
        last = (ug * shared[0]).sum(axis=-1) + shared[1]
        probs.append(_softmax(np.column_stack([logits, last])))
    return probs


def candidate_gradients(u: np.ndarray, groups, gold, shared):
    """Gradients of ``-log p(gold)`` for ``candidate_probs``, where
    ``gold[s]`` indexes row s's candidates, ``shared`` last.

    With g = p - onehot(gold), returns ``(loss, du, dshared, probs)``: per
    row, the loss, du = sum_j g_j e_j (the gradient in the head output, so
    d/dc through an affine head and d/dA = du h^T) and the shared g (d/db;
    d/de = g u); per group, the softmax p.
    """
    probs = candidate_probs(u, groups, shared)
    loss = np.zeros(len(u))
    du = np.zeros_like(u)
    dshared = np.zeros(len(u))
    for (rows, e, _), p in zip(groups, probs):
        at_gold = (np.arange(len(p)), gold[rows])
        g = p.copy()
        g[at_gold] -= 1.0
        du[rows] = (g[:, :-1, None] * e).sum(axis=1) + g[:, -1:] * shared[0]
        dshared[rows] = g[:, -1]
        loss[rows] = -np.log(p[at_gold])
    return loss, du, dshared, probs


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction per row."""
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


@dataclass
class HeadGradients:
    """Gradients of the loss -log p(gold) for one scoring instance."""

    a: np.ndarray
    c: np.ndarray
    cands: list[tuple[np.ndarray, float]]
    probs: np.ndarray
    loss: float


def head_gradients(h: np.ndarray, head: AffineHead, cands, gold: int) -> HeadGradients:
    """``candidate_gradients`` of a batch of one state ``h`` whose candidates
    are the ``(e, b)`` pairs ``cands``, the last one as the shared candidate:
    d/dA, d/dc and each (d/de, d/db)."""
    if not 0 <= gold < len(cands):
        raise ValueError(f"gold index {gold} out of range for {len(cands)} candidates")
    h = np.asarray(h, dtype=np.float64)
    u = head.apply(h[None])
    *own, shared = cands
    e = np.array([e for e, _ in own], dtype=np.float64).reshape(1, len(own), len(h))
    group = ([0], e, np.array([[b for _, b in own]]))
    loss, du, _, probs = candidate_gradients(u, [group], np.array([gold]), shared)
    g = probs[0][0].copy()
    g[gold] -= 1.0
    cand_grads = [(gj * u[0], float(gj)) for gj in g]
    grad_a = np.outer(du[0], h)
    return HeadGradients(grad_a, du[0], cand_grads, probs[0][0], float(loss[0]))


@dataclass
class ReferenceScorer:
    """Embed, leave-one-out contextualize, affine head, softmax scoring."""

    wp: EmbeddingSpace
    ent: EmbeddingSpace | None = None
    head: AffineHead = None
    # The answer matrix of the last symbol tuple scored: (symbols, E).
    _answers: tuple[tuple[str, ...], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.head is None:
            self.head = AffineHead.identity(self.wp.dim)
        if self.head.dim != self.wp.dim:
            raise ValueError(
                f"head dimension {self.head.dim} does not match space {self.wp.dim}"
            )

    @property
    def wp_vocab(self) -> Vocabulary:
        return self.wp.vocab

    def embed(self, seq: TokenSequence) -> list[np.ndarray]:
        return embed_sequence(seq, self.wp, self.ent)

    def contextualize(self, vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return reference_contextualize(vectors)

    def mask_state(self, seq: TokenSequence) -> np.ndarray:
        """Contextual vector at the single Mask or EMask position."""
        return self.mask_states(*_index_sequences([seq]))[0]

    def mask_states(
        self, tokens: Sequence[Token], inputs: Sequence[tuple[np.ndarray, int]]
    ) -> np.ndarray:
        """States at the masks of many inputs over one list of distinct tokens.

        Input ``(idx, pos)`` is the sequence ``tokens[idx]`` with its mask at
        ``pos``. Each token is embedded once into a float64 bank ``B``; row s
        is ``(B[idx].sum(0) - B[idx[pos]]) / (n - 1)`` (zero when n is 1),
        the same rows summed in the same order as ``reference_contextualize``,
        so it is bit-identical to that oracle's output ``pos``.
        """
        dim = self.wp.dim
        bank = np.empty((len(tokens), dim))
        for k, tok in enumerate(tokens):
            row = _token_row(tok, self.wp, self.ent)
            if row.shape != (dim,):
                raise ValueError("wordpiece and entity spaces have different dimensions")
            bank[k] = row
        states = np.zeros((len(inputs), dim))
        for s, (idx, pos) in enumerate(inputs):
            if len(idx) > 1:
                rows = bank[idx]
                states[s] = (rows.sum(axis=0) - rows[pos]) / (len(rows) - 1)
        return states

    def score_answers(
        self, seqs: Sequence[TokenSequence], symbols: Sequence[str]
    ) -> np.ndarray:
        """Probabilities over the answer symbols at the mask of each sequence.

        Returns a ``(len(seqs), len(symbols))`` array. The mask states, from
        one ``mask_states`` call over the batch's distinct tokens, are stacked
        into ``H`` and scored as ``softmax((H A^T + c) E^T)`` row by
        row, where ``E`` holds the answer rows; the products are taken in
        transposed form, ``E (A H^T + c)``, ``ROW_BLOCK`` questions at a
        time. Every answer symbol must exist in the wordpiece space; answer
        biases are zero in the reference implementation.
        """
        e = self._answer_matrix(symbols)
        u = self.head.apply(self.mask_states(*_index_sequences(seqs)))
        return by_blocks(
            u, len(symbols), lambda b: _softmax(np.ascontiguousarray((e @ b.T).T))
        )

    def _answer_matrix(self, symbols: Sequence[str]) -> np.ndarray:
        key = tuple(symbols)
        if self._answers is None or self._answers[0] != key:
            if not key:
                raise ValueError("no answer symbols to score")
            missing = [s for s in key if s not in self.wp.vocab]
            if missing:
                raise DataError(
                    f"answer symbol {missing[0]!r} missing from wordpiece space"
                )
            rows = [self.wp.vocab.index[s] for s in key]
            self._answers = (key, self.wp.matrix[rows].astype(np.float64))
        return self._answers[1]


def _index_sequences(
    seqs: Sequence[TokenSequence],
) -> tuple[list[Token], list[tuple[np.ndarray, int]]]:
    """The distinct tokens of ``seqs`` in first-seen order, and each sequence
    as ``(index array into them, mask position)``, for ``mask_states``."""
    keys: dict[Token, int] = {}
    inputs = []
    for seq in seqs:
        positions = [i for i, t in enumerate(seq.tokens) if t.kind in _MASK_KINDS]
        if len(positions) != 1:
            raise ValueError(f"expected exactly one mask position, found {len(positions)}")
        idx = [keys.setdefault(t, len(keys)) for t in seq.tokens]
        inputs.append((np.array(idx, dtype=np.intp), positions[0]))
    return list(keys), inputs
