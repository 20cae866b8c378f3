"""Pluggable masked-LM scoring contract and its reference implementation.

A scorer embeds the tokens of its inputs, takes the state at each input's
mask from the rest of the input, and transforms that state with a head
before dotting it against output embeddings. The reference scorer is
deliberately tiny and fully analytic: the state is the leave-one-out mean
of the embedded input at its mask, and the head is a single affine map.
That is enough to exercise every downstream contract without a trained
network.

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
from .text_input import MASK_WORD, UNK, Token, TokenKind, TokenSequence

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


def _token_rows(
    tokens: Sequence[Token], wp: EmbeddingSpace, ent: EmbeddingSpace | None
) -> np.ndarray:
    """The float64 input rows of ``tokens``, one per row: a wordpiece's row,
    or the ``[UNK]`` row for a wordpiece missing from ``wp``; the ``[MASK]``
    row for a mask; an entity's row; and for an entity mask the mean of its
    candidates' rows. A missing entity is a DataError: the input builders
    fall back to surface wordpieces before this point. Each distinct entity
    row is fetched once, and the entity masks with c candidates are averaged
    together: their rows added in candidate order, starting from zero, and
    divided by c."""
    rows = np.empty((len(tokens), wp.dim))
    pieces: list[int] = []  # positions of wordpieces and masks
    ids: list[int] = []  # and their wordpiece rows
    entities: dict[str, int] = {}
    single: list[int] = []  # positions of entities
    slots: list[int] = []  # and their entity rows
    means: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, tok in enumerate(tokens):
        if tok.kind is TokenKind.WORDPIECE or tok.kind is TokenKind.MASK:
            pieces.append(k)
            ids.append(_wp_index(wp, tok))
        elif tok.kind is TokenKind.ENTITY:
            single.append(k)
            slots.append(entities.setdefault(tok.text, len(entities)))
        else:
            at, cands = means.setdefault(len(tok.candidates), ([], []))
            at.append(k)
            cands.append([entities.setdefault(c, len(entities)) for c in tok.candidates])
    rows[pieces] = wp.matrix[ids]
    if entities:
        table = np.array([_ent_row(ent, e) for e in entities])
        if table.shape[1] != wp.dim:
            raise ValueError("wordpiece and entity spaces have different dimensions")
        rows[single] = table[slots]
        for count, (at, cands) in means.items():
            cands = np.array(cands)
            total = np.zeros((len(at), wp.dim))
            for j in range(count):
                total += table[cands[:, j]]
            rows[at] = total / count
    return rows


def _wp_index(wp: EmbeddingSpace, tok: Token) -> int:
    """The wordpiece row of a wordpiece (``[UNK]`` when missing) or a mask."""
    if tok.kind is TokenKind.MASK:
        i = wp.vocab.index.get(MASK_WORD)
        if i is None:
            raise DataError("wordpiece space has no [MASK] row")
        return i
    i = wp.vocab.index.get(tok.text)
    if i is None:
        i = wp.vocab.index.get(UNK)
        if i is None:
            raise DataError(f"wordpiece {tok.text!r} missing and no [UNK] row to fall back on")
    return i


def _ent_row(ent: EmbeddingSpace | None, entity_id: str) -> np.ndarray:
    if ent is None:
        raise ValueError("sequence contains entity tokens but no entity space was given")
    row = ent.row(entity_id)
    if row is None:
        raise DataError(f"entity {entity_id!r} missing from entity space")
    return row.astype(np.float64)


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


def _finite(x: np.ndarray, stage: str) -> np.ndarray:
    """``x``, or a DataError naming ``stage`` if an entry is nan or infinite:
    huge but finite vectors can overflow where they meet."""
    if not np.isfinite(x).all():
        raise DataError(f"{stage} are not finite (the vectors are too large)")
    return x


def _candidate_logits(u: np.ndarray, groups, shared) -> list[np.ndarray]:
    """The (S_c, c + 1) logits ``e . u + b`` of each group of
    ``candidate_probs``, ``shared`` last; non-finite logits are a DataError."""
    out = []
    for rows, e, b in groups:
        ug = u[rows]
        logits = (e * ug[:, None, :]).sum(axis=-1) + b
        last = (ug * shared[0]).sum(axis=-1) + shared[1]
        out.append(_finite(np.column_stack([logits, last]), "candidate logits"))
    return out


@np.errstate(all="ignore")
def candidate_probs(u: np.ndarray, groups, shared) -> list[np.ndarray]:
    """Softmax over ``e . u + b`` for the candidates ``(e, b)`` of each row
    of the (S, d) head outputs ``u``, then the ``shared`` one.

    A group ``(rows, e, b)`` holds the rows with c candidates each: their
    indices into ``u``, and their candidates' (S_c, c, d) vectors and (S_c,
    c) biases. ``shared`` is one ``(e, b)`` candidate scored last for every
    row. Returns one (S_c, c + 1) array per group. Rows sum to 1, are
    invariant to adding a constant to all their logits, and, as every dot
    product is a sum along the last axis, do not depend on their batch.
    Non-finite logits are a DataError; finite ones give finite probabilities.
    """
    return [_softmax(z) for z in _candidate_logits(u, groups, shared)]


@np.errstate(all="ignore")
def candidate_gradients(u: np.ndarray, groups, gold, shared):
    """Gradients of ``-log p(gold)`` for ``candidate_probs``, where
    ``gold[s]`` indexes row s's candidates, ``shared`` last.

    With g = p - onehot(gold), returns ``(loss, du, dshared, probs)``: per
    row, the loss, du = sum_j g_j e_j (the gradient in the head output, so
    d/dc through an affine head and d/dA = du h^T) and the shared g (d/db;
    d/de = g u); per group, the softmax p. The loss is taken from the
    logits as ``logsumexp(logits) - logits[gold]``, so it stays finite where
    p(gold) underflows to zero.
    """
    logits = _candidate_logits(u, groups, shared)
    probs = [_softmax(z) for z in logits]
    loss = np.zeros(len(u))
    du = np.zeros_like(u)
    dshared = np.zeros(len(u))
    for (rows, e, _), z, p in zip(groups, logits, probs):
        at_gold = (np.arange(len(p)), gold[rows])
        g = p.copy()
        g[at_gold] -= 1.0
        du[rows] = (g[:, :-1, None] * e).sum(axis=1) + g[:, -1:] * shared[0]
        dshared[rows] = g[:, -1]
        top = z.max(axis=1)
        loss[rows] = (top - z[at_gold]) + np.log(np.exp(z - top[:, None]).sum(axis=1))
    return loss, du, dshared, probs


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction per row."""
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


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

    # No command calls these three methods. They stay while the benchmark's
    # traced run looks them up by name (``bench/child.py`` ``METHODS``)
    # instead of reading per-run stats.
    def embed(self, seq: TokenSequence) -> list[np.ndarray]:
        """The float64 input row of every token of ``seq``, as
        ``_token_rows`` makes them."""
        return list(_token_rows(seq.tokens, self.wp, self.ent))

    def contextualize(self, vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Leave-one-out mean: output i is the mean of all inputs except i.

        The total adds the inputs one by one in order, starting from zero. A
        length-1 sequence contextualizes to a single zero vector.
        """
        n = len(vectors)
        if n == 0:
            raise ValueError("cannot contextualize an empty sequence")
        if n == 1:
            return [np.zeros_like(np.asarray(vectors[0], dtype=np.float64))]
        stack = np.asarray(vectors, dtype=np.float64)
        total = np.zeros(stack.shape[1:])
        for row in stack:
            total += row
        return [(total - stack[i]) / (n - 1) for i in range(n)]

    def mask_state(self, seq: TokenSequence) -> np.ndarray:
        """Contextual vector at the single Mask or EMask position."""
        return self.mask_states(*_index_sequences([seq]))[0]

    def mask_states(
        self, tokens: Sequence[Token], inputs: Sequence[tuple[np.ndarray, int]]
    ) -> np.ndarray:
        """States at the masks of many inputs over one list of distinct tokens.

        Input ``(idx, pos)`` is the sequence ``tokens[idx]`` with its mask at
        ``pos``. The tokens are embedded once into a float64 bank ``B``; row s
        is ``(B[idx].sum(0) - B[idx[pos]]) / (n - 1)`` (zero when n is 1),
        the rows added one by one in input order as ``contextualize`` adds
        them, so it is bit-identical to that method's output ``pos``.
        ``ROW_BLOCK`` inputs at a time are padded to the longest of them with
        a ``-0.0`` row, which leaves every sum as it is, and summed one
        column (one position of every input) at a time, so a row does not
        depend on the rest of its batch.
        """
        dim = self.wp.dim
        pad = len(tokens)
        bank = np.full((pad + 1, dim), -0.0)
        bank[:pad] = _token_rows(tokens, self.wp, self.ent)
        states = np.zeros((len(inputs), dim))
        for start in range(0, len(inputs), ROW_BLOCK):
            part = inputs[start : start + ROW_BLOCK]
            n = np.array([len(idx) for idx, _ in part])
            cols = np.full((len(part), n.max()), pad)
            cols[np.arange(n.max()) < n[:, None]] = np.concatenate([idx for idx, _ in part])
            total = np.zeros((len(part), dim))
            for col in cols.T:
                total += bank[col]
            own = bank[cols[np.arange(len(part)), [pos for _, pos in part]]]
            many = n > 1
            states[start + np.flatnonzero(many)] = (
                (total[many] - own[many]) / (n[many] - 1)[:, None]
            )
        return states

    @np.errstate(all="ignore")
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
        biases are zero in the reference implementation. Non-finite
        probabilities are a DataError.
        """
        e = self._answer_matrix(symbols)
        u = self.head.apply(self.mask_states(*_index_sequences(seqs)))
        probs = by_blocks(
            u, len(symbols), lambda b: _softmax(np.ascontiguousarray((e @ b.T).T))
        )
        return _finite(probs, "answer probabilities")

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
