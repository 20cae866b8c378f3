"""Pluggable masked-LM scoring contract and its reference implementation.

A scorer embeds the tokens of its inputs and takes the state at each input's
mask from the rest of the input. Cloze answers are scored by dotting that
state against the answer rows of the wordpiece space; entity linking first
passes it through its own trainable head (``AffineHead``). The reference
scorer is deliberately tiny and fully analytic: the state is the
leave-one-out mean of the embedded input at its mask. That is enough to
exercise every downstream contract without a trained network.

This module is the only one that knows how a state or a candidate
distribution is computed. Consumers duck-type against a small protocol.
Both batch methods take one input form: a list of distinct tokens and
inputs ``(idx, pos)``, each the sequence ``tokens[idx]`` with its one mask
at ``pos``. ``keyed`` puts cloze questions in that form; the linker keys
its spans' inputs itself. Cloze evaluation and filtering need ``wp_vocab``
(the wordpiece vocabulary used for tokenization) and
``score_answers(tokens, inputs, symbols)``, which returns a (Q, V) array of
the V answer probabilities at the mask of each of Q inputs, Q at most
``ROW_BLOCK``. Entity linking needs ``wp_vocab``, ``ent`` (the entity space
of the candidate rows) and ``mask_states(tokens, inputs)``, which returns
the (S, d) states at the masks of S inputs. A row of either batch method
must not depend on the rest of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, Vocabulary
from .errors import DataError
from .text_input import MASK_WORD, UNK, Token, TokenKind, TokenSequence

_MASK_KINDS = (TokenKind.MASK, TokenKind.EMASK)

# Linking states per head product, and the most questions ``score_answers``
# takes: its one answer-logit product. Every product has exactly this many
# states (the last block of a batch is zero-padded), and the states are the
# columns of its right-hand operand, so BLAS tiles them uniformly and a
# state's probabilities are bit-identical whatever batch it is scored in. On
# OpenBLAS, a product whose shape follows the batch size, or that has the
# states as rows of its left-hand operand, changes the last bits of rows.
# ``by_blocks`` takes the head's blocks and ``alignment.derive_entity_space``'s,
# and ``lama_bench.rank_answers`` scores this many questions per scorer call.
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


def keyed(sequences: Iterable[Sequence[Token]]) -> tuple[list[Token], list]:
    """Token sequences, each with exactly one mask or entity mask, in the
    scorers' input form: the distinct tokens in first-seen order, and each
    sequence's ``(keys, mask position)``."""
    keys: dict[Token, int] = {}
    inputs = []
    for tokens in sequences:
        positions = [i for i, t in enumerate(tokens) if t.kind in _MASK_KINDS]
        if len(positions) != 1:
            raise ValueError(f"expected exactly one mask position, found {len(positions)}")
        idx = np.array([keys.setdefault(t, len(keys)) for t in tokens], dtype=np.intp)
        inputs.append((idx, positions[0]))
    return list(keys), inputs


def _token_rows(
    tokens: Sequence[Token], wp: EmbeddingSpace, ent: EmbeddingSpace | None
) -> np.ndarray:
    """The float64 input rows of ``tokens``, one per row: a wordpiece's row,
    or the ``[UNK]`` row for a wordpiece missing from ``wp``; the ``[MASK]``
    row for a mask; an entity's row; and for an entity mask the mean of its
    candidates' rows. A missing entity is a DataError: the input builders
    fall back to surface wordpieces before this point. Each distinct entity
    is looked up once, its float32 row read straight from ``ent.matrix`` and
    widened exactly, and the entity masks with c candidates are averaged
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
        ent_rows = np.array([_ent_row(ent, e) for e in entities])
        if ent.dim != wp.dim:
            raise ValueError("wordpiece and entity spaces have different dimensions")
        rows[single] = ent.matrix[ent_rows[slots]]
        for count, (at, cands) in means.items():
            cands = ent_rows[cands]
            total = np.zeros((len(at), wp.dim))
            for j in range(count):
                total += ent.matrix[cands[:, j]]
            rows[at] = total / count
    return rows


def _leave_one_out(bank: np.ndarray, inputs: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """The (S, d) leave-one-out states of S inputs ``(idx, pos)`` over the
    float64 rows of ``bank``, whose last row is ``-0.0``: row s is
    ``(bank[idx].sum(0) - bank[idx[pos]]) / (n - 1)``, zero when n is 1, its
    n rows added one by one in input order from zero. The inputs are padded
    to the longest of them with the ``-0.0`` row, which leaves every sum as
    it is, and summed one column (one position of every input) at a time, so
    a row does not depend on the rest of its batch."""
    states = np.zeros((len(inputs), bank.shape[1]))
    if not inputs:
        return states
    n = np.array([len(idx) for idx, _ in inputs])
    cols = np.full((len(inputs), n.max()), len(bank) - 1)
    cols[np.arange(n.max()) < n[:, None]] = np.concatenate([idx for idx, _ in inputs])
    total = np.zeros_like(states)
    for col in cols.T:
        total += bank[col]
    own = bank[cols[np.arange(len(inputs)), [pos for _, pos in inputs]]]
    many = n > 1
    states[many] = (total[many] - own[many]) / (n[many] - 1)[:, None]
    return states


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


def _ent_row(ent: EmbeddingSpace | None, entity_id: str) -> int:
    """The number of ``entity_id``'s row in ``ent``."""
    if ent is None:
        raise ValueError("sequence contains entity tokens but no entity space was given")
    row = ent.vocab.index.get(entity_id)
    if row is None:
        raise DataError(f"entity {entity_id!r} missing from entity space")
    return row


@dataclass
class AffineHead:
    """The linker's trainable head: the affine map h -> A h + c applied to
    a span's mask state before its candidates are scored."""

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
        """``A h + c`` for each row of an (S, d) stack of states. The stack
        is taken ``ROW_BLOCK`` zero-padded rows at a time in transposed form,
        ``A H^T + c``, so a row's output does not depend on the rest of its
        stack."""
        return by_blocks(h, self.dim, lambda b: (self.a @ b.T + self.c[:, None]).T)

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
    logits as ``logsumexp(logits) - logits[gold]``, the log of the sum the
    softmax divides by, so it stays finite where p(gold) underflows to zero.
    """
    loss = np.zeros(len(u))
    du = np.zeros_like(u)
    dshared = np.zeros(len(u))
    probs = []
    for (rows, e, _), z in zip(groups, _candidate_logits(u, groups, shared)):
        at_gold = (np.arange(len(z)), gold[rows])
        top = z.max(axis=1)
        p = np.exp(z - top[:, None])
        total = p.sum(axis=1)
        p /= total[:, None]
        probs.append(p)
        loss[rows] = (top - z[at_gold]) + np.log(total)
        g = p.copy()
        g[at_gold] -= 1.0
        du[rows] = (g[:, :-1, None] * e).sum(axis=1) + g[:, -1:] * shared[0]
        dshared[rows] = g[:, -1]
    return loss, du, dshared, probs


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of ``z``, in place: each row less its
    max, exponentiated, divided by its sum. Returns ``z``."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


@dataclass
class ReferenceScorer:
    """Embed, leave-one-out contextualize, softmax over the answer rows."""

    wp: EmbeddingSpace
    ent: EmbeddingSpace | None = None

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
        """Leave-one-out mean: output i is the mean of all inputs except i,
        by ``_leave_one_out``. A length-1 sequence contextualizes to a
        single zero vector."""
        if len(vectors) == 0:
            raise ValueError("cannot contextualize an empty sequence")
        bank = np.full((len(vectors) + 1, len(vectors[0])), -0.0)
        bank[:-1] = vectors
        idx = np.arange(len(vectors))
        return list(_leave_one_out(bank, [(idx, i) for i in idx]))

    def mask_state(self, seq: TokenSequence) -> np.ndarray:
        """Contextual vector at the single Mask or EMask position."""
        return self.mask_states(*keyed([seq.tokens]))[0]

    def mask_states(
        self, tokens: Sequence[Token], inputs: Sequence[tuple[np.ndarray, int]]
    ) -> np.ndarray:
        """States at the masks of many inputs over one list of distinct tokens.

        Input ``(idx, pos)`` is the sequence ``tokens[idx]`` with its mask at
        ``pos``. The tokens are embedded once into a float64 bank, and each
        state is the ``_leave_one_out`` mean at the mask. The caller bounds
        the batch: the work arrays are (S, longest input) and (S, d).
        """
        bank = np.full((len(tokens) + 1, self.wp.dim), -0.0)
        bank[:-1] = _token_rows(tokens, self.wp, self.ent)
        return _leave_one_out(bank, inputs)

    @np.errstate(all="ignore")
    def score_answers(
        self,
        tokens: Sequence[Token],
        inputs: Sequence[tuple[np.ndarray, int]],
        symbols: Sequence[str],
    ) -> np.ndarray:
        """Probabilities over the answer symbols at the mask of each input.

        Takes ``mask_states``' inputs, at most ``ROW_BLOCK`` of them, and
        returns a ``(len(inputs), len(symbols))`` array. The mask states
        ``H`` are scored as ``softmax(H E^T)`` row by row, where ``E`` holds
        the answer rows. ``H`` is zero-padded to ``ROW_BLOCK`` rows and the
        product taken in transposed form, ``E H^T``; the softmax is taken in
        place in its contiguous transposed copy, whose first rows are
        returned. Scoring holds two ``(V, ROW_BLOCK)`` arrays at a time for V
        answer symbols, one of them the result. Every answer symbol must
        exist in the wordpiece space; answer biases are zero in the reference
        implementation. Non-finite probabilities are a DataError.
        """
        if len(inputs) > ROW_BLOCK:
            raise ValueError(f"at most {ROW_BLOCK} inputs per call, got {len(inputs)}")
        if not symbols:
            raise ValueError("no answer symbols to score")
        missing = [s for s in symbols if s not in self.wp.vocab]
        if missing:
            raise DataError(f"answer symbol {missing[0]!r} missing from wordpiece space")
        # The rows stay float32: the product widens them exactly.
        e = self.wp.matrix[[self.wp.vocab.index[s] for s in symbols]]
        block = np.zeros((ROW_BLOCK, self.wp.dim))
        block[: len(inputs)] = self.mask_states(tokens, inputs)
        probs = _softmax(np.ascontiguousarray((e @ block.T).T))[: len(inputs)]
        return _finite(probs, "answer probabilities")
