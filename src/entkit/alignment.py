"""Least-squares alignment of a word space onto a wordpiece space.

The map W minimizes the summed squared error ||W x - y||^2 over all shared
vocabulary pairs, where x is a source (word) vector and y the target
(wordpiece) vector of the same symbol. Entity vectors are then carried into
the target space by the same W, which is the whole point: entities inherit
the geometry the shared words induce.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import (
    EmbeddingSpace,
    SharedSymbol,
    SpaceKind,
    Vocabulary,
    is_entity_symbol,
)
from .errors import DataError
from .scorer import by_blocks

logger = logging.getLogger(__name__)

# Shared pairs gathered into float64 at a time by fit_alignment.
FIT_BLOCK = 512


@dataclass
class AlignmentMap:
    """A fitted linear map.

    Attributes
    ----------
    w : ndarray of shape (d_tgt, d_src), float64
        The least-squares solution; its bytes do not depend on the BLAS
        thread count. It holds no negative zero.
    shared_count : int
        Number of vocabulary pairs the fit used.
    residual : float
        Summed squared error of the fit: the part of Y the QR leaves
        outside the span of X. Equal, up to rounding, to
        ``sum(||W x - y||^2)`` over the training pairs.
    rank_deficient : bool
        True when the source vectors did not span the source space, by
        ``np.linalg.lstsq``'s rank rule, and the minimum-norm solution was
        taken. Not serialized; loading a map from disk resets it to False.
    """

    w: np.ndarray
    shared_count: int
    residual: float
    rank_deficient: bool = False

    @property
    def d_tgt(self) -> int:
        return self.w.shape[0]

    @property
    def d_src(self) -> int:
        return self.w.shape[1]


def fit_alignment(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    pairs: Sequence[SharedSymbol],
) -> AlignmentMap:
    """Fit W = argmin sum ||W x - y||^2 over the given symbol pairs.

    Solved in float64 by a row-blocked Householder QR of ``[X | Y]``, never
    by forming normal equations. ``FIT_BLOCK`` pairs are gathered at a time
    and stacked under the running d_src x (d_src + d_tgt) triangle
    ``[R | C]``; d_src reflections zero their X part, and the squares of what
    is left of their Y part add to the residual. So memory is bounded by the
    block, not by the number of pairs. Every reduction is numpy's own
    (``einsum`` without ``optimize``, ``add.reduce``), never BLAS, so the
    bytes do not depend on the BLAS thread count. W comes from R W^T = C by
    back-substitution.

    The rank is lstsq's: singular values of R (those of X) above
    ``eps * max(n, d_src) * s_max``. They only set the ``rank_deficient``
    flag; a rank-deficient system takes the minimum-norm solution of
    R W^T = C through ``np.linalg.lstsq``.

    Parameters
    ----------
    src : word-and-entity space providing the x vectors (via ``wiki_id``).
    tgt : wordpiece space providing the y vectors (via ``wp_id``).
    pairs : shared vocabulary as produced by ``shared_vocabulary``.
    """
    if not pairs:
        raise ValueError("cannot fit an alignment from zero shared symbols")
    d = src.dim
    tri = np.zeros((d, d + tgt.dim))
    residual = 0.0
    for start in range(0, len(pairs), FIT_BLOCK):
        chunk = pairs[start : start + FIT_BLOCK]
        cols = np.empty((d + tgt.dim, len(chunk)))  # the block, transposed
        cols[:d] = src.matrix[[p.wiki_id for p in chunk]].T
        cols[d:] = tgt.matrix[[p.wp_id for p in chunk]].T
        _reduce_block(tri, cols)
        residual += float(np.add.reduce(cols[d:] ** 2, axis=None))
    r, c = tri[:, :d], tri[:, d:]
    cutoff = float(np.finfo(np.float64).eps) * max(len(pairs), d)
    s = np.linalg.svd(r, compute_uv=False)
    rank = int(np.count_nonzero(s > cutoff * s[0]))
    rank_deficient = rank < d
    if rank_deficient:
        logger.warning(
            "shared vectors span only %d of %d source dimensions; "
            "minimum-norm solution taken",
            rank,
            d,
        )
        wt = np.linalg.lstsq(r, c, rcond=cutoff)[0]
        residual += float(np.add.reduce((np.einsum("ij,jk->ik", r, wt) - c) ** 2, axis=None))
    else:
        wt = _back_substitute(r, c)
    return AlignmentMap(wt.T + 0.0, len(pairs), residual, rank_deficient)


def _reduce_block(tri: np.ndarray, cols: np.ndarray) -> None:
    """Zero the first d rows of ``cols`` (a block of rows, transposed) by
    Householder reflections of ``[tri; cols.T]``, in place, where
    ``tri`` is d x k and upper triangular in its first d columns, so
    reflection j touches only row j of ``tri``. Rows of ``cols`` are
    contiguous, so every product is a contiguous ``einsum`` reduction."""
    for j in range(len(tri)):
        below = cols[j]
        sigma = float(np.einsum("i,i->", below, below))
        if sigma == 0.0:
            continue
        top = tri[j, j]
        alpha = -math.copysign(math.sqrt(top * top + sigma), top)
        head = top - alpha  # the reflector is (head, below); no cancellation
        tau = head / -alpha  # 2 / ||v||^2 for v = (1, below / head)
        rest = cols[j + 1 :]
        proj = tri[j, j + 1 :] + np.einsum("ji,i->j", rest, below) / head
        tri[j, j] = alpha
        tri[j, j + 1 :] -= tau * proj
        rest -= np.multiply.outer(proj, below * (tau / head))


def _back_substitute(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system r x = c, row by row from the last."""
    x = np.empty_like(c)
    for i in range(len(r) - 1, -1, -1):
        x[i] = (c[i] - np.einsum("j,jk->k", r[i, i + 1 :], x[i + 1 :])) / r[i, i]
    return x


def check_entity_source(amap: AlignmentMap, wiki: EmbeddingSpace) -> None:
    """Raise unless entity rows of ``wiki`` can be mapped by ``amap``."""
    if wiki.kind is not SpaceKind.WORD_AND_ENTITY:
        raise ValueError("entity derivation needs a word-and-entity space")
    if wiki.dim != amap.d_src:
        raise DataError(
            f"space dimension {wiki.dim} does not match alignment source "
            f"dimension {amap.d_src}"
        )


def derive_entity_space(
    amap: AlignmentMap, wiki: EmbeddingSpace, symbols: Iterable[str] | None = None
) -> EmbeddingSpace:
    """Map entity rows of ``wiki`` into the target space.

    Maps every entity row, or with ``symbols`` only those entities. The
    result holds them in their relative order in ``wiki``, and no words.
    Rows are mapped by ``scorer.by_blocks``, the last block zero-padded, so
    every product has one shape and a row's bits do not depend on which
    other rows are derived. The rows stay the left-hand operand, as in a
    single product over the whole table, whose bits they match for tables
    of more than a few rows.
    """
    check_entity_source(amap, wiki)
    index = wiki.vocab.index
    if symbols is None:
        ids = [index[s] for s in wiki.entity_symbols()]
    else:
        wanted = set(symbols)
        words = sorted(s for s in wanted if not is_entity_symbol(s))
        if words:
            raise DataError(f"cannot derive symbols that are not entities: {words[:5]}")
        missing = sorted(s for s in wanted if s not in index)
        if missing:
            raise DataError(f"entities missing from entity space: {missing[:5]}")
        ids = sorted(index[s] for s in wanted)
    with np.errstate(over="ignore", invalid="ignore"):  # EmbeddingSpace reports it
        rows = by_blocks(wiki.matrix[ids], amap.d_tgt, lambda b: b @ amap.w.T)
    return EmbeddingSpace(
        Vocabulary([wiki.vocab.symbols[i] for i in ids]),
        amap.d_tgt,
        rows,
        SpaceKind.WORD_AND_ENTITY,
    )


def save_alignment(amap: AlignmentMap, path) -> None:
    """Serialize: header ``d_tgt d_src residual shared_count``, then the rows.

    Values use shortest round-tripping float64 repr, so load(save(m)) is
    bit-exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{amap.d_tgt} {amap.d_src} {amap.residual!r} {amap.shared_count}\n"
        )
        for row in amap.w:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_alignment(path) -> AlignmentMap:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty alignment file")
    header = lines[0].split()
    if len(header) != 4:
        raise DataError(f"{path}: line 1: malformed alignment header {lines[0]!r}")
    try:
        d_tgt, d_src = int(header[0]), int(header[1])
        residual = float(header[2])
        shared_count = int(header[3])
    except ValueError:
        raise DataError(f"{path}: line 1: malformed alignment header") from None
    if d_tgt <= 0 or d_src <= 0:
        raise DataError(f"{path}: line 1: alignment dimensions must be positive")
    if not np.isfinite(residual):
        raise DataError(f"{path}: line 1: non-finite residual")
    if len(lines) - 1 != d_tgt:
        raise DataError(
            f"{path}: header declares {d_tgt} rows but file has {len(lines) - 1}"
        )
    # Every row's width is checked before the header's shape is allocated.
    for i, line in enumerate(lines[1:]):
        width = len(line.split())
        if width != d_src:
            raise DataError(f"{path}: line {i + 2}: expected {d_src} values, got {width}")
    w = np.empty((d_tgt, d_src), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        try:
            w[i] = [float(v) for v in line.split()]
        except ValueError:
            raise DataError(f"{path}: line {i + 2}: unparseable number") from None
        if not np.all(np.isfinite(w[i])):
            raise DataError(f"{path}: line {i + 2}: non-finite value")
    return AlignmentMap(w, shared_count, residual)
