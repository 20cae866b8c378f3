"""Vocabularies and dense embedding spaces in word2vec text format.

Two kinds of space exist: wordpiece spaces (every symbol is a wordpiece) and
word-and-entity spaces, where entity symbols carry the ``ENTITY/`` prefix and
everything else is a plain word. The prefixed string itself is the entity id
used throughout the codebase.

File layout is the classic text format: a header line ``<count> <dim>``
followed by one row per symbol, ``<symbol> <v1> ... <v_dim>``, UTF-8 encoded
and space separated. Symbols must not contain whitespace. Numbers are parsed
as 64-bit floats and stored as 32-bit, so float32 values written in full
(as ``str`` of a numpy float32 writes them) load back exactly.

``load_space`` has two parsers with one result. The fast path streams the
rows in chunks of about ``CHUNK_CHARS`` characters, parses each chunk's
numbers with numpy's C text parser into a float32 matrix allocated once,
and so adds little more than one chunk to the matrix's memory. Whenever a
chunk does not meet its checks (an odd separator, a number only ``float``
reads, a short, long or blank row, a duplicate symbol, a row count that
disagrees with the header), the file is parsed again line by line, one
``float`` at a time; that path returns the same symbols and bits or raises
the line-numbered DataError of the first bad line. Given a ``keep`` set,
both paths still parse and check every row but hold only the kept ones.
The fast path finds duplicate symbols from one 8-byte hash per row, not
from a set of the symbols themselves.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Container, Iterable, NamedTuple

import numpy as np

from .errors import DataError
from .symbols import is_entity_symbol

# Characters of lines per parse chunk of ``load_space``: the memory a chunk
# adds on top of the matrix does not grow with the table.
CHUNK_CHARS = 1 << 16

# The one hash strings are compared by before an exact comparison: a space's
# symbols against each other here, and a candidate table's surfaces, (surface,
# entity) pairs and entities in ``_candidate_table``. Equal hashes only ever
# lead to an exact check, so a collision costs time, not results.
_hash = hash


class Vocabulary:
    """Ordered set of unique symbols with contiguous integer ids."""

    def __init__(self, symbols: Iterable[str]):
        self.symbols: tuple[str, ...] = tuple(symbols)
        self.index: dict[str, int] = {sym: i for i, sym in enumerate(self.symbols)}
        if len(self.index) != len(self.symbols):
            seen: set[str] = set()
            for sym in self.symbols:
                if sym in seen:
                    raise DataError(f"duplicate symbol in vocabulary: {sym!r}")
                seen.add(sym)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index


@dataclass
class EmbeddingSpace:
    """A vocabulary plus a row-per-symbol embedding matrix.

    The matrix is marked read-only after construction; spaces are meant to be
    shared freely across threads.
    """

    vocab: Vocabulary
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.dim <= 0:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocab)} symbols of dimension {self.dim}"
            )
        if self.matrix.size and not np.all(np.isfinite(self.matrix)):
            bad = int(np.argwhere(~np.isfinite(self.matrix).all(axis=1))[0][0])
            raise DataError(
                f"non-finite embedding row for symbol {self.vocab.symbols[bad]!r}"
            )
        self.matrix.setflags(write=False)

    def row(self, symbol: str) -> np.ndarray | None:
        i = self.vocab.index.get(symbol)
        return None if i is None else self.matrix[i]


def load_space(path, keep: Container[str] | None = None, absent=None) -> EmbeddingSpace:
    """Load an embedding space from word2vec text format.

    Every row is validated, kept or not. Raises DataError with a line number
    on malformed headers, dimension mismatches, unparseable numbers,
    duplicate symbols, or a row count that disagrees with the header; once
    the whole file has parsed, it names the first row with a non-finite
    value.

    With ``keep``, the space holds only the rows whose symbol is in
    ``keep``, in file order; symbols of ``keep`` the file lacks are ignored.
    The errors are those of a full load, so a bad row outside ``keep``
    still fails it, but the memory held grows with the kept rows.

    With ``absent``, a set or any object with a set's ``difference_update``,
    every symbol of the file is removed from it, kept or not, so what is
    left is what the file lacks.
    """
    with open(path, encoding="utf-8") as fh:
        # The fast path needs a regular file: its size bounds the allocation,
        # and the fallback reads the file again from the start.
        loaded = None
        if fh.seekable():
            loaded = _parse_chunks(fh, keep, absent)
            fh.seek(0)
        if loaded is None:
            symbols, matrix = _parse_lines(path, fh.read())
            loaded = (*_kept_rows(symbols, matrix, keep),
                      _first_non_finite(symbols, matrix))
            if absent is not None:
                absent.difference_update(symbols)
    symbols, matrix, bad = loaded
    if bad is not None:
        raise DataError(f"{path}: non-finite value in row for {bad!r}")
    return EmbeddingSpace(Vocabulary(symbols), matrix.shape[1], matrix)


def _kept_rows(
    symbols: list[str], matrix: np.ndarray, keep: Container[str] | None
) -> tuple[list[str], np.ndarray]:
    if keep is None:
        return symbols, matrix
    ids = [i for i, sym in enumerate(symbols) if sym in keep]
    return [symbols[i] for i in ids], matrix[ids]


def _first_non_finite(symbols: list[str], matrix: np.ndarray) -> str | None:
    finite = np.isfinite(matrix).all(axis=1)
    return None if finite.all() else symbols[int(finite.argmin())]


def _parse_chunks(fh, keep, absent) -> tuple[list[str], np.ndarray, str | None] | None:
    """The fast path: rows in bounded chunks of lines, numbers by numpy's C
    parser. Returns the kept symbols, their rows and the symbol of the first
    non-finite row of the file (kept or not), or None when anything looks
    off; ``_parse_lines`` then decides, so every line-numbered error comes
    from that one path.

    A chunk is accepted only when each line's text before its first space is
    a non-empty symbol without whitespace (so the rest holds exactly the
    line's values) and ``np.loadtxt`` reads exactly one row of ``dim`` values
    per line without a warning. ``np.loadtxt`` splits on the same whitespace
    as ``str.split`` and, with ``comments=None``, accepts a subset of what
    ``float`` accepts, with the same value; blank rests it would skip show
    up as a short block. Kept rows are written to the front of the matrix,
    which is then shrunk in place, so rows are never copied twice and pages
    no kept row reaches are never touched. Each chunk's symbols are removed
    from ``absent`` as it is read. Duplicates are found at the end, as equal
    neighbours among the sorted hashes of all symbols.
    """
    header = fh.readline().split()
    try:
        count, dim = int(header[0]), int(header[1])
    except (IndexError, ValueError):
        return None
    if len(header) != 2 or count < 0 or dim <= 0:
        return None
    # A row of dim values takes 2 * dim + 1 characters or more, so a file
    # too short for its header is left to the line-by-line path.
    if os.fstat(fh.fileno()).st_size < count * (2 * dim + 1):
        return None
    matrix = np.empty((count, dim), dtype=np.float32)
    row_hashes = np.empty(count, dtype=np.int64)
    symbols: list[str] = []  # the kept ones
    bad = None
    read = 0
    while parts := [line.partition(" ") for line in fh.readlines(CHUNK_CHARS)]:
        read += len(parts)
        chunk_symbols = [p[0] for p in parts]
        if read > count or " ".join(chunk_symbols).split() != chunk_symbols:
            return None
        row_hashes[read - len(parts) : read] = hashes(chunk_symbols)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = np.loadtxt(
                    [p[2] for p in parts], dtype=np.float64, comments=None, ndmin=2
                )
        except (ValueError, Warning):
            return None
        if block.shape != (len(parts), dim):
            return None
        with np.errstate(over="ignore"):  # load_space reports the inf
            block = block.astype(np.float32)
        bad = bad or _first_non_finite(chunk_symbols, block)
        kept, block = _kept_rows(chunk_symbols, block, keep)
        matrix[len(symbols) : len(symbols) + len(kept)] = block
        symbols += kept
        if absent is not None:
            absent.difference_update(chunk_symbols)
    if read != count or has_tie(row_hashes):  # a duplicate, or a collision
        return None
    matrix.resize((len(symbols), dim), refcheck=False)
    return symbols, matrix, bad


def hashes(items: Iterable) -> np.ndarray:
    """The ``_hash`` of each item, as int64."""
    return np.fromiter(map(_hash, items), dtype=np.int64)


def has_tie(hashes: np.ndarray) -> bool:
    """Sort ``hashes`` in place and tell whether two of them are equal.

    A stable sort and count_nonzero, not the default sort and ``.any()``:
    code a first call touches stays resident, and on x86-64 (numpy 2.4) the
    default sort's SIMD code is about 0.2 MiB more, while the cloze ranking's
    stable argsort touches the stable sort's code anyway.
    """
    hashes.sort(kind="stable")
    return bool(np.count_nonzero(hashes[1:] == hashes[:-1]))


def _parse_lines(path, text: str) -> tuple[list[str], np.ndarray]:
    """The reference path: one line and one ``float`` at a time, raising the
    line-numbered DataError of the first bad line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty file, expected a '<count> <dim>' header")

    header = lines[0].split()
    if len(header) != 2:
        raise DataError(f"{path}: line 1: malformed header {lines[0]!r}")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise DataError(f"{path}: line 1: malformed header {lines[0]!r}") from None
    if count < 0 or dim <= 0:
        raise DataError(f"{path}: line 1: invalid header values {lines[0]!r}")

    data_lines = lines[1:]
    if len(data_lines) != count:
        raise DataError(
            f"{path}: header declares {count} rows but file has {len(data_lines)}"
        )

    # In a file too short for its header the loop finds a short row, so skip
    # allocating.
    fits = sum(map(len, data_lines)) >= count * (2 * dim + 1)
    rows = np.empty((count, dim), dtype=np.float64) if fits else None
    symbols: list[str] = []
    seen: set[str] = set()
    for n, line in enumerate(data_lines):
        lineno = n + 2
        fields = line.split()
        if len(fields) != dim + 1:
            raise DataError(
                f"{path}: line {lineno}: expected {dim} values, got {len(fields) - 1}"
            )
        sym = fields[0]
        if sym in seen:
            raise DataError(f"{path}: line {lineno}: duplicate symbol {sym!r}")
        seen.add(sym)
        symbols.append(sym)
        try:
            values = [float(x) for x in fields[1:]]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable number") from None
        if rows is not None:
            rows[n] = values
    with np.errstate(over="ignore"):  # load_space reports the inf
        return symbols, rows.astype(np.float32)


class SharedSymbol(NamedTuple):
    """One symbol present in both spaces: (symbol, wordpiece id, word id)."""

    symbol: str
    wp_id: int
    wiki_id: int


def shared_vocabulary(
    wp: EmbeddingSpace, wiki: EmbeddingSpace
) -> list[SharedSymbol]:
    """Exact case-sensitive intersection of a wordpiece and a word space.

    Entity symbols never participate (the prefix keeps them out of any
    wordpiece vocabulary by construction, and they are skipped here anyway).
    Returned in ascending wordpiece id order. An empty intersection is a
    DataError because no alignment can be fit from it.
    """
    shared = [
        SharedSymbol(sym, wp_id, wiki.vocab.index[sym])
        for wp_id, sym in enumerate(wp.vocab.symbols)
        if sym in wiki.vocab.index and not is_entity_symbol(sym)
    ]
    if not shared:
        raise DataError("empty intersection between wordpiece and word vocabularies")
    return shared
