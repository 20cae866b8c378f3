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

``load_space`` has three ways to read a row and one result. The fast path
streams the rows in chunks of about ``CHUNK_CHARS`` characters, parses each
chunk's numbers with numpy's C text parser into a float32 matrix allocated
once, and so adds little more than one chunk to the matrix's memory. Given a
``keep`` set, each chunk is first scanned whole, byte by byte and
vectorised: when each of its rows is plain numbers (``_plain_numbers``),
which parse to finite values whatever the parser, only its kept rows are
parsed, and the dropped ones cost a scan, not a parse. Whenever a chunk
does not meet its checks (an odd separator, a number only ``float`` reads,
a short, long or blank row, a duplicate symbol, a row count that disagrees
with the header), the file is parsed again line by line, one ``float`` at a
time; that path returns the same symbols and bits or raises the
line-numbered DataError of the first bad line. So every row is checked,
kept or not, but only the kept ones are held. The fast path finds duplicate
symbols from one 8-byte hash per row, not from a set of the symbols
themselves.
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
# adds on top of the matrix does not grow with the table. A keep-load scans a
# chunk whole, with temporaries of some 30 bytes per non-digit.
CHUNK_CHARS = 1 << 15

# The bytes of a number ``_plain_numbers`` accepts besides the digits, and
# the flag it sets on one that directly follows another (no digit between).
_SPACE, _NEWLINE, _MINUS, _POINT, _EXP = b" \n-.e"
_NO_DIGIT_BEFORE = 0x80

# Which pairs of neighbouring non-digits ``_plain_numbers`` allows, indexed
# by ``prev + 256 * cur``; ``cur`` carries its flag, and ``prev`` is allowed
# with or without its own. Digits must come between the two, except that a
# minus directly follows a separator (a sign) or an ``e`` (the exponent's);
# an ``e`` is always directly followed by its minus, and a point never
# follows a point.
_TOKEN_PAIRS = np.zeros((256, 256), dtype=bool)  # [cur, prev]
_TOKEN_PAIRS[np.ix_(
    [_SPACE, _NEWLINE, _POINT, _EXP],
    [p | f for p in (_SPACE, _NEWLINE, _MINUS, _POINT) for f in (0, _NO_DIGIT_BEFORE)],
)] = True
_TOKEN_PAIRS[_POINT, [_POINT, _POINT | _NO_DIGIT_BEFORE]] = False
_TOKEN_PAIRS[_MINUS | _NO_DIGIT_BEFORE,
             [p | f for p in (_SPACE, _NEWLINE, _EXP) for f in (0, _NO_DIGIT_BEFORE)]] = True
_TOKEN_PAIRS = _TOKEN_PAIRS.ravel()

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
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.vocab):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {len(self.vocab)} symbols")
        if self.dim <= 0:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.matrix.size and not np.all(np.isfinite(self.matrix)):
            bad = int(np.argwhere(~np.isfinite(self.matrix).all(axis=1))[0][0])
            raise DataError(
                f"non-finite embedding row for symbol {self.vocab.symbols[bad]!r}"
            )
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


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
    still fails it, but the memory held grows with the kept rows. A row
    outside ``keep`` is checked by a byte scan rather than parsed when its
    chunk holds only plain numbers (``_plain_numbers``), and otherwise by
    numpy's parser or, for an error, the line-by-line one.

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
    return EmbeddingSpace(Vocabulary(symbols), matrix)


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
    line's values) and its numbers pass one of two checks. Given ``keep``,
    the scan of ``_plain_numbers`` comes first: when it passes, every row
    holds ``dim`` numbers that parse to finite values, so only the kept rows
    go to ``np.loadtxt``, each as the same string as before and so to the
    same bits. Otherwise ``np.loadtxt`` must read exactly one row of ``dim``
    values per line without a warning. It splits on the same whitespace as
    ``str.split`` and, with ``comments=None``, accepts a subset of what
    ``float`` accepts, with the same value; blank rests it would skip show up
    as a short block. Kept rows are written to the front of the matrix,
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
        if absent is not None:
            absent.difference_update(chunk_symbols)
        rests = [p[2] for p in parts]
        if keep is not None and _plain_numbers(rests, dim):
            # No row can fail to parse: parse only the kept ones.
            parsed = [i for i, sym in enumerate(chunk_symbols) if sym in keep]
            chunk_symbols = [chunk_symbols[i] for i in parsed]
            rests = [rests[i] for i in parsed]
        block = _parse_block(rests, dim)
        if block is None:
            return None
        bad = bad or _first_non_finite(chunk_symbols, block)
        kept, block = _kept_rows(chunk_symbols, block, keep)
        matrix[len(symbols) : len(symbols) + len(kept)] = block
        symbols += kept
    if read != count or has_tie(row_hashes):  # a duplicate, or a collision
        return None
    matrix.resize((len(symbols), dim), refcheck=False)
    return symbols, matrix, bad


def _parse_block(rests: list[str], dim: int) -> np.ndarray | None:
    """The float32 rows ``np.loadtxt`` reads from ``rests``, or None unless
    it reads exactly one row of ``dim`` values from each, without a
    warning."""
    if not rests:
        return np.empty((0, dim), dtype=np.float32)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if block.shape != (len(rests), dim):
        return None
    with np.errstate(over="ignore"):  # load_space reports the inf
        return block.astype(np.float32)


def _plain_numbers(rests: list[str], dim: int) -> bool:
    """Whether each of ``rests`` is ``dim`` numbers ``-?D+(.D+)?(e-D+)?``
    joined by single spaces and ended by a newline, with no more than 38
    digits in a row (D is an ASCII digit).

    ``float`` and ``np.loadtxt`` read such a number alike, both correctly
    rounded, and its magnitude is below 1e38, so it is finite as a float32:
    a row that passes needs no parsing to be checked. The scan is vectorised
    over the bytes of one chunk's rests and works on their non-digits: their
    positions bound the runs of digits between them, and each, flagged when
    no digit comes before it, is checked against the one before through
    ``_TOKEN_PAIRS``, a lookup over two ``uint16`` views of the pairs. Two
    rules that pairs cannot tell are checked apart: the digits after an
    exponent's minus end the number, and each line's separators are
    ``dim - 1`` spaces, then the newline.
    """
    text = "".join(["\n", *rests])  # the newline stands for the line before
    if not text.isascii() or text[-1] != "\n":
        return False
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    at = ((data < ord("0")) | (data > ord("9"))).nonzero()[0]
    gaps = at[1:] - at[:-1]  # one more than the digits in between
    if np.count_nonzero(gaps > 39):
        return False
    tokens = data.take(at)
    tokens[1:] += (gaps == 1).view(np.uint8) << 7  # sets _NO_DIGIT_BEFORE
    pairs = tokens[: tokens.size // 2 * 2].view("<u2")
    shifted = tokens[1 : 1 + (tokens.size - 1) // 2 * 2].view("<u2")
    if not (_TOKEN_PAIRS.take(pairs).all() and _TOKEN_PAIRS.take(shifted).all()):
        return False
    # The second token after an "e" is the one after the exponent's digits.
    if "e" in text and np.count_nonzero((tokens[:-2] == _EXP) & (tokens[2:] > _MINUS)):
        return False
    separators = tokens.take((tokens < _MINUS).nonzero()[0]).tobytes()
    return separators == b"\n" + (b" " * (dim - 1) + b"\n") * len(rests)


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
    """One symbol present in both spaces: (wordpiece id, word id)."""

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
        SharedSymbol(wp_id, wiki.vocab.index[sym])
        for wp_id, sym in enumerate(wp.vocab.symbols)
        if sym in wiki.vocab.index and not is_entity_symbol(sym)
    ]
    if not shared:
        raise DataError("empty intersection between wordpiece and word vocabularies")
    return shared
