"""The rows of a candidate table, read by ``read_table``.

A pass checks every row and holds candidates for every surface, or only
for the surfaces it is given; then it hashes the (surface, entity) pairs
and packs the table's entities into one buffer, so its memory grows with
the held surfaces, not with the file. ``entity_linking.load_candidate_table``
chooses the surfaces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._tsv import tsv_rows
from .embeddings import has_tie, hashes
from .errors import DataError
from .symbols import is_entity_symbol


class Candidate(NamedTuple):
    entity: str
    prior: float


# Rows of the candidate table handled at a time: matched against the
# surfaces as they stream, or compared with a space's symbols.
TABLE_CHUNK_ROWS = 1024


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``start[i] .. start[i] + length[i] - 1``,
    end to end, as int32."""
    end = np.cumsum(length)
    out = np.repeat((start - (end - length)).astype(np.int32), length)
    out += np.arange(len(out), dtype=np.int32)
    return out


class PackedSymbols:
    """A multiset of strings held as one UTF-8 buffer with offsets and an
    int64 hash per string, not as string objects.

    ``difference_update`` removes every copy of each symbol it is given, as
    a set's does: the hash finds the strings that may equal a symbol and a
    byte comparison confirms each, so an equal hash never removes a
    different string. Symbols are removed in batches of at least
    ``TABLE_CHUNK_ROWS``, and the last batch when ``remaining`` is asked.
    Strings are added before the first removal.
    """

    def __init__(self):
        self._text = bytearray()
        # Native int64s: string i is _text[_bounds[i]:_bounds[i + 1]].
        self._bounds = bytearray(8)
        self._hashes = bytearray()
        self._order = None
        self._pending: list[str] = []  # symbols to remove in the next batch

    def __len__(self) -> int:
        return len(self._hashes) // 8

    def update(self, symbols: Sequence[str]) -> None:
        encoded = [sym.encode("utf-8") for sym in symbols]
        ends = np.fromiter(map(len, encoded), dtype=np.int64).cumsum() + len(self._text)
        self._bounds += ends.tobytes()
        self._text += b"".join(encoded)
        self._hashes += hashes(symbols).tobytes()

    def _index(self) -> None:
        """Sort the hashes in place once; ``_order`` maps each sorted
        position to its string."""
        if self._order is None:
            self._sorted = np.frombuffer(self._hashes, dtype=np.int64)
            self._order = np.argsort(self._sorted, kind="stable")
            self._sorted.sort(kind="stable")
            self._left = np.ones(len(self._order), dtype=bool)

    def _strings(self, at: np.ndarray) -> list[bytearray]:
        """The strings at the sorted positions ``at``."""
        i = self._order[at]
        bounds = np.frombuffer(self._bounds, dtype=np.int64)
        return [self._text[s:e] for s, e in zip(bounds[i].tolist(), bounds[i + 1].tolist())]

    def difference_update(self, symbols: Iterable[str]) -> None:
        self._pending += symbols
        if len(self._pending) >= TABLE_CHUNK_ROWS:
            self._remove_pending()

    def _remove_pending(self) -> None:
        self._index()
        symbols, self._pending = self._pending, []
        wanted = hashes(symbols)
        # Looking the hashes up in ascending order keeps the searches local.
        by_hash = np.argsort(wanted, kind="stable")
        wanted = wanted[by_hash]
        lo = self._sorted.searchsorted(wanted, side="left")
        count = self._sorted.searchsorted(wanted, side="right") - lo
        # Each sorted position a symbol's hash finds, and the symbol. A table
        # row's position fits in int32, which halves these arrays when a
        # batch finds many rows.
        at = _ranges(lo, count)
        of = np.repeat(by_hash.astype(np.int32), count)
        for b in range(0, len(at), TABLE_CHUNK_ROWS):
            block = at[b : b + TABLE_CHUNK_ROWS]
            want = [symbols[k].encode("utf-8")
                    for k in of[b : b + TABLE_CHUNK_ROWS].tolist()]
            same = np.fromiter(map(eq, self._strings(block), want), dtype=bool,
                               count=len(want))
            self._left[block[same]] = False

    def remaining(self) -> list[str]:
        """The distinct strings not removed, sorted."""
        self._remove_pending()
        return sorted({s.decode("utf-8") for s in self._strings(np.flatnonzero(self._left))})


@dataclass
class CandidateTable:
    """The candidates of the surfaces a run can reach, the entities of every
    row within the length limit, and the count of rows rejected for their
    length."""

    spans: dict[str, tuple[Candidate, ...]]
    entities: PackedSymbols
    rejected_long_keys: int = 0


def _candidate_rows(path) -> Iterator[tuple[int, str, str, float]]:
    """``(line number, surface, entity, prior)`` of each row, raising the
    DataError of a row with a bad entity or prior."""
    for lineno, (surface, entity, prior_text) in tsv_rows(path, 3):
        if not is_entity_symbol(entity):
            raise DataError(f"{path}: line {lineno}: entity must be an ENTITY/ symbol")
        try:
            prior = float(prior_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable prior") from None
        if not (0.0 < prior <= 1.0):
            raise DataError(
                f"{path}: line {lineno}: prior must lie in (0, 1], got {prior}"
            )
        yield lineno, surface, entity, prior


def read_table(path, max_span: int, surfaces: Iterable[str] | None = None) -> CandidateTable:
    """The table of the rows within ``max_span`` tokens.

    Given ``surfaces`` and a regular file, one streaming pass holds only the
    candidates of the rows whose surface hashes like one of them (a few
    more on a hash collision), so the memory held grows with the surfaces,
    not with the file, and finds a duplicate (surface, entity) pair among
    the other rows as a tie of the pair hashes. A bad row, an undecodable
    byte or a tie makes it read the file again holding every row, the exact
    pass, which raises the line-numbered error of the first bad row or
    finds none when the hashes merely collide; a file that changed since
    the streaming pass loads as the exact pass reads it after a bad row.
    Without ``surfaces``, or from a file that cannot be read twice, such as
    a pipe, the exact pass is the read. It raises the DataError of the first
    bad row, or of the first row that repeats a (surface, entity) pair.
    """
    keys = None
    if surfaces is not None and os.path.isfile(path):
        keys = np.sort(hashes(surfaces), kind="stable")
    spans: dict[str, dict[str, float]] = {}  # a surface's candidates, in row order
    entities = PackedSymbols()
    pairs = bytearray()  # native int64 hashes of the streamed (surface, entity) pairs
    rejected = 0
    chunk: list[tuple[int, str, str, float]] = []

    def take_chunk() -> None:
        """Add the entity of each row of ``chunk``, hold the candidates of
        its rows whose surface is kept, and empty it."""
        nonlocal chunk
        rows, chunk = chunk, []
        entities.update([row[2] for row in rows])
        if keys is not None:
            pairs.extend(hashes(row[1:3] for row in rows).tobytes())
            found = hashes(row[1] for row in rows)
            at = keys.searchsorted(found).clip(max=len(keys) - 1)
            rows = compress(rows, (keys[at] == found).tolist() if len(keys) else ())
        for lineno, surface, entity, prior in rows:
            cands = spans.setdefault(surface, {})
            if entity in cands:
                raise DataError(
                    f"{path}: line {lineno}: duplicate candidate {entity!r} "
                    f"for surface {surface!r}"
                )
            cands[entity] = prior

    try:
        for row in _candidate_rows(path):
            if len(row[1].split()) > max_span:
                rejected += 1
                continue
            chunk.append(row)
            if len(chunk) == TABLE_CHUNK_ROWS:
                take_chunk()
        take_chunk()
    except (DataError, UnicodeDecodeError):
        if keys is not None:
            return read_table(path, max_span)
        take_chunk()  # a duplicate held before the bad row is the error
        raise
    table = CandidateTable(
        {s: tuple(map(Candidate, c, c.values())) for s, c in spans.items()},
        entities, rejected,
    )
    if keys is not None and has_tie(np.frombuffer(pairs, dtype=np.int64)):
        read_table(path, max_span)  # raises the first bad row's error
    return table
