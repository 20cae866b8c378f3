"""The rows of a candidate table, read in one of two ways.

``whole_table`` holds every row and checks each exactly. ``stream_table``
holds candidates only for the surfaces it is given, checks every row from
hashes and packs the table's entities into one buffer, so its memory grows
with those surfaces, not with the file. ``entity_linking.load_candidate_table``
chooses between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._tsv import tsv_rows
from .embeddings import has_tie
from .errors import DataError
from .symbols import is_entity_symbol


class Candidate(NamedTuple):
    entity: str
    prior: float


# The hash the streamed table's checks compare by: table surfaces against
# the surfaces a run can reach, (surface, entity) pairs against each other,
# and table entities against a space's symbols. Equal hashes only ever lead to
# an exact comparison, so a collision costs time, not results.
_table_hash = hash

# Rows of the candidate table handled at a time: matched against the
# surfaces as they stream, or compared with a space's symbols.
TABLE_CHUNK_ROWS = 1024


def _hashes(items: Iterable) -> np.ndarray:
    """The ``_table_hash`` of each item, as int64."""
    return np.fromiter(map(_table_hash, items), dtype=np.int64)


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
        self._hashes += _hashes(symbols).tobytes()

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
        hashes = _hashes(symbols)
        # Looking the hashes up in ascending order keeps the searches local.
        by_hash = np.argsort(hashes, kind="stable")
        hashes = hashes[by_hash]
        lo = self._sorted.searchsorted(hashes, side="left")
        count = self._sorted.searchsorted(hashes, side="right") - lo
        # Each sorted position a symbol's hash finds, and the symbol. A table
        # row's position fits in int32, which halves these arrays when a
        # batch finds many rows.
        at = np.repeat((lo - (count.cumsum() - count)).astype(np.int32), count)
        at += np.arange(len(at), dtype=np.int32)
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


def whole_table(path, max_span: int) -> CandidateTable:
    """One exact pass holding every row: the whole table, or the DataError
    of its first bad row or duplicate (surface, entity) pair."""
    spans: dict[str, list[Candidate]] = {}
    rejected = 0
    for lineno, surface, entity, prior in _candidate_rows(path):
        if len(surface.split()) > max_span:
            rejected += 1
            continue
        cands = spans.setdefault(surface, [])
        if entity in {c.entity for c in cands}:
            raise DataError(
                f"{path}: line {lineno}: duplicate candidate {entity!r} "
                f"for surface {surface!r}"
            )
        cands.append(Candidate(entity, prior))
    entities = PackedSymbols()
    entities.update([c.entity for cands in spans.values() for c in cands])
    return CandidateTable({s: tuple(c) for s, c in spans.items()}, entities, rejected)


def stream_table(
    path, max_span: int, surfaces: Iterable[str]
) -> tuple[CandidateTable, bool]:
    """The table holding the candidates of the rows whose surface hashes
    like one of ``surfaces``, and whether two (surface, entity) pairs hash
    alike."""
    keys = _hashes(surfaces)
    keys.sort(kind="stable")
    spans: dict[str, list[Candidate]] = {}
    entities = PackedSymbols()
    pairs = bytearray()  # native int64 hashes of the (surface, entity) pairs
    rejected = 0
    chunk: list[tuple[str, str, float]] = []
    for _, surface, entity, prior in _candidate_rows(path):
        if len(surface.split()) > max_span:
            rejected += 1
            continue
        chunk.append((surface, entity, prior))
        if len(chunk) == TABLE_CHUNK_ROWS:
            _take_chunk(chunk, keys, spans, entities, pairs)
            chunk = []
    _take_chunk(chunk, keys, spans, entities, pairs)
    table = CandidateTable({s: tuple(c) for s, c in spans.items()}, entities, rejected)
    return table, has_tie(np.frombuffer(pairs, dtype=np.int64))


def _take_chunk(
    chunk: list[tuple[str, str, float]],
    keys: np.ndarray,
    spans: dict[str, list[Candidate]],
    entities: PackedSymbols,
    pairs: bytearray,
) -> None:
    """Add a chunk of rows within the length limit: the entity of each, the
    hash of each (surface, entity) pair to ``pairs``, and candidates for the
    rows whose surface hash is among ``keys``."""
    entities.update([row[1] for row in chunk])
    pairs.extend(_hashes(row[:2] for row in chunk).tobytes())
    if not (len(keys) and chunk):
        return
    hashes = _hashes(row[0] for row in chunk)
    at = np.searchsorted(keys, hashes).clip(max=len(keys) - 1)
    for (surface, entity, prior), hit in zip(chunk, (keys[at] == hashes).tolist()):
        if hit:
            spans.setdefault(surface, []).append(Candidate(entity, prior))
