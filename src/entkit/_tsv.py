"""The one reader of the tab-separated input files (candidate tables,
redirects, resolution caches)."""

from __future__ import annotations

from typing import Iterator

from .errors import DataError


def tsv_rows(path, width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-empty line of a UTF-8
    file, which must hold exactly ``width`` tab-separated fields."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} tab-separated fields"
                )
            yield lineno, fields
