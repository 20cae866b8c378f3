"""The readers of the tab-separated input files (candidate tables,
redirects, resolution caches) and of the JSON-lines ones (documents,
relation files)."""

from __future__ import annotations

import json
from typing import Iterator

from .errors import DataError


def breaks_tsv(value: str) -> bool:
    """True when ``value`` holds a tab or a line break, so written as a
    field it would split its TSV row."""
    return "\t" in value or "\n" in value or "\r" in value


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


def json_lines(path) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, value)`` for each line of a UTF-8 JSON-lines
    file that is not blank."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}: line {lineno}: invalid JSON") from None
            yield lineno, value
