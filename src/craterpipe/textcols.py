"""Text tables as whole columns, for the catalog and detection files.

Rows are read and written in chunks, so memory is bounded by a chunk. A
column converts by one map(float, ...) pass and formats by one repr of its
list: float() and repr themselves, so spellings and digits do not change.
Detection records parse through parse_records and raise_first: the first
line failing to parse or failing a check names itself as path:line.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import DetectionError

__all__ = ["chunks", "float_columns", "parse_records", "raise_first", "csv_text", "write_csv"]

_CHUNK = 1 << 12
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def chunks(rows: Iterable) -> Iterator[list]:
    """Successive lists of up to _CHUNK rows."""
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK)):
        yield chunk


def float_columns(columns, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Text columns of n values each as an (n, k) float64 array, and the mask
    of rows holding a value float() rejects (that value reads NaN)."""
    values, bad = np.empty((n, len(columns))), np.zeros(n, dtype=bool)
    for k, col in enumerate(columns):
        try:
            values[:, k] = np.fromiter(map(float, col), np.float64, n)
        except (TypeError, ValueError):
            for i, v in enumerate(col):
                try:
                    values[i, k] = float(v)
                except (TypeError, ValueError):
                    values[i, k], bad[i] = np.nan, True
    return values, bad


def parse_records(numbered, n_fields: int, text_col: int, path: Path):
    """Parse (line number, fields) pairs up to the first with another field
    count or a value float() rejects. Field text_col is text, the rest
    numbers. Returns the line numbers, texts and (N, n_fields - 1) numbers of
    the rows before that one, and the DetectionError it raises, or None."""
    linenos, texts, values = [], [], [np.empty((0, n_fields - 1))]
    for chunk in chunks(numbered):
        nums, rows = zip(*chunk)
        wrong = np.fromiter(map(len, rows), np.intp, len(rows)) != n_fields
        stop = int(np.argmax(wrong)) if wrong.any() else len(rows)
        flat = list(chain.from_iterable(rows[:stop]))
        cols = [flat[k::n_fields] for k in range(n_fields)]
        vals, bad = float_columns(cols[:text_col] + cols[text_col + 1:], stop)
        stop = int(np.argmax(bad)) if bad.any() else stop
        linenos += nums[:stop]
        texts += cols[text_col][:stop]
        values.append(vals[:stop])
        if stop < len(rows):
            row = rows[stop]
            error = f"expected {n_fields} fields, got {len(row)}"
            if len(row) == n_fields:
                try:
                    [float(v) for v in row[:text_col] + row[text_col + 1:]]
                except ValueError as exc:
                    error = f"non-numeric field ({exc})"
            return linenos, texts, np.concatenate(values), DetectionError(f"{path}:{nums[stop]}: {error}")
    return linenos, texts, np.concatenate(values), None


def raise_first(path: Path, linenos: list[int], checks, parse_error: DetectionError | None) -> None:
    """Raise for the first row any (mask, describe) check marks, with what the
    first marking describe(row) returns; else raise parse_error."""
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if bad.size:
        r = int(bad[0])
        message = next(describe(r) for mask, describe in checks if mask[r])
        raise DetectionError(f"{path}:{linenos[r]}: {message}")
    if parse_error is not None:
        raise parse_error


def csv_text(col) -> list[str]:
    """Each str as csv.writer writes it among other fields: None empty, and
    quoted, quotes doubled, when it holds a comma, a quote or a line break."""
    text = ["" if s is None else s for s in col]
    if _CSV_QUOTED.search("".join(text)) is None:
        return text
    return ['"' + s.replace('"', '""') + '"' if _CSV_QUOTED.search(s) else s for s in text]


def write_csv(path: Path, header: list[str], columns, eol: str = "\r\n") -> None:
    """An optional header, then the rows of columns, each line ended by eol
    (csv.writer's by default), a chunk of rows at a time. A float64 array
    column is written as the repr of each value, from one repr of the chunk's
    list; any other column holds text and is written as it is."""
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + eol)
        for lo in range(0, len(columns[0]), _CHUNK):
            part = [c[lo:lo + _CHUNK] for c in columns]
            part = [repr(c.tolist())[1:-1].split(", ") if getattr(c, "dtype", None) == np.float64 else c for c in part]
            fh.writelines(line + eol for line in map(",".join, zip(*part)))
