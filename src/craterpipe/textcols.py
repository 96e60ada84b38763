"""Text tables as whole columns, for the catalog and detection files.

Rows are read and written in chunks, so memory is bounded by a chunk.
read_columns is the one reader of the three text inputs: catalogs,
detection records and global detections. It parses each chunk by one
np.loadtxt call, whose C parser converts a number with the function float()
calls, so values match float() bit for bit. A chunk holding what loadtxt
refuses, or what it would read otherwise than the row-by-row tokenizers
(csv.reader, or str.split for records) and float(), goes through those
instead; they alone decide which rows do not parse. A column formats by one
repr of its list, so spellings and digits do not change. Detection loaders
name the first row failing to parse or failing a check as path:line, through
raise_first.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from .errors import DetectionError

__all__ = ["text_lines", "read_columns", "gather", "raise_first", "csv_text", "write_csv"]

_CHUNK = 1 << 12
_BLOCK = 1 << 16
_CSV_QUOTED = re.compile(r'[,"\r\n]')
# A quote, or a separator loadtxt strips around a number and float() does not.
_SLOW_CHARS = '"\x1c\x1d\x1e\x1f'


def text_lines(fh, block: int = _BLOCK) -> Iterator[str]:
    """The lines of fh.read().splitlines(), read block characters at a time,
    for a text file opened with universal newlines (open's default)."""
    rest = ""
    while data := fh.read(block):
        # after the sentinel "_", the last line is the one the block left open
        *lines, rest = (rest + data + "_").splitlines()
        rest = rest[:-1]
        yield from lines
    if rest:
        yield rest


def read_columns(
    lines: Iterable[str], numeric: Sequence[int], text: int | None = None,
    width: int | None = None, first: int = 1, records: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]]:
    """Fields of comma-separated rows as columns, _CHUNK lines at a time.

    Rows are csv.reader's over lines, numbered from first, and blank rows are
    skipped but numbered; a quoted field may span lines. With records, a row
    is a line stripped and split at commas, numbered by line, and blank
    lines and lines starting with # are skipped.

    Yields, for each chunk and at least once: the rows' numbers; field text
    of each row as an (n,) object array (None where a row is short, and all
    None when text is None); fields numeric as an (n, len(numeric)) float64
    array; and bad, the number of each row that does not parse mapped to
    what is wrong with it. A row does not parse when it lacks a numeric
    field or holds one float() rejects, or, with width, has another field
    count; its values read NaN.
    """
    if width is None:
        usecols, text_at = ([] if text is None else [text]) + list(numeric), 0
        num_at = range(len(usecols) - len(numeric), len(usecols))
    else:
        usecols, text_at, num_at = None, text, numeric
    kinds = ["f8"] * (width or len(usecols))
    if text is not None:
        kinds[text_at] = object
    dtype = np.dtype([(f"f{i}", k) for i, k in enumerate(kinds)])
    it = iter(lines)
    chunk = list(islice(it, _CHUNK))
    while True:
        fast = _loadtxt(chunk, dtype, usecols)
        if fast is not None:
            index, parsed = fast
            texts = parsed[f"f{text_at}"] if text is not None else np.full(len(parsed), None)
            yield first + index, texts, np.column_stack([parsed[f"f{i}"] for i in num_at]), {}
            first += len(chunk)
        else:
            numbered, n_rows = _split_records(chunk) if records else _csv_rows(chunk, it)
            yield _convert(numbered, first, numeric, text, width)
            first += n_rows
        chunk = list(islice(it, _CHUNK))
        if not chunk:
            return


def _loadtxt(chunk: list[str], dtype: np.dtype, usecols) -> tuple[np.ndarray, np.ndarray] | None:
    """The index of each non-blank line of the chunk and its row as loadtxt
    parses it, or None where the row-by-row path must read the chunk: no
    data, a quote or a separator in _SLOW_CHARS, a line starting with #, a
    line longer than the field csv.reader refuses, or anything loadtxt
    refuses."""
    joined = "\n".join(chunk)
    if not joined.strip() or any(c in joined for c in _SLOW_CHARS):
        return None
    if max(map(len, chunk)) > csv.field_size_limit():
        return None
    if "#" in joined and any(s.lstrip().startswith("#") for s in chunk):
        return None
    try:
        parsed = np.loadtxt(chunk, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)
    except ValueError:
        return None
    if len(parsed) == len(chunk):
        return np.arange(len(chunk)), parsed
    # loadtxt skips the lines that hold no field at all, as csv.reader does
    index = np.flatnonzero([bool(s.rstrip("\r\n")) for s in chunk])
    return (index, parsed) if len(index) == len(parsed) else None


def _split_records(chunk: list[str]) -> tuple[list, int]:
    """(index, fields) of each record line of the chunk, and its line count."""
    lines = map(str.strip, chunk)
    return [(i, s.split(",")) for i, s in enumerate(lines) if s and s[0] != "#"], len(chunk)


def _csv_rows(chunk: list[str], rest: Iterator[str]) -> tuple[list, int]:
    """(index, fields) of each non-blank csv row starting in the chunk, and
    the count of rows; a row whose quoted field runs past the chunk takes its
    further lines from rest."""
    reader, rows = csv.reader(chain(chunk, rest)), []
    for row in reader:
        rows.append(row)
        if reader.line_num >= len(chunk):
            break
    return [(i, row) for i, row in enumerate(rows) if row], len(rows)


def _convert(numbered: list, first: int, numeric: Sequence[int], text: int | None, width: int | None):
    """read_columns' chunk from (index, fields) pairs, field by field with float()."""
    index = [i for i, _ in numbered]
    rows = [row for _, row in numbered]
    # a leading row as wide as the widest field read makes every column that wide
    cols = list(zip_longest([None] * (max([*numeric, text or 0]) + 1), *rows))
    values, why = _float_columns([cols[k][1:] for k in numeric], len(rows))
    if width:
        for r in np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width).tolist():
            values[r], why[r] = np.nan, f"expected {width} fields, got {len(rows[r])}"
    texts = np.array(cols[text][1:] if text is not None else [None] * len(rows), dtype=object)
    return first + np.array(index, dtype=np.intp), texts, values, {first + index[r]: m for r, m in why.items()}


def _float_columns(columns, n: int) -> tuple[np.ndarray, dict[int, str]]:
    """Text columns of n values each as an (n, k) float64 array, and what
    float() says of the first value it rejects in each row holding one (such
    a value reads NaN)."""
    values, why = np.empty((n, len(columns))), {}
    for k, col in enumerate(columns):
        try:
            values[:, k] = np.fromiter(map(float, col), np.float64, n)
        except (TypeError, ValueError):
            for i, v in enumerate(col):
                try:
                    values[i, k] = float(v)
                except (TypeError, ValueError) as exc:
                    values[i, k] = np.nan
                    why.setdefault(i, f"non-numeric field ({exc})")
    return values, why


def gather(chunks: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """The chunks read_columns yields as one chunk."""
    numbers, texts, values, bads = zip(*chunks)
    bad = {}
    for b in bads:
        bad.update(b)
    return np.concatenate(numbers), np.concatenate(texts), np.concatenate(values), bad


def raise_first(path: Path, numbers: np.ndarray, bad: dict[int, str], checks) -> None:
    """Raise for the first row that does not parse (bad, as read_columns
    gives it) or that any (mask, describe) check marks, with what bad holds
    for it or else what the first marking describe(row) returns."""
    checks = [(np.isin(numbers, list(bad)), lambda r: bad[int(numbers[r])]), *checks]
    marked = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if marked.size:
        r = int(marked[0])
        message = next(describe(r) for mask, describe in checks if mask[r])
        raise DetectionError(f"{path}:{numbers[r]}: {message}")


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
