"""Exception types shared across the package, and the readers and writers of
its text files.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numeric-convergence errors -> 3.

Every text input is read by `read_csv`, `read_json` or `read_jsonl`: UTF-8
text, and a `ParseError` naming the file (and line) for any bad record.

Every text output is written by `write_csv`, `write_json` or `write_jsonl`,
so the output policy lives here: UTF-8 text; CSV rows from `csv.writer`,
ending in ``\r\n``; JSON as the text `json.dumps` gives, plus a newline; a
numpy column converted by `.tolist()`, so a float is written as its shortest
repr. Tables, and the numpy arrays and `Records` of a compact JSON dict, are
converted and written a chunk of rows at a time (`_CHUNK_ROWS`, or
`_RECORD_ROWS` for a `Records` object), and an iterator member of such a
dict an item at a time, so a writer never holds a whole table as Python
objects.
"""

import csv
import json
from collections.abc import Iterator
from itertools import islice

import numpy as np


class ContagionLabError(Exception):
    """Base class for all package errors."""


class DataError(ContagionLabError):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """Malformed record in an input file."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        loc = "".join(f"{x}:" for x in (path, line) if x is not None)
        super().__init__(f"{loc} {message}" if loc else message)


class ConvergenceError(ContagionLabError):
    """An iterative numeric procedure failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        self.iterations = iterations
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        super().__init__(message)


# what a `parse` callback raises on a bad record; a DataError is a range check
# failed by a constructor it called, and json raises RecursionError on deep nesting
_RECORD_ERRORS = (
    ValueError, KeyError, IndexError, TypeError, OverflowError, RecursionError, DataError
)


def _why(e: Exception) -> str:
    # a KeyError's text is only the key: a missing field or an unknown id
    return f"{e} not found" if isinstance(e, KeyError) else str(e)


def _not_utf8(path: str) -> ParseError:
    """The error for a file that does not decode, at the line of its first bad
    byte (a text file decodes in chunks, so a reader's own count runs early)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        return ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}", path, line)
    return ParseError("not UTF-8 text", path)


def read_csv(path, names, parse) -> list:
    """Parse a UTF-8 CSV file whose header's first fields, stripped, are `names`.

    `parse(header)` is called once with the stripped header and returns the
    record parser, which is called as `f(fields)` on every record; its
    results are returned in file order. A record with no fields, or with one
    blank field, is skipped, and a file with no records is an error.
    """
    path = str(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            if header[: len(names)] != list(names):
                raise ParseError(f"expected header '{','.join(names)}'", path, 1)
            record = parse(header)
            rows = [record(f) for f in reader if len(f) > 1 or f and f[0].strip()]
        except ParseError:
            raise
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except (csv.Error, *_RECORD_ERRORS) as e:
            raise ParseError(f"bad record: {_why(e)}", path, reader.line_num) from e
    if not rows:
        raise ParseError("no records", path)
    return rows


def read_json(path, parse):
    """`parse(value)` of the one JSON value in a UTF-8 file."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", path, e.lineno) from None
        except RecursionError as e:
            raise ParseError(f"invalid JSON: {e}", path) from None
    try:
        return parse(value)
    except _RECORD_ERRORS as e:
        raise ParseError(f"bad value: {_why(e)}", path) from e


def newline_count(path) -> int:
    """The number of newline bytes in a file, read 64 KiB at a time, by
    which a line reader sizes the table it fills."""
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 16), b""))


def read_jsonl(path, parse):
    """Yield `parse(value)` of every non-blank line of a UTF-8 JSON-lines
    file, in file order, one line at a time."""
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield parse(json.loads(line))
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except _RECORD_ERRORS as e:
            raise ParseError(f"bad record: {_why(e)}", path, lineno) from e


# table rows (and JSON array items) converted to Python objects at once
_CHUNK_ROWS = 1 << 14
# rows of a JSON `Records` member made into objects at once: an object
# holds its keys and values, so these chunks are smaller
_RECORD_ROWS = 1 << 10


def _plain(column):
    """A numpy column as Python scalars (one `.tolist()`); anything else as is."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _rows(columns, chunk):
    """The rows of the equal-length `columns` (each sliceable) as tuples of
    Python scalars, converted `chunk` rows at a time."""
    columns = list(columns)
    n = min(map(len, columns), default=0)
    for a in range(0, n, chunk):
        yield from zip(*(_plain(c[a : a + chunk]) for c in columns))


def write_csv(path, header, columns) -> None:
    """Write a UTF-8 CSV file: the `header` row, then one row per position of
    the equal-length `columns`."""
    rows = _rows(columns, _CHUNK_ROWS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class Records:
    """A JSON array of objects given as a dict of equal-length columns: one
    object per row, keyed by the column names in order."""

    def __init__(self, columns: dict):
        self.columns = columns


def _chunks(value):
    """A `Records`, an iterator or a numpy array (one axis or more) as lists
    of Python objects: a `Records` object's rows `_RECORD_ROWS` at a time,
    an array's items `_CHUNK_ROWS` at a time and an iterator's one by one."""
    if isinstance(value, Records):
        names = list(value.columns)
        rows = _rows(value.columns.values(), _RECORD_ROWS)
        while chunk := [dict(zip(names, row)) for row in islice(rows, _RECORD_ROWS)]:
            yield chunk
    elif isinstance(value, Iterator):
        for item in value:
            yield [item]
    else:
        for a in range(0, len(value), _CHUNK_ROWS):
            yield value[a : a + _CHUNK_ROWS].tolist()


def write_json(path, value, indent=None, sort_keys=False) -> None:
    """Write `value` as JSON and a newline to a UTF-8 file, as `json.dumps`
    gives it.

    A compact dict is written a member at a time. A numpy array member (one
    axis or more) is written as its `.tolist()`, a `Records` member as its
    list of objects, and an iterator member as the list of its items, a few
    items at a time, so their Python objects are never all held at once.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if indent is not None or not isinstance(value, dict):
            fh.write(json.dumps(value, indent=indent, sort_keys=sort_keys) + "\n")
            return
        fh.write("{")
        for i, (key, member) in enumerate(sorted(value.items()) if sort_keys else value.items()):
            # the `"key": ` text as json.dumps writes it, for a key of any type
            fh.write(", " * (i > 0) + json.dumps({key: 0})[1:-2])
            if not (isinstance(member, (Records, Iterator))
                    or isinstance(member, np.ndarray) and member.ndim):
                fh.write(json.dumps(member, sort_keys=sort_keys))
                continue
            fh.write("[")
            for j, chunk in enumerate(_chunks(member)):
                fh.write(", " * (j > 0) + json.dumps(chunk, sort_keys=sort_keys)[1:-1])
            fh.write("]")
        fh.write("}\n")


def write_jsonl(path, columns) -> None:
    """Write a UTF-8 JSON-lines file: one object per row of `columns`, a dict
    of equal-length columns whose keys, in order, are each object's keys."""
    names = list(columns)
    rows = _rows(columns.values(), _CHUNK_ROWS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
