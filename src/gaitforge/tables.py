"""The file formats of every verb: one CSV reader, one JSON reader, one row
writer (CSV and TSV) and one JSON writer. The two readers are the only code
that reads an input file, user's or fixture, and report its faults alike,
as ``ValueError("{path}: line N: ...")``. Numbers go out with six decimal
places and text fields unquoted. :class:`ColumnRows` reads columnar results
back as records. Only the standard library is used, so the verbs that load
no numpy can use it too.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterable, Sequence


# Characters the one-pass reader parses at a time. A block is whole lines,
# so one no longer than csv.field_size_limit() cannot hold an oversized field.
_BLOCK_CHARS = 1 << 16


def read_csv(path, header: Sequence[str],
             labelled: bool = False) -> tuple[list[float], list[str]]:
    """Data rows of a comma-separated file headed ``header``: their numbers
    in one flat row-major list, and the label column ([] unless labelled).

    A ``labelled`` file (a dataset) need only end with the ``header`` columns
    and keeps its last field as text. Blank lines are skipped. Text that is
    not UTF-8, an empty file, another header, a wrong field count, an
    oversized field, a field that is not a finite number and no data rows
    raise ``ValueError("{path}: line N: ...")``.
    """
    text = _read_text(path)
    return _read_plain(text, header, labelled) or _read_rows(path, text, header, labelled)


def read_json(path):
    """The document in the JSON file ``path``. Text that is not UTF-8 or not
    JSON raises ``ValueError("{path}: line N: ...")``; a document nested too
    deep to parse, or an integer too long to convert, raises ``ValueError``
    naming ``path``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg} (column {exc.colno})") from None
    except (RecursionError, ValueError):
        raise ValueError(f"{path}: nesting too deep or an integer too long to read") from None


def _read_text(path) -> str:
    """The bytes of ``path`` decoded as UTF-8; other bytes raise
    ``ValueError("{path}: line N: not UTF-8 text")``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def _header_matches(names: list[str], header: Sequence[str], labelled: bool) -> bool:
    """Whether a file's column ``names`` are ``header``, or end with it if ``labelled``."""
    return (names[-len(header):] if labelled else names) == list(header)


def _read_plain(text: str, header: Sequence[str],
                labelled: bool) -> tuple[list[float], list[str]] | None:
    """One pass over text with no quotes, no carriage returns but those of
    CRLF line ends, no blank lines and the same field count on every line;
    None for any other text, or for any field that is not a finite number,
    which :func:`_read_rows` then reads or rejects with its line number."""
    if '"' in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    head_end = text.find("\n")
    if head_end < 0:
        return None
    names = [name.strip() for name in text[:head_end].split(",")]
    if not _header_matches(names, header, labelled):
        return None
    width = len(names)
    commas = width - 1
    stop = len(text) - 1 if text.endswith("\n") else len(text)
    pos = head_end + 1
    if pos >= stop:
        return None
    limit = csv.field_size_limit()
    values, labels = [], []
    while pos < stop:
        end = text.find("\n", pos + _BLOCK_CHARS, stop)
        if end < 0:
            end = stop
        block = text[pos:end]
        lines = block.split("\n")
        # an empty line is one field to split() and none to the csv module
        if len(block) > limit or "" in lines or any(line.count(",") != commas for line in lines):
            return None
        fields = ",".join(lines).split(",")
        if labelled:
            labels += fields[commas::width]
            del fields[commas::width]
        try:
            numbers = list(map(float, fields))
        except ValueError:
            return None
        if not all(map(math.isfinite, numbers)):
            return None
        values += numbers
        pos = end + 1
    return values, labels


def _read_rows(path, text: str, header: Sequence[str],
               labelled: bool) -> tuple[list[float], list[str]]:
    """:func:`read_csv` row by row through the csv module, which names the
    line of the first fault."""
    reader = csv.reader(io.StringIO(text, newline=""))

    def bad(problem):
        return ValueError(f"{path}: line {reader.line_num}: {problem}")

    try:
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{path}: line 1: empty file")
        names = [name.strip() for name in first]
        if not _header_matches(names, header, labelled):
            want = f"a final {header[-1]!r} column" if labelled else f"header {','.join(header)!r}"
            raise bad(f"expected {want}, got {','.join(names)!r}")
        width = len(names)
        numeric = width - 1 if labelled else width
        values, labels = [], []
        for row in reader:
            if len(row) != width:
                if not "".join(row).strip():
                    continue
                raise bad(f"expected {width} fields, got {len(row)}")
            try:
                numbers = list(map(float, row[:numeric]))
            except ValueError:
                raise bad(f"non-numeric field in {','.join(row)!r}") from None
            if not all(map(math.isfinite, numbers)):
                raise bad(f"non-finite value in {','.join(row)!r}")
            values += numbers
            if labelled:
                labels.append(row[-1])
    except csv.Error as exc:
        raise bad(str(exc)) from None
    if not values and not labels:
        raise ValueError(f"{path}: line 2: no data rows")
    return values, labels


def write_rows(path, header: str | None, row_format: str, rows: Iterable[Sequence]) -> None:
    """Write the ``header`` line, if any, then one ``row_format % row`` line
    per row, streamed; ``row_format`` is a template such as ``"%.6f,%.6f"``."""
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(line % tuple(row) for row in rows)


class ColumnRows(Sequence):
    """Read-only sequence of the records ``make(*row)`` over parallel
    columns. Each record is built when it is read, so len() and indexing
    cost O(1); equal to any sequence holding the same records in the same
    order."""

    def __init__(self, make: Callable, *columns: Sequence):
        self._make, self._columns = make, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return self._make(*(c[i] for c in self._columns))

    def __iter__(self):
        return map(self._make, *self._columns)

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


def _rounded(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def json_text(doc) -> str:
    """``doc`` as JSON with sorted keys and one-space indents, every float
    rounded to six places."""
    return json.dumps(_rounded(doc), indent=1, sort_keys=True)


def write_json(path, doc) -> None:
    """Write :func:`json_text` of ``doc`` and a newline to ``path``."""
    write_rows(path, None, "%s", [(json_text(doc),)])
