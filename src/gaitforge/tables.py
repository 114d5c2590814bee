"""The file formats of every verb: one CSV reader, one JSON reader, one row
writer (CSV and TSV) and one JSON writer. The two readers are the only code
that reads an input file, user's or fixture, and report its faults alike,
as ``ValueError("{path}: line N: ...")``. The CSV reader reads unquoted
comma-separated text in one pass, a block of whole lines at a time split
with ``str.split``, and walks a block line by line only to name its first
fault. Numbers go out with six decimal places and text fields unquoted.
:class:`ColumnRows` reads columnar results back as records. Only the
standard library is used, so the verbs that load no numpy can use it too.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Sequence

# The longest field a CSV input may hold, in characters
_FIELD_LIMIT = 131_072
# Characters the CSV reader converts at a time. A block is whole lines, so
# one no longer than _FIELD_LIMIT cannot hold an oversized field.
_BLOCK_CHARS = 1 << 16


def read_csv(path, header: Sequence[str],
             labelled: bool = False) -> tuple[list[float], list[str]]:
    """Data rows of a comma-separated file headed ``header``: their numbers
    in one flat row-major list, and the label column ([] unless labelled).

    A ``labelled`` file (a dataset) need only end with the ``header`` columns
    and keeps its last field as text. Lines end with LF, CRLF or CR. A line
    whose field count is not the header's and that holds only whitespace and
    commas is blank and skipped; an empty line has no fields. Text that is
    not UTF-8, an empty file, another header, a double quote, a wrong field
    count, a field longer than 131,072 characters, a field that is not a finite
    number and no data rows raise ``ValueError("{path}: line N: ...")`` for
    the first fault in the file.
    """
    text = _read_text(path, cr_ends_lines=True)
    if not text:
        raise ValueError(f"{path}: line 1: empty file")
    if "\r" in text:
        # a CRLF or a lone CR ends one line, as an LF does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    stop = len(text) - text.endswith("\n")
    head_end = text.find("\n", 0, stop)
    if head_end < 0:
        head_end = stop
    first = text[:head_end]
    names = first.split(",")
    if '"' in first or max(map(len, names)) > _FIELD_LIMIT:
        # given its own width, the header line can only hold these two faults
        raise _first_fault(path, [first], 1, len(names), labelled)
    names = [name.strip() for name in names]
    if (names[-len(header):] if labelled else names) != list(header):
        want = f"a final {header[-1]!r} column" if labelled else f"header {','.join(header)!r}"
        raise ValueError(f"{path}: line 1: expected {want}, got {','.join(names)!r}")
    width = len(names)
    values, labels = [], []
    pos, lineno = head_end + 1, 2
    while pos < stop:
        end = text.find("\n", pos + _BLOCK_CHARS, stop)
        if end < 0:
            end = stop
        block = text[pos:end]
        rows = _convert_block(block, width, labelled)
        if rows is None:
            raise _first_fault(path, block.split("\n"), lineno, width, labelled)
        values += rows[0]
        labels += rows[1]
        lineno += block.count("\n") + 1
        pos = end + 1
    if not values and not labels:
        raise ValueError(f"{path}: line 2: no data rows")
    return values, labels


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


def is_number(value) -> bool:
    """Whether a value :func:`read_json` gave is a JSON number: a string or
    a bool is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_text(path, cr_ends_lines: bool = False) -> str:
    """The bytes of ``path`` decoded as UTF-8; other bytes raise
    ``ValueError("{path}: line N: not UTF-8 text")``. N counts LF line ends,
    as ``json`` does, and with ``cr_ends_lines`` also a lone CR, as the CSV
    reader does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        if cr_ends_lines:
            head = head.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def _convert_block(block: str, width: int,
                   labelled: bool) -> tuple[list[float], list[str]] | None:
    """The numbers and labels of the data lines ``block`` in bulk, blank
    lines dropped; None if any line holds a fault."""
    if '"' in block or (len(block) > _FIELD_LIMIT
                        and max(map(len, block.replace("\n", ",").split(","))) > _FIELD_LIMIT):
        return None
    commas = width - 1
    lines = block.split("\n")
    if "" in lines or any(line.count(",") != commas for line in lines):
        # blank lines go; a line left with another field count is a fault
        lines = [line for line in lines
                 if line and line.count(",") == commas or line.replace(",", "").strip()]
        if any(line.count(",") != commas for line in lines):
            return None
    fields = ",".join(lines).split(",") if lines else []
    labels = fields[commas::width] if labelled else []
    if labelled:
        del fields[commas::width]
    try:
        numbers = list(map(float, fields))
    except ValueError:
        return None
    return (numbers, labels) if all(map(math.isfinite, numbers)) else None


def _first_fault(path, lines: list[str], lineno: int, width: int,
                 labelled: bool) -> ValueError:
    """The fault of the first faulty line of ``lines``, which are numbered
    from ``lineno`` and should have ``width`` fields."""
    numeric = width - 1 if labelled else width
    for n, line in enumerate(lines, lineno):
        fields = line.split(",") if line else []
        if '"' in line:
            problem = "quoted fields are not supported"
        elif max(map(len, fields), default=0) > _FIELD_LIMIT:
            problem = f"field larger than field limit ({_FIELD_LIMIT})"
        elif len(fields) != width:
            if not line.replace(",", "").strip():
                continue
            problem = f"expected {width} fields, got {len(fields)}"
        else:
            try:
                numbers = list(map(float, fields[:numeric]))
            except ValueError:
                problem = f"non-numeric field in {line!r}"
            else:
                if all(map(math.isfinite, numbers)):
                    continue
                problem = f"non-finite value in {line!r}"
        return ValueError(f"{path}: line {n}: {problem}")


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
