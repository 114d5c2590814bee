"""The files of every verb: where the bundled tables are, one CSV reader,
one JSON reader, one row writer (CSV and TSV) and one JSON writer.

The bundled tables (the model bank, the joint-angle ranges, the CA and push
rules and the synthetic dataset) are the single source of truth for both
the runtime and the test suite. :func:`fixture_path` finds them in the data
directory ``fixtures`` next to this module, so the package must be installed
as files, not imported from a zip. ``GAITFORGE_FIXTURES`` names a directory
with replacement files instead: it is the only way to give the program other
tables without editing the installed package, and so the way tests and CI
check that a malformed table exits 2 with one line naming the file.

The two readers are the only code that reads an input file, user's or
bundled, and report its faults alike, as ``ValueError("{path}: line N:
...")``. The CSV reader reads unquoted comma-separated text in one pass, a
block of whole lines at a time split with ``str.split``. One line grammar,
:func:`_convert_block`'s, serves the conversion and the fault report: a
block it refuses is walked line by line, and the first line it refuses on
its own is named. :func:`read_table`
is the one loader of a JSON table, bundled or given: it converts the
document once into the typed form its readers use, and names the file behind
any shape fault the conversion meets; :func:`number` is the conversion of
one JSON number. Numbers go out with six decimal places and text fields
unquoted. :class:`ColumnRows` reads columnar results back as records. Only
the standard library is used, so the verbs that load no numpy can use it
too.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Sequence

# The longest field a CSV input may hold, in characters
_FIELD_LIMIT = 131_072
# Characters the CSV reader converts at a time. A block is whole lines, so
# one no longer than _FIELD_LIMIT cannot hold an oversized field.
_BLOCK_CHARS = 1 << 16


def fixture_dir() -> str:
    return (os.environ.get("GAITFORGE_FIXTURES")
            or os.path.join(os.path.dirname(__file__), "fixtures"))


def fixture_path(name: str) -> str:
    path = os.path.join(fixture_dir(), name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"fixture {name!r} not found in {os.path.dirname(path)}")
    return path


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


def read_table(path, what: str, convert: Callable):
    """``convert(read_json(path))``: the table in the JSON file ``path``, in
    the form ``convert`` builds, which is also the check of its shape. A
    ``KeyError`` the conversion raises becomes ``ValueError("{path}:
    malformed {what}: no 'key'")``; an ``AttributeError``, ``LookupError``,
    ``TypeError`` or ``ValueError`` becomes ``ValueError("{path}: malformed
    {what}: {exc}")``."""
    doc = read_json(path)
    try:
        return convert(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: malformed {what}: no {exc}") from None
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {what}: {exc}") from None


def number(value) -> float:
    """A JSON number :func:`read_json` gave, as a float. A string, a bool,
    a NaN, an infinity or an integer beyond the float range raises
    ``ValueError``."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


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
    """The fault of the first line of ``lines`` that :func:`_convert_block`
    refuses; the lines are numbered from ``lineno`` and should have
    ``width`` fields."""
    for n, line in enumerate(lines, lineno):
        if _convert_block(line, width, labelled) is not None:
            continue
        fields = line.split(",")
        if '"' in line:
            problem = "quoted fields are not supported"
        elif max(map(len, fields)) > _FIELD_LIMIT:
            problem = f"field larger than field limit ({_FIELD_LIMIT})"
        elif len(fields) != width:
            problem = f"expected {width} fields, got {len(fields)}"
        else:
            try:
                list(map(float, fields[:width - 1] if labelled else fields))
                problem = f"non-finite value in {line!r}"
            except ValueError:
                problem = f"non-numeric field in {line!r}"
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
    rounded to six places. A NaN or an infinity, which JSON cannot hold,
    raises ``ValueError``."""
    return json.dumps(_rounded(doc), indent=1, sort_keys=True, allow_nan=False)


def write_json(path, doc) -> None:
    """Write :func:`json_text` of ``doc`` and a newline to ``path``; a doc
    that it refuses leaves no file."""
    write_rows(path, None, "%s", [(json_text(doc),)])
