"""The file formats of every verb: one CSV reader, one row writer (CSV and
TSV) and one JSON writer. Numbers go out with six decimal places and text
fields unquoted. :class:`ColumnRows` reads columnar results back as records.
Only the standard library is used, so the verbs that load no numpy can use
it too.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Iterable, Sequence


def read_csv(path, header: Sequence[str], labelled: bool = False) -> list[list]:
    """Data rows of a comma-separated file headed ``header``, as float lists.

    A ``labelled`` file (a dataset) need only end with the ``header`` columns
    and keeps its last field as text. Blank lines are skipped. An empty file,
    another header, a wrong field count, a field that is not a finite number
    and no data rows raise ``ValueError("{path}: line N: ...")``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)

        def bad(problem):
            return ValueError(f"{path}: line {reader.line_num}: {problem}")

        first = next(reader, None)
        if first is None:
            raise ValueError(f"{path}: line 1: empty file")
        names = [name.strip() for name in first]
        if (names[-len(header):] if labelled else names) != list(header):
            want = f"a final {header[-1]!r} column" if labelled else f"header {','.join(header)!r}"
            raise bad(f"expected {want}, got {','.join(names)!r}")
        width = len(names)
        numeric = width - 1 if labelled else width
        rows = []
        for row in reader:
            if len(row) != width:
                if not "".join(row).strip():
                    continue
                raise bad(f"expected {width} fields, got {len(row)}")
            try:
                values = list(map(float, row[:numeric]))
            except ValueError:
                raise bad(f"non-numeric field in {','.join(row)!r}") from None
            if not all(map(math.isfinite, values)):
                raise bad(f"non-finite value in {','.join(row)!r}")
            if labelled:
                values.append(row[-1])
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: line 2: no data rows")
    return rows


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


def _rounded(obj, digits: int):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _rounded(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, digits) for v in obj]
    return obj


def json_text(doc, digits: int | None = 6) -> str:
    """``doc`` as JSON with sorted keys and one-space indents, every float
    rounded to ``digits`` places (``None`` keeps them whole)."""
    if digits is not None:
        doc = _rounded(doc, digits)
    return json.dumps(doc, indent=1, sort_keys=True)


def write_json(path, doc, digits: int | None = 6) -> None:
    """Write :func:`json_text` of ``doc`` and a newline to ``path``."""
    write_rows(path, None, "%s", [(json_text(doc, digits),)])
