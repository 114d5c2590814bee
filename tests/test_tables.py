"""The shared file-format layer: every reader's line-numbered rejections,
reached through the verbs that read, the CSV reader's agreement with a
plain csv-module loop on unquoted text, and byte equality of every writer with the per-value
f-string writers it replaced (the loop and the writers are kept inline here
as references).
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gaitforge import capture, features, tables
from gaitforge import gait_model as gm
from gaitforge.cli import main
from gaitforge.rocking_block import BlockParams, BlockState, Mode, simulate
from gaitforge.tables import json_text, read_csv, write_json

from conftest import fk_point

# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def test_read_json_returns_the_document(tmp_path):
    doc = {"a": [1, 2.5, None, True], "b": {"c": "d\u00e9"}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    assert tables.read_json(path) == doc


def test_read_json_names_the_faulty_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n "a": 1,\n "b": 2 "c": 3\n}\n')
    with pytest.raises(ValueError) as fault:
        tables.read_json(path)
    assert str(fault.value) == f"{path}: line 3: Expecting ',' delimiter (column 9)"


def test_read_json_rejects_bytes_as_read_csv_does(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"t": 1,\n "x": 2,\n "y": "\xff"}\n')
    faults = []
    for read in (tables.read_json, lambda p: read_csv(p, ("t", "x"))):
        with pytest.raises(ValueError) as fault:
            read(path)
        faults.append(str(fault.value))
    assert faults == [f"{path}: line 3: not UTF-8 text"] * 2


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_not_utf8_line_counts_every_csv_line_end(end, tmp_path):
    # read_csv ends a line at an LF, a CRLF or a lone CR; read_json counts
    # LF only, as json's own line numbers do
    path = tmp_path / "bytes.csv"
    path.write_bytes(end.join(["t,x", "1,2", "\xff,3", ""]).encode("latin-1"))
    with pytest.raises(ValueError) as fault:
        read_csv(path, ("t", "x"))
    assert str(fault.value) == f"{path}: line 3: not UTF-8 text"
    json_line = 3 if "\n" in end else 1
    with pytest.raises(ValueError) as fault:
        tables.read_json(path)
    assert str(fault.value) == f"{path}: line {json_line}: not UTF-8 text"


# verb -> (header, one valid data row)
READERS = {
    "ingest": ("t,x,y,z", "0.0,6.0,2.0,0.0"),
    "features": ("t,theta1_deg,theta2_deg", "0.0,1.0,2.0"),
    "classify": ("f0,f1,label", "0.0,1.0,a"),
}


def first_field(row: str, value: str) -> str:
    return value + row[row.index(","):]


# case -> (data lines after the header, built from the valid row; faulty line; message)
CASES = {
    "header-only": (lambda ok: [], 2, "no data rows"),
    "nan": (lambda ok: [ok, first_field(ok, "nan")], 3, "non-finite value"),
    "inf": (lambda ok: [first_field(ok, "-inf")], 2, "non-finite value"),
    "field count": (lambda ok: [ok, ok + ",0.0"], 3, "expected {n} fields, got {more}"),
    "blank lines": (lambda ok: [ok, "", ok, "  ", first_field(ok, "oops")], 6,
                    "non-numeric field"),
    # a finite number, so only the field's length is at fault
    "oversized field": (lambda ok: [ok, first_field(ok, "0" * 200_000)], 3,
                        "field larger than field limit (131072)"),
    # surrogate escapes stand for the raw bytes 0xff 0xfe
    "not UTF-8": (lambda ok: [ok, ok, first_field(ok, "\udcff\udcfe")], 4, "not UTF-8 text"),
    "quoted field": (lambda ok: [ok, first_field(ok, '"1.0"')], 3,
                     "quoted fields are not supported"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("verb", sorted(READERS))
def test_reader_rejects_with_line_number(verb, case, tmp_path, capsys):
    header, ok = READERS[verb]
    lines, lineno, problem = CASES[case]
    bad = tmp_path / "in.csv"
    bad.write_bytes(("\n".join([header] + lines(ok)) + "\n").encode("utf-8", "surrogateescape"))
    out = tmp_path / "out"
    if verb == "classify":
        argv = ["classify", "--train", str(bad), "--test", str(bad), "--out", str(out)]
    else:
        argv = [verb, "--in", str(bad), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    n = header.count(",") + 1
    problem = problem.format(n=n, more=n + 1)
    assert err.startswith(f"error: {bad}: line {lineno}: {problem}"), err
    assert err.count("\n") == 1
    assert not out.exists()


def csv_module_rows(path, header, labelled=False):
    """The reader as a plain csv-module loop, one row at a time: the
    reference the CSV reader must agree with on text with no quote."""
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


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.floats(-1e3, 1e3).map("{:.6f}".format))
NUMBERS = st.one_of(FINITE, st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "1_0",
                                             " 2.5 ", "x", "", '"3.5"', '"4,5"']))
WORDS = st.text("abcxyz", min_size=1, max_size=4)
TEXT = st.one_of(WORDS, st.sampled_from([" b", "", '"c"', '"d,e"', '"f""g"']),
                 st.text(st.characters(codec="utf-8"), max_size=3))


@st.composite
def csv_files(draw):
    """(text, header, labelled): numeric or labelled tables, half of them
    well-formed and the rest with quotes, CRLF or CR line ends, blank lines,
    miscounted lines and non-finite values mixed in."""
    labelled = draw(st.booleans())
    numeric = draw(st.integers(0 if labelled else 1, 3))
    names = [f"f{i}" for i in range(numeric)] + ["label"] * labelled
    clean = draw(st.booleans())
    kinds = ["row"] if clean else ["row", "row", "row", "blank", "miscounted pair"]
    numbers, labels = (FINITE, WORDS) if clean else (NUMBERS, TEXT)
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", ",", " , "])))
            continue
        widths = [numeric] if kind == "row" else [numeric + 1, max(numeric - 1, 0)]
        for n in widths:
            lines.append(",".join(draw(st.lists(numbers, min_size=n, max_size=n))
                                  + [draw(labels)] * labelled))
    ends = "\n" if clean else draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
    if draw(st.booleans()):
        text = text[:-1]
    return text, ("label",) if labelled else tuple(names), labelled


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
@example(case=('t,x\n1.5,"2"\n', ("t", "x"), False))
@example(case=('f0,label\n1.5,"a"\n', ("label",), True))
@example(case=("t,x\r\n1.5,2\r\n3,4\r\n", ("t", "x"), False))
@example(case=("t,x\r1.5,2\r3,4", ("t", "x"), False))
@example(case=("t,x\n1,2\n\n  \n3,4\n\n", ("t", "x"), False))
@example(case=("t,x\n1,2,3\n4\n", ("t", "x"), False))
@example(case=("t,x\n1,2\nnan,1\n", ("t", "x"), False))
@example(case=("t,x\n1,inf\n", ("t", "x"), False))
@example(case=("t,x\n1e400,1\n", ("t", "x"), False))
@example(case=("f0,label\n1,a\n2, b\n3,\n", ("label",), True))
@example(case=("label\na\n\nb\n", ("label",), True))
# long enough for several blocks of the reader, then a fault at the end
@example(case=("t,x\n" + "".join(f"{i}.5,-{i % 7}e-3\n" for i in range(12000)), ("t", "x"), False))
@example(case=("t,x\r\n" + "".join(f"{i}.5,-{i % 7}e-3\r\n" for i in range(12000)),
               ("t", "x"), False))
@example(case=("t,x\n" + "".join(f"{i}.5,{i % 7}\n" for i in range(12000)) + "1,nan\n",
               ("t", "x"), False))
# a blank line in the second block, then a fault
@example(case=("t,x\n" + "".join("\n" if i == 8000 else "1,x\n" if i == 9000
                                 else f"{i}.5,{i % 7}\n" for i in range(12000)),
               ("t", "x"), False))
def test_one_pass_reader_agrees_with_the_csv_module(case, tmp_path):
    text, header, labelled = case
    path = tmp_path / "in.csv"
    # the csv module's lines: LF, CRLF and a lone CR each end one
    lines = io.StringIO(text, newline="").readlines()
    quoted = next((n for n, line in enumerate(lines, 1) if '"' in line), None)
    # the reference reads only the lines before the first quoted one
    path.write_bytes("".join(lines if quoted is None else lines[:quoted - 1]).encode("utf-8"))
    want = None
    try:
        rows = csv_module_rows(path, header, labelled)
    except ValueError as exc:
        want = str(exc)
    # the quote is the first fault unless a line before it holds one
    if quoted and (want is None or want.endswith(("empty file", "no data rows"))):
        want = f"{path}: line {quoted}: quoted fields are not supported"
    path.write_bytes(text.encode("utf-8"))
    if want is not None:
        with pytest.raises(ValueError) as got:
            read_csv(path, header, labelled)
        assert str(got.value) == want
        return
    values, labels = read_csv(path, header, labelled)
    numbers = [v for row in rows for v in (row[:-1] if labelled else row)]
    # repr tells 0.0 from -0.0
    assert list(map(repr, values)) == list(map(repr, numbers))
    assert labels == [row[-1] for row in rows if labelled]


# ---------------------------------------------------------------------------
# writers: the same bytes as the per-value f-string writers
# ---------------------------------------------------------------------------

def test_block_trace_bytes_match_per_value_formatting(tmp_path):
    params = BlockParams(alpha=0.3, r=0.9, restoring_sign=True)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 5.0)
    assert trace.impacts and len(trace.states) > 5000
    expected = tmp_path / "expected.csv"
    impact_times = {e.t for e in trace.impacts}
    with open(expected, "w", encoding="utf-8") as fh:
        fh.write("t,mode,x1,x2,event\n")
        for s in trace.states:
            flag = 1 if s.t in impact_times else 0
            fh.write(f"{s.t:.6f},{s.mode.value},{s.x1:.6f},{s.x2:.6f},{flag}\n")
    got = tmp_path / "got.csv"
    trace.write_csv(got)
    assert got.read_bytes() == expected.read_bytes()


def test_joint_angle_csv_bytes_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(3)
    t = np.arange(2000) * 0.01
    a = rng.normal(0.0, 90.0, 2000)
    b = rng.normal(0.0, 1e-6, 2000)   # many values round to +-0.000000 or a last digit
    a[:4] = [-0.0, 5e-7, -2.5e-7, 1e12]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8") as fh:
        fh.write("t,theta1_deg,theta2_deg\n")
        for ti, x, y in zip(t, a, b):
            fh.write(f"{ti:.6f},{x:.6f},{y:.6f}\n")
    got = tmp_path / "got.csv"
    capture.write_joint_angle_csv(got, t, a, b)
    assert got.read_bytes() == expected.read_bytes()


def test_feature_matrix_bytes_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(4)
    rows = [("s1", joint, i, features.feature_vector(rng.normal(0.0, 2.0, 64)), "normal")
            for joint in ("theta1", "theta2") for i in range(5)]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8") as fh:
        fh.write("subject,joint,imf_index," + ",".join(features.FeatureVector._fields)
                 + ",label\n")
        for subject, joint, imf_index, fv, label in rows:
            feats = ",".join(f"{v:.6f}" for v in fv)
            fh.write(f"{subject},{joint},{imf_index},{feats},{label}\n")
    got = tmp_path / "got.csv"
    features.write_feature_matrix_csv(got, rows)
    assert got.read_bytes() == expected.read_bytes()


def test_plot_data_bytes_match_per_value_formatting(tmp_path):
    config = gm.GaitModelConfig(tc=0.005)
    stride = 5
    out = tmp_path / "plots"
    assert main(["plot-data", "--tc", str(config.tc), "--frame-stride", str(stride),
                 "--out-dir", str(out)]) == 0
    traj = gm.generate_gait_cycle(gm.FieldBank.default(), config)
    expected = {}
    for jkey in gm.JOINT_KEYS:
        text = "angle,velocity\n"
        for angle, velocity in gm.limit_cycle(traj, jkey).points:
            text += f"{angle:.6f},{velocity:.6f}\n"
        expected[f"limit_cycle_{jkey}.csv"] = text
    for side in ("left", "right"):
        hips = np.radians(traj.angles[f"{side}_hip"])
        knees = np.radians(traj.angles[f"{side}_knee"])
        text = "x,y\n"
        for i in range(0, len(traj), stride):
            elbow, tip = fk_point(float(hips[i] - np.pi / 2.0), float(knees[i]),
                                  gm.LINK_LENGTH, gm.LINK_LENGTH)
            text += "0.000000,0.000000\n"
            text += f"{elbow[0]:.6f},{elbow[1]:.6f}\n"
            text += f"{tip[0]:.6f},{tip[1]:.6f}\n"
        expected[f"stick_{side}.csv"] = text
    text = "imf_index,value\n"
    imfs, _, _ = features.emd_decompose(traj.angles["left_hip"])
    for imf in imfs:
        stats = features.quartile_stats(imf.values)
        for value in (stats.q1 - 1.5 * stats.iqr, stats.q1, stats.q2,
                      stats.q3, stats.q3 + 1.5 * stats.iqr):
            text += f"{imf.index},{value:.6f}\n"
    expected["box_stats.csv"] = text
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name


def test_json_bytes_match_rounded_dump(tmp_path):
    doc = {"b": [1.23456789, (2.0000004, -0.0)], "a": {"x": np.float64(1 / 3), "n": 7},
           "s": "text", "none": None, "flag": True}

    def round6(obj):
        if isinstance(obj, float):
            return round(obj, 6)
        if isinstance(obj, dict):
            return {k: round6(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [round6(v) for v in obj]
        return obj

    expected = tmp_path / "expected.json"
    with open(expected, "w", encoding="utf-8") as fh:
        json.dump(round6(doc), fh, indent=1, sort_keys=True)
        fh.write("\n")
    got = tmp_path / "got.json"
    write_json(got, doc)
    assert got.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_refuses_a_float_that_is_not_finite_and_writes_no_file(value, tmp_path):
    doc = {"ok": 1.0, "nested": [{"bad": value}]}
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(doc)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "never.json", doc)
    assert list(tmp_path.iterdir()) == []
