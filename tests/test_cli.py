import argparse
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitforge.cli import build_parser, main
from gaitforge import capture, features, gait_ca
from gaitforge import gait_model as gm
from gaitforge.fixtures import fixture_dir, fixture_path
from gaitforge.tables import write_rows


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# gen-gait
# ---------------------------------------------------------------------------

def test_gen_gait_structure(tmp_path, capsys):
    out = tmp_path / "traj.tsv"
    assert run(["gen-gait", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert header == ["time", "left_hip", "right_hip", "left_knee",
                      "right_knee", "left_ankle", "right_ankle"]
    assert len(lines) - 1 == math.floor(1.6 / 0.0167) + 1
    # seven phase segments over the grid
    phases = [int(gm.phase_of(float(l.split("\t")[0]))) for l in lines[1:]]
    assert sorted(set(phases)) == list(range(7))
    report = json.loads((tmp_path / "traj.tsv.report.json").read_text())
    assert len(report["boundaries"]) == 7
    assert "range check:" in capsys.readouterr().out


def test_gen_gait_percent_schedule(tmp_path):
    out = tmp_path / "traj.tsv"
    assert run(["gen-gait", "--schedule", "percent", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "traj.tsv.report.json").read_text())
    xs = [b["x"] for b in report["boundaries"]]
    assert xs == pytest.approx([1.6 * f for f in (0.1, 0.3, 0.5, 0.6, 0.73, 0.87, 1.0)])


def test_gen_gait_default_tc(tmp_path):
    out = tmp_path / "traj.tsv"
    run(["gen-gait", "--out", str(out)])
    rows = out.read_text().splitlines()[1:3]
    t0, t1 = (float(r.split("\t")[0]) for r in rows)
    assert t1 - t0 == pytest.approx(0.0167)


def test_gen_gait_missing_bank_exits_2(tmp_path, capsys):
    code = run(["gen-gait", "--model-bank", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "t.tsv")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["gen-gait", "plot-data"])
@pytest.mark.parametrize("tc", ["-1", "0", "nan", "inf", "1e-9"])
def test_bad_tc_exits_2_before_sampling(verb, tc, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a grid was about to be sampled")

    monkeypatch.setattr(gm, "generate_gait_cycle", never)
    out = tmp_path / "out"
    target = ["--out", str(out)] if verb == "gen-gait" else ["--out-dir", str(out)]
    assert run([verb, f"--tc={tc}"] + target) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tc") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("tc", ["1", "0.8"])
def test_plot_data_too_few_samples_exits_2_before_mkdir(tc, tmp_path, capsys):
    out = tmp_path / "plots"
    assert run(["plot-data", f"--tc={tc}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tc") and err.count("\n") == 1
    assert not out.exists()


def test_gen_gait_checks_ranges_before_writing(bundled_tables, tmp_path, capsys):
    # a fixture directory with the bank but no range table: generation runs,
    # the range check fails, and neither output is written
    (bundled_tables / "joint_ranges.json").unlink()
    assert run(["gen-gait", "--out", str(tmp_path / "out.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fx"]


def test_plot_data_fault_while_computing_makes_no_directory(tmp_path, capsys, monkeypatch):
    # fk_two_link runs after the limit cycles and outside the --tc blame
    def fail(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(capture, "fk_two_link", fail)
    out = tmp_path / "plots"
    assert run(["plot-data", "--tc", "0.05", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: injected fault\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# error contract: bad arguments exit 2 with one line, never a traceback
# ---------------------------------------------------------------------------

OUT, ACC, ANGLES = "<out>", "<acc>", "<angles>"   # replaced by paths under tmp_path


@pytest.mark.parametrize("argv", [
    ["push", "--force", "nan", "--dir", "left"],
    ["simulate-block", "--alpha", "2"],
    ["ca-predict", "--init", "0000", "--n", "0"],
    ["cv", "--folds", "1"],
    ["simulate-block", "--x1", "0.5"],
    ["simulate-block", "--dt", "nan", "--t-end", "0.01"],   # DivergenceError
    ["plot-data", "--frame-stride", "0", "--out-dir", OUT],
    ["plot-data", "--frame-stride", "-1", "--out-dir", OUT],
    ["cv", "--method", "mlp", "--eta", "nan", "--epochs", "2", "--out", OUT],
    ["cv", "--method", "mlp", "--layers", "6,0,4", "--epochs", "2", "--out", OUT],
    ["features", "--in", ANGLES, "--max-imfs", "0", "--out", OUT],
    ["ca-predict", "--init", "0000", "--n", str(gait_ca.MAX_STEPS + 1), "--out", OUT],
    ["ingest", "--in", ACC, "--ik", "exact", "--l1", "nan", "--out", OUT],
    # squares that overflow, or underflow to 0 and make the alg1 cosine overflow
    ["ingest", "--in", ACC, "--l1", "1e308", "--out", OUT],
    ["ingest", "--in", ACC, "--l2", "1e308", "--out", OUT],
    ["ingest", "--in", ACC, "--l1", "1e-308", "--out", OUT],
    ["push", "--force", "inf", "--dir", "left"],
    ["push", "--force=1e400", "--dir", "left"],
])
def test_bad_argument_exits_2_with_one_error_line(argv, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a CA sequence was about to be built")

    monkeypatch.setattr(gait_ca, "next_state", never)
    acc, angles = tmp_path / "acc.csv", tmp_path / "angles.csv"
    t = np.arange(40) * 0.01
    write_rows(acc, "t,x,y,z", "%.2f,%.6f,%.6f,0.0", zip(t, 6.0 + np.sin(9 * t), 2.0 + t))
    write_rows(angles, "t,theta1_deg,theta2_deg", "%.6f,%.6f,%.6f",
               zip(t, np.sin(9 * t), np.cos(7 * t)))
    out = tmp_path / "out"
    argv = [{OUT: str(out), ACC: str(acc), ANGLES: str(angles)}.get(a, a) for a in argv]
    if argv[0] == "simulate-block":
        argv = argv + ["--out", str(tmp_path / "trace.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def never_step(*args, **kwargs):
    raise AssertionError("the integrator was about to step")


@pytest.mark.parametrize("argv", [
    ["--t-end", "inf"],
    ["--t-end", "nan"],
    ["--t-end", "-1"],
    ["--t-end", "1e4", "--dt", "1e-5"],   # over rocking_block.MAX_STATES steps
    ["--x2", "inf"],
    ["--x1", "nan"],
    ["--dt", "inf"],
])
def test_simulate_block_non_finite_or_oversized_exits_2_before_stepping(
        argv, tmp_path, capsys, monkeypatch):
    from gaitforge import rocking_block

    # step, simulate's loop and its crossing bisection all call _rk4
    monkeypatch.setattr(rocking_block, "_rk4", never_step)
    out = tmp_path / "trace.csv"
    assert run(["simulate-block"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[0].lstrip("-").replace("-", "_") in err
    assert not out.exists()


def test_simulate_block_steps_through_rk4(tmp_path, monkeypatch):
    # the control for the test above: a valid run does reach the patched _rk4
    from gaitforge import rocking_block

    monkeypatch.setattr(rocking_block, "_rk4", never_step)
    with pytest.raises(AssertionError, match="about to step"):
        run(["simulate-block", "--t-end", "1", "--out", str(tmp_path / "trace.csv")])


@pytest.mark.parametrize("option, value", [
    ("--label", "a,b"),
    ("--label", 'say "hi"'),
    ("--subject", "s1\r"),
    ("--subject", "s1\nx"),
])
def test_features_rejects_unquotable_text_before_reading(option, value, tmp_path, capsys):
    missing = tmp_path / "never_read.csv"
    assert run(["features", "--in", str(missing), "--out", str(tmp_path / "f.csv"),
                option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1
    assert not (tmp_path / "f.csv").exists()


# banks that fail before their shape is looked at: name -> (bytes, message prefix)
UNREADABLE_BANKS = {
    "syntax.json": (b'{"left_hip": {},\n "right_hip": {} "left_knee": {}}\n', "line 2: "),
    "bytes.json": (b"\xff\xfe", "line 1: not UTF-8 text\n"),
    "empty.json": (b"", "line 1: "),
    "deep.json": (b"[" * 100_000, "nesting too deep or an integer too long to read\n"),
    "long_int.json": (b"[" + b"1" * 5000 + b"]", ""),
}


def write_bad_inputs(work):
    doc = gm.FieldBank.default().to_dict()
    nan_coeff = json.loads(json.dumps(doc))
    nan_coeff["left_knee"]["MST"]["coeffs"][0] = float("nan")
    huge_coeff = json.loads(json.dumps(doc))
    huge_coeff["left_knee"]["MST"]["coeffs"][0] = 10 ** 400
    # finite coefficients whose field overflows on [0, 1.6]
    overflow = json.loads(json.dumps(doc))
    overflow["left_knee"]["MST"]["coeffs"] = [1e308] * len(overflow["left_knee"]["MST"]["coeffs"])
    # numbers spelled as strings, or a bool, are not JSON numbers
    text_coeffs = json.loads(json.dumps(doc))
    text_coeffs["left_knee"]["MST"]["coeffs"] = "123"
    text_list = json.loads(json.dumps(doc))
    text_list["left_knee"]["MST"]["coeffs"] = ["1e-3", "2", "3"]
    bool_error = json.loads(json.dumps(doc))
    bool_error["left_knee"]["MST"]["error"] = True
    banks = {
        "list.json": [1, 2],
        "flat.json": {"left_hip": 5},
        "no_ankle.json": {k: v for k, v in doc.items() if k != "right_ankle"},
        "nan.json": nan_coeff,
        "huge_int.json": huge_coeff,
        "overflow.json": overflow,
        "text_coeffs.json": text_coeffs,
        "text_list.json": text_list,
        "bool_error.json": bool_error,
    }
    for name, content in banks.items():
        (work / name).write_text(json.dumps(content))
    for name, (content, _) in UNREADABLE_BANKS.items():
        (work / name).write_bytes(content)
    (work / "adir").mkdir()
    # finite coordinates whose squares overflow
    t = np.arange(40) * 0.01
    write_rows(work / "huge.csv", "t,x,y,z", "%.2f,%.6g,%.6g,0.0",
               zip(t, 1e200 * (6.0 + np.sin(9 * t)), 1e200 * (2.0 + t)))
    # finite sample times whose step overflows
    (work / "huge_t.csv").write_text("t,x,y,z\n-1e308,6,2,0\n1e308,6,2,0\n1e308,6,2,0\n")


DATA = str(fixture_path("synthetic_gait_features.csv"))


@pytest.mark.parametrize("argv, prefix", [
    (["gen-gait", "--model-bank", "list.json"], "list.json: malformed model bank: "),
    (["gen-gait", "--model-bank", "flat.json"], "flat.json: malformed model bank: "),
    (["gen-gait", "--model-bank", "no_ankle.json"], "no_ankle.json: malformed model bank: "),
    (["gen-gait", "--model-bank", "nan.json"], "nan.json: malformed model bank: "),
    (["plot-data", "--model-bank", "nan.json"], "nan.json: malformed model bank: "),
    (["gen-gait", "--model-bank", "adir"], ""),
    (["ingest", "--in", "adir"], ""),
    (["classify", "--train", "adir", "--test", DATA], ""),
    (["gen-gait", "--model-bank", "missing.json"], "input not found: missing.json\n"),
    (["plot-data", "--model-bank", "missing.json"], "input not found: missing.json\n"),
    (["classify", "--train", "missing.csv", "--test", DATA], "input not found: missing.csv\n"),
    (["classify", "--train", DATA, "--test", "missing.csv"], "input not found: missing.csv\n"),
    (["cv", "--data", "missing.csv"], "input not found: missing.csv\n"),
    (["ingest", "--in", "huge.csv"], "huge.csv: series values must be finite\n"),
    (["ingest", "--in", "huge.csv", "--smooth", "moving-average"],
     "huge.csv: series values must be finite\n"),
    (["ingest", "--in", "huge.csv", "--smooth", "spline"],
     "huge.csv: series values must be finite\n"),
    (["gen-gait", "--model-bank", "huge_int.json"], "huge_int.json: malformed model bank: "),
    *(([verb, "--model-bank", name], f"{name}: {prefix}")
      for name, (_, prefix) in UNREADABLE_BANKS.items() for verb in ("gen-gait", "plot-data")),
    *(([verb, "--model-bank", name], f"{name}: malformed model bank: field (left_knee, MST): ")
      for name in ("text_coeffs.json", "text_list.json", "bool_error.json", "overflow.json")
      for verb in ("gen-gait", "plot-data")),
    (["ingest", "--in", "huge_t.csv"], "huge_t.csv: sample times overflow: "),
    (["ingest", "--in", "huge_t.csv", "--ik", "exact", "--smooth", "spline"],
     "huge_t.csv: sample times overflow: "),
])
def test_bad_input_file_exits_2_and_writes_nothing(argv, prefix, tmp_path, capsys, monkeypatch):
    write_bad_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    out = ["--out-dir" if argv[0] == "plot-data" else "--out", "out"]
    assert run(argv + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix) and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


PATH_OPTIONS_BY_VERB = {
    "gen-gait": ["--model-bank", "--out"],
    "ca-predict": ["--out"],
    "ingest": ["--in", "--out"],
    "features": ["--in", "--out"],
    "classify": ["--train", "--test", "--out"],
    "cv": ["--data", "--out"],
    "push": ["--out"],
    "plot-data": ["--model-bank", "--out-dir"],
    "simulate-block": ["--out"],
}


@pytest.mark.parametrize("verb, option", [
    (verb, option) for verb, options in PATH_OPTIONS_BY_VERB.items() for option in options
])
def test_empty_path_exits_2_before_any_io(verb, option, tmp_path, capsys, monkeypatch):
    write_bad_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [verb] + BASELINES[verb]
    if option in argv:
        del argv[argv.index(option):argv.index(option) + 2]
    assert run(argv + [f"{option}="]) == 2
    assert capsys.readouterr().err == f"error: {option}: empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, option", [
    (["ingest", "--in", "never.csv", "--out", "a.csv", "--knot-stride", "0"], "--knot-stride"),
    (["ingest", "--in", "never.csv", "--out", "a.csv", "--knot-stride", "-1",
      "--smooth", "moving-average"], "--knot-stride"),
    (["classify", "--train", "never.csv", "--test", "never.csv", "--out", "m.json",
      "--method", "mlp", "--k", "-1"], "--k"),
    (["cv", "--method", "mlp", "--k", "0", "--out", "cv.json"], "--k"),
    (["cv", "--method", "knn", "--baseline", "mlp", "--k", "0"], "--k"),
    (["cv", "--data", "never.csv", "--method", "knn", "--epochs", "0"], "--epochs"),
    (["classify", "--train", "never.csv", "--test", "never.csv", "--out", "m.json",
      "--eta", "nan"], "--eta"),
    (["cv", "--method", "knn", "--layers", "6,0,4"], "--layers"),
    (["cv", "--method", "knn", "--layers="], "--layers"),
    (["classify", "--train", "never.csv", "--test", "never.csv", "--out", "m.json",
      "--seed", "-1"], "--seed"),
    (["cv", "--data", "never.csv", "--method", "knn", "--folds", "1"], "--folds"),
    (["features", "--in", "never.csv", "--out", "f.csv", "--bins", "0"], "--bins"),
    (["features", "--in", "never.csv", "--out", "f.csv",
      "--bins", str(features.MAX_BINS + 1)], "--bins"),
])
def test_option_a_method_ignores_is_still_checked_before_reading(
        argv, option, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, prefix", [
    (["push", "--force", "2", "--dir", "up"], "--dir: invalid choice"),
    (["classify", "--train", "never.csv", "--test", "never.csv", "--out", "m.json",
      "--k", "abc"], "--k: "),
    (["cv", "--eta", "abc"], "--eta: "),
    (["gen-gait"], "the following arguments are required: --out"),
    ([], "the following arguments are required: command"),
    (["push", "--force", "2", "--dir", "left", "--frob", "1"], "unrecognized arguments:"),
    (["ingest", "--in", "never.csv", "--out", "a.csv", "--l", "3"], "ambiguous option:"),
])
def test_what_argparse_rejects_is_one_error_line(argv, prefix, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + prefix) and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("options, message", [
    (["--bins", "0", "--max-imfs", "0"], f"--bins: must lie in [1, {features.MAX_BINS}], got 0"),
    (["--max-imfs", "0", "--bins", "0"], "--max-imfs: must be >= 1, got 0"),
])
def test_first_bad_option_on_the_command_line_is_reported(options, message, tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run(["features", "--in", "never.csv", "--out", str(out)] + options) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate-block", "--dt", "0", "--alpha", "5", "--out", "x.csv"],
     "alpha must lie in (0, pi/2)"),
    (["ca-predict", "--n", "0", "--init", "2"],
     "expected a 4-character binary string, got '2'"),
])
def test_options_the_library_checks_are_reported_in_the_verbs_order(argv, message, tmp_path,
                                                                      capsys, monkeypatch):
    # no parser type checks these options, so the verb's first check wins,
    # not the first bad option on the command line
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


TOP_HELP = """\
usage: gaitforge [-h]
                 {gen-gait,simulate-block,ca-predict,ingest,features,classify,cv,push,plot-data}
                 ...

Batch gait modeling, simulation, classification, and push recovery.

positional arguments:
  {gen-gait,simulate-block,ca-predict,ingest,features,classify,cv,push,plot-data}
    gen-gait            generate a full six-joint gait cycle
    simulate-block      rocking-block simulation with impacts
    ca-predict          iterate the gait-state rule table
    ingest              accelerometer CSV to joint angles
    features            EMD features from a joint-angle CSV
    classify            train on one CSV, score another
    cv                  stratified k-fold cross-validation
    push                push-recovery verdict as JSON
    plot-data           two-column CSVs for the standard figures

options:
  -h, --help            show this help message and exit
"""

PUSH_HELP = """\
usage: gaitforge push [-h] --force FORCE --dir {left,right,forward,backward}
                      [--out OUT]

options:
  -h, --help            show this help message and exit
  --force FORCE
  --dir {left,right,forward,backward}
  --out OUT
"""


@pytest.mark.parametrize("argv, text", [(["--help"], TOP_HELP), (["push", "--help"], PUSH_HELP)])
def test_help_still_prints_usage_and_exits_0(argv, text, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (text, "")


def test_a_negative_value_in_exponent_form_is_a_value(tmp_path, capsys):
    plain, exponent = tmp_path / "plain.csv", tmp_path / "exponent.csv"
    for x1, out in (("-0.5", plain), ("-5e-1", exponent)):
        assert run(["simulate-block", "--x1", x1, "--t-end", "0.01", "--out", str(out)]) == 0
    assert exponent.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert run(["push", "--force", "-1e-3", "--dir", "left"]) == 2
    assert capsys.readouterr().err == "error: force magnitude must be finite and >= 0\n"


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NaN"])
def test_a_negative_non_finite_value_is_a_value(value, tmp_path, capsys):
    # not an unknown option: the value reaches the check that rejects it
    out = tmp_path / "trace.csv"
    errs = []
    for argv in (["--x1", value], [f"--x1={value}"]):
        assert run(["simulate-block", *argv, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: initial state must be finite")
    assert list(tmp_path.iterdir()) == []
    assert run(["push", "--force", value, "--dir", "left"]) == 2
    assert capsys.readouterr() == ("", "error: force magnitude must be finite and >= 0\n")


def test_simulate_block_zeno_exits_2(tmp_path, capsys, monkeypatch):
    from gaitforge import rocking_block

    def chatter(*args, **kwargs):
        raise rocking_block.ZenoError("more than 1000000 impacts")

    monkeypatch.setattr(rocking_block, "simulate", chatter)
    assert run(["simulate-block", "--out", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err == \
        "error: simulation failed: more than 1000000 impacts\n"


# ---------------------------------------------------------------------------
# hostile argument values: every verb exits 0 or 2, never with a traceback
# ---------------------------------------------------------------------------

# one cheap run per verb; paths are relative to the hostile_dir fixture
BASELINES = {
    "gen-gait": ["--out", "t.tsv"],
    "simulate-block": ["--t-end", "0.1", "--out", "b.csv"],
    "ca-predict": ["--init", "0101", "--n", "4"],
    "ingest": ["--in", "acc.csv", "--out", "a.csv"],
    "features": ["--in", "angles.csv", "--out", "f.csv"],
    "classify": ["--train", "ds.csv", "--test", "ds.csv", "--method", "mlp",
                 "--epochs", "2", "--out", "m.json"],
    "cv": ["--data", "ds.csv", "--method", "mlp", "--epochs", "2", "--folds", "2",
           "--out", "cv.json"],
    "push": ["--force", "5", "--dir", "left"],
    "plot-data": ["--tc", "0.05", "--out-dir", "plots"],
}
# "." is a directory where a file is expected
HOSTILE = ["nan", "inf", "-inf", "-1", "0", "", "abc", "."]
VERBS = next(a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("hostile")
    t = np.arange(60) * 0.01
    write_rows(work / "acc.csv", "t,x,y,z", "%.2f,%.6f,%.6f,0.0",
               zip(t, 6.0 + 2.0 * np.sin(2 * np.pi * t), 2.0 + np.cos(2 * np.pi * t)))
    write_rows(work / "angles.csv", "t,theta1_deg,theta2_deg", "%.2f,%.6f,%.6f",
               zip(t, 10.0 * np.sin(9 * t), 5.0 * np.cos(7 * t)))
    write_rows(work / "ds.csv", "f0,f1,label", "%d,%d,%s",
               [(i, i % 3, "ab"[i % 2]) for i in range(12)])
    return work


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_argument_value_exits_0_or_2(verb, hostile_dir, data):
    options = [a.option_strings[-1] for a in VERBS[verb]._actions
               if a.option_strings and a.nargs != 0]
    option = data.draw(st.sampled_from(options), label="option")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    argv = [verb] + BASELINES[verb]
    if option in argv:
        del argv[argv.index(option):argv.index(option) + 2]
    argv.append(f"{option}={value}")   # "=" keeps "-inf" a value, not a flag
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(hostile_dir)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc in (0, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    if value == "" and option in PATH_OPTIONS_BY_VERB[verb]:
        # an empty path is an error, not an absent option
        assert rc == 2, argv
        assert err.getvalue() == f"error: {option}: empty path\n"


# ---------------------------------------------------------------------------
# other verbs
# ---------------------------------------------------------------------------

def test_ca_predict_stdout(capsys):
    assert run(["ca-predict", "--init", "0000", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0000 1100 0000 1100"


def test_ca_predict_bad_bits(capsys):
    assert run(["ca-predict", "--init", "01x0", "--n", "2"]) == 2


def test_push_json(capsys):
    assert run(["push", "--force", "2", "--dir", "backward"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strategy"] == "ankle"
    assert doc["state"] == "not_fall"


def test_push_dir_choices_are_the_directions_in_order():
    from gaitforge import cli, push_fuzzy

    assert list(cli.PUSH_DIRECTIONS) == [d.value for d in push_fuzzy.Direction]


def test_bins_limit_is_the_features_limit():
    from gaitforge import cli

    assert cli.MAX_BINS == features.MAX_BINS


def test_push_beyond_envelope(capsys):
    assert run(["push", "--force", "13", "--dir", "left"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["recovery_impossible"] is True


def test_simulate_block(tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["simulate-block", "--t-end", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mode,x1,x2,event"
    assert len(lines) > 1000


def test_ingest_and_features(tmp_path, capsys):
    acc = tmp_path / "acc.csv"
    t = np.arange(60) * 0.01
    x = 6.0 + 2.0 * np.sin(2 * np.pi * t)
    y = 2.0 + 1.0 * np.cos(2 * np.pi * t)
    rows = ["t,x,y,z"] + [f"{a:.4f},{b:.6f},{c:.6f},0.0" for a, b, c in zip(t, x, y)]
    acc.write_text("\n".join(rows) + "\n")
    angles = tmp_path / "angles.csv"
    assert run(["ingest", "--in", str(acc), "--out", str(angles)]) == 0
    header = angles.read_text().splitlines()[0]
    assert header == "t,theta1_deg,theta2_deg"

    feats = tmp_path / "features.csv"
    assert run(["features", "--in", str(angles), "--out", str(feats),
                "--label", "normal"]) == 0
    lines = feats.read_text().splitlines()
    assert lines[0].endswith(",label")
    assert all(line.endswith(",normal") for line in lines[1:])


def test_ingest_malformed_line_number(tmp_path, capsys):
    acc = tmp_path / "acc.csv"
    acc.write_text("t,x,y,z\n0.0,6.0,2.0,0.0\n0.01,bad,2.0,0.0\n")
    assert run(["ingest", "--in", str(acc), "--out", str(tmp_path / "a.csv")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_ingest_unreachable_point_named_by_data_row(tmp_path, capsys):
    # file line 5, after two blank lines the reader skips: the second data row
    acc = tmp_path / "acc.csv"
    acc.write_text("t,x,y,z\n0.0,6.0,2.0,0.0\n\n\n0.01,60.0,2.0,0.0\n")
    out = tmp_path / "a.csv"
    assert run(["ingest", "--in", str(acc), "--out", str(out), "--ik", "exact"]) == 2
    assert capsys.readouterr().err == \
        f"error: {acc}: data row 2: point (60.0, 2.0) outside reach [1.0, 9.0]\n"
    assert not out.exists()


def test_ingest_exact_ik_with_smoothing_options(tmp_path):
    acc = tmp_path / "acc.csv"
    t = np.arange(30) * 0.01
    rows = ["t,x,y,z"] + [
        f"{a:.4f},{6 + np.sin(5 * a):.6f},{2 + 0.5 * np.cos(5 * a):.6f},0.0"
        for a in t
    ]
    acc.write_text("\n".join(rows) + "\n")
    out = tmp_path / "angles.csv"
    assert run(["ingest", "--in", str(acc), "--out", str(out), "--ik", "exact",
                "--elbow", "up", "--smooth", "spline", "--knot-stride", "3"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    # elbow-up keeps the knee angle non-positive
    assert all(float(line.split(",")[2]) <= 1e-9 for line in lines[1:])


def test_features_too_short_series_exits_2(tmp_path, capsys):
    angles = tmp_path / "angles.csv"
    angles.write_text("t,theta1_deg,theta2_deg\n0.0,1.0,2.0\n0.1,2.0,3.0\n")
    assert run(["features", "--in", str(angles),
                "--out", str(tmp_path / "f.csv")]) == 2
    assert "samples" in capsys.readouterr().err


def test_cv_bundled_dataset(tmp_path, capsys):
    out = tmp_path / "cv.json"
    assert run(["cv", "--method", "knn", "--k", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["fold_accuracies"]) == 5
    assert doc["mean"] == pytest.approx(np.mean(doc["fold_accuracies"]))


def test_cv_with_baseline_anova(tmp_path):
    out = tmp_path / "cv.json"
    assert run(["cv", "--method", "knn", "--k", "3", "--baseline", "mlp",
                "--layers", "6,8,4", "--epochs", "40", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "anova" in doc
    assert set(doc["anova"]) >= {"F", "p", "ss_between", "ss_within"}


@pytest.mark.parametrize("argv", [
    ["cv", "--method", "mlp", "--layers", "6,1000000,4", "--epochs", "1", "--folds", "2"],
    ["cv", "--method", "knn", "--baseline", "mlp", "--layers", "6,500000,4", "--folds", "2"],
    ["classify", "--train", "{data}", "--test", "{data}", "--out", "m.json",
     "--method", "mlp", "--layers", "6,1000000,4"],
])
def test_mlp_over_the_weight_limit_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = fixture_path("synthetic_gait_features.csv")
    assert run([a.format(data=data) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --layers: ") and err.count("\n") == 1
    assert "over the limit of 10000000" in err
    assert list(tmp_path.iterdir()) == []


def test_cv_on_a_saturating_column_prints_no_warning(tmp_path):
    # a log-energy column near 800 overflows the sigmoid's exp; the verb runs
    # in its own interpreter so that any warning reaches its real stderr
    rows = ["f0,f1,f2,energy,label"] + [
        f"{i % 2 + 0.1 * i:.6f},{i % 2:.6f},{0.5 * (i % 2):.6f},{800 + i:.6f},{'ab'[i % 2]}"
        for i in range(20)]
    (tmp_path / "loge.csv").write_text("\n".join(rows) + "\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gaitforge.cli", "cv", "--data", "loge.csv", "--method", "mlp",
         "--epochs", "2", "--folds", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("fold accuracies: ")


def test_cv_writes_an_infinite_anova_f_as_null(tmp_path):
    # four well-separated classes: every kNN fold scores 100 and every
    # one-epoch MLP fold 50, so neither method spreads across its folds
    rows = ["f0,f1,label"] + [
        f"{cx + 0.1 * (i % 5):.1f},{cy + 0.1 * (i // 5):.1f},{label}"
        for label, (cx, cy) in zip("abcd", ((0, 0), (10, 0), (0, 10), (10, 10)))
        for i in range(10)]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "cv.json"
    assert run(["cv", "--data", str(tmp_path / "d.csv"), "--method", "mlp", "--epochs", "1",
                "--baseline", "knn", "--out", str(out)]) == 0

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=strict)
    assert doc["fold_accuracies"] == [50.0] * 5
    assert doc["baseline"]["fold_accuracies"] == [100.0] * 5
    assert doc["anova"]["F"] is None and doc["anova"]["p"] == 0.0


@pytest.mark.parametrize("method", ["knn", "mlp"])
@pytest.mark.parametrize("test_csv, message", [
    ("f0,f1,f2,label\n0.0,1.0,2.0,a\n", "te.csv: 3 feature columns, but tr.csv has 2\n"),
    ("f0,f1,label\n0.0,1.0,x\n", "te.csv: class 'x' is not in tr.csv\n"),
], ids=["width", "class"])
def test_classify_names_the_test_file_that_does_not_fit(
        method, test_csv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = [f"{i % 4 + 0.5 * (i % 2):.1f},{8.0 * (i % 2):.1f},{'ab'[i % 2]}" for i in range(20)]
    (tmp_path / "tr.csv").write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "te.csv").write_text(test_csv)
    assert run(["classify", "--train", "tr.csv", "--test", "te.csv", "--out", "m.json",
                "--method", method, "--epochs", "1"]) == 2
    assert capsys.readouterr().err == "error: " + message
    assert not (tmp_path / "m.json").exists()


def test_classify_metrics_report(tmp_path):
    rng = np.random.default_rng(0)
    def write(path, n):
        with open(path, "w") as fh:
            fh.write("f0,f1,label\n")
            for label, center in (("a", 0.0), ("b", 8.0)):
                for row in rng.normal(center, 0.3, size=(n, 2)):
                    fh.write(f"{row[0]:.6f},{row[1]:.6f},{label}\n")
    train, test, out = tmp_path / "tr.csv", tmp_path / "te.csv", tmp_path / "m.json"
    write(train, 12)
    write(test, 4)
    assert run(["classify", "--train", str(train), "--test", str(test),
                "--method", "knn", "--k", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["overall_error"] == 0.0
    assert doc["tar"] == 1.0
    assert np.array(doc["confusion"]).shape == (2, 2)


def test_plot_data_outputs(tmp_path):
    outdir = tmp_path / "plots"
    assert run(["plot-data", "--out-dir", str(outdir)]) == 0
    names = {p.name for p in outdir.iterdir()}
    for jkey in gm.JOINT_KEYS:
        assert f"limit_cycle_{jkey}.csv" in names
    assert {"stick_left.csv", "stick_right.csv", "box_stats.csv"} <= names
    first = (outdir / "limit_cycle_left_hip.csv").read_text().splitlines()
    assert first[0] == "angle,velocity"
    assert len(first[1].split(",")) == 2


def test_plot_data_prints_the_out_dir_as_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["plot-data", "--tc", "0.05", "--out-dir", "plain"]) == 0
    assert capsys.readouterr().out == "wrote plot data to plain\n"
    # a trailing separator is kept, and missing parents are made
    assert run(["plot-data", "--tc", "0.05", "--out-dir", "nested/plots/"]) == 0
    assert capsys.readouterr().out == "wrote plot data to nested/plots/\n"
    plain = sorted(Path("plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in Path("nested/plots").iterdir())
    for path in plain:
        assert (Path("nested/plots") / path.name).read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# fixture directory override
# ---------------------------------------------------------------------------

GEN_GAIT = ["gen-gait", "--out", "out.tsv"]


@pytest.mark.parametrize("table, corrupt, argv, message", [
    ("joint_ranges.json", lambda d: d["mid_stance"].update(left_hip=5), GEN_GAIT,
     "malformed range table: cannot unpack non-iterable int object"),
    ("joint_ranges.json", lambda d: d.update(mid_stance=[1, 2]), GEN_GAIT,
     "malformed range table: 'list' object has no attribute 'items'"),
    ("push_rules.json", lambda d: d.pop("force_limit"),
     ["push", "--force", "5", "--dir", "left", "--out", "out.json"],
     "malformed push rules: no 'force_limit'"),
    ("push_rules.json", lambda d: d["fis2"].update(knee=[]),
     ["push", "--force", "5", "--dir", "left", "--out", "out.json"],
     "malformed push rules: 'fis2' must give each strategy a non-empty list of "
     "[roll, pitch] term pairs"),
    ("ca_rules.json", lambda d: d.pop("next"), ["ca-predict", "--init", "0101", "--out", "out.txt"],
     "malformed CA rules: no 'next'"),
    ("ca_rules.json", lambda d: d["next"].update({"0101": "2"}),
     ["ca-predict", "--init", "0101", "--out", "out.txt"],
     "malformed CA rules: invalid literal for int() with base 2: '2'"),
    ("ca_rules.json", lambda d: d["next"].update({"0101": "10000"}),
     ["ca-predict", "--init", "0101", "--out", "out.txt"],
     "malformed CA rules: next must map all 16 codes to codes"),
    ("tables_5_1_to_5_6.json", lambda d: d["left_knee"].pop("MST"), GEN_GAIT,
     "malformed model bank: no field for (left_knee, MST)"),
    ("tables_5_1_to_5_6.json", lambda d: d["left_knee"].pop("MST"),
     ["plot-data", "--out-dir", "out"],
     "malformed model bank: no field for (left_knee, MST)"),
    ("tables_5_1_to_5_6.json",
     lambda d: d["left_knee"]["MST"]["coeffs"].__setitem__(0, math.nan), GEN_GAIT,
     "malformed model bank: field (left_knee, MST): expected a finite number, got nan"),
    ("joint_ranges.json", lambda d: d["mid_stance"]["left_hip"].__setitem__(0, math.nan),
     GEN_GAIT, "malformed range table: expected a finite number, got nan"),
    ("joint_ranges.json", lambda d: d["mid_stance"].update(left_hip=["1.5", True]), GEN_GAIT,
     "malformed range table: expected a finite number, got '1.5'"),
    ("push_rules.json", lambda d: d["force_sets"]["small"].__setitem__(1, math.nan),
     ["push", "--force", "5", "--dir", "left", "--out", "out.json"],
     "malformed push rules: expected a finite number, got nan"),
    ("ca_rules.json", lambda d: d["next"].update({"0101": math.nan}),
     ["ca-predict", "--init", "0101", "--out", "out.txt"],
     "malformed CA rules: int() can't convert non-string with explicit base"),
])
def test_malformed_bundled_table_exits_2_naming_it(table, corrupt, argv, message, bundled_tables,
                                                   tmp_path, capsys, monkeypatch):
    doc = json.loads((bundled_tables / table).read_text())
    corrupt(doc)
    # a NaN goes out as the NaN literal, which the JSON reader takes in
    (bundled_tables / table).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bundled_tables / table}: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["fx"]


def test_fixture_env_override(bundled_tables):
    doc = json.loads((bundled_tables / "ca_rules.json").read_text())
    doc["next"]["0000"] = "1111"
    doc["next"]["1111"] = "0000"
    doc["next"]["1100"] = "0011"
    doc["next"]["0011"] = "1100"
    (bundled_tables / "ca_rules.json").write_text(json.dumps(doc))
    assert fixture_dir() == str(bundled_tables)
    state = gait_ca.CAState.from_bits("0000")
    assert gait_ca.next_state(state).bits == "1111"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_verbs_are_deterministic(tmp_path):
    def run_all(base):
        base.mkdir()
        run(["gen-gait", "--out", str(base / "t.tsv")])
        run(["simulate-block", "--t-end", "2", "--out", str(base / "b.csv")])
        run(["cv", "--method", "mlp", "--layers", "6,8,4", "--epochs", "25",
             "--seed", "42", "--out", str(base / "cv.json")])
        run(["push", "--force", "7", "--dir", "forward", "--out", str(base / "p.json")])

    run_all(tmp_path / "one")
    run_all(tmp_path / "two")
    for name in ("t.tsv", "t.tsv.report.json", "b.csv", "cv.json", "p.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()
