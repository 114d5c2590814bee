import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitforge.cli import build_parser, main
from gaitforge import gait_ca
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

    def never(*args, **kwargs):
        raise AssertionError("the integrator was about to step")

    monkeypatch.setattr(rocking_block, "step", never)
    out = tmp_path / "trace.csv"
    assert run(["simulate-block"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[0].lstrip("-").replace("-", "_") in err
    assert not out.exists()


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


def write_bad_inputs(work):
    doc = gm.FieldBank.default().to_dict()
    nan_coeff = json.loads(json.dumps(doc))
    nan_coeff["left_knee"]["MST"]["coeffs"][0] = float("nan")
    banks = {
        "list.json": [1, 2],
        "flat.json": {"left_hip": 5},
        "no_ankle.json": {k: v for k, v in doc.items() if k != "right_ankle"},
        "nan.json": nan_coeff,
    }
    for name, content in banks.items():
        (work / name).write_text(json.dumps(content))
    (work / "adir").mkdir()


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
])
def test_option_a_method_ignores_is_still_checked_before_reading(
        argv, option, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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
            try:
                rc = main(argv)
            except SystemExit as exc:   # argparse rejected the value
                rc = exc.code
    finally:
        os.chdir(cwd)
    assert rc in (0, 2), argv
    assert "Traceback" not in err.getvalue()
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


# ---------------------------------------------------------------------------
# fixture directory override
# ---------------------------------------------------------------------------

def test_fixture_env_override(tmp_path, monkeypatch):
    for name in ("ca_rules.json", "tables_5_1_to_5_6.json",
                 "joint_ranges.json", "push_rules.json",
                 "synthetic_gait_features.csv"):
        shutil.copy(fixture_path(name), tmp_path / name)
    doc = json.loads((tmp_path / "ca_rules.json").read_text())
    doc["next"]["0000"] = "1111"
    doc["next"]["1111"] = "0000"
    doc["next"]["1100"] = "0011"
    doc["next"]["0011"] = "1100"
    (tmp_path / "ca_rules.json").write_text(json.dumps(doc))

    monkeypatch.setenv("GAITFORGE_FIXTURES", str(tmp_path))
    gait_ca._tables.cache_clear()
    try:
        assert fixture_dir() == tmp_path
        state = gait_ca.CAState.from_bits("0000")
        assert gait_ca.next_state(state).bits == "1111"
    finally:
        monkeypatch.delenv("GAITFORGE_FIXTURES")
        gait_ca._tables.cache_clear()


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
