"""Import contract of the command line: each verb loads only the heavy
libraries it runs, none needs scipy, and none loads ``dataclasses``. numpy
costs most of a CLI call's start-up and scipy far more, so a stray import
would slow every verb without failing anything else. ``push``,
``ca-predict``, ``simulate-block`` and ``gen-gait`` (and
``gaitforge.gait_model`` itself) load no numpy, and no ``inspect`` either,
which with ``dataclasses`` took about a third of their own start-up;
``ca-predict``, ``simulate-block`` and ``gen-gait`` do not load
``gaitforge.push_fuzzy``. Started without ``site`` (``python -S``), those
four verbs load neither ``pathlib`` nor ``importlib.resources`` (nor the
``zipfile`` and ``tempfile`` it brings). A missing input file is reported
before numpy loads. A verb that loads numpy loads it with
``OPENBLAS_THREAD_TIMEOUT`` set, to 4 unless the caller set it.

Every case runs in a fresh interpreter, since this test process has long
since imported both. The probe blocks scipy (``sys.modules["scipy"] = None``)
before it imports the CLI, so any scipy import in a verb fails the case, as
it would on an install without scipy. No timings are compared.

The records that replaced the package's dataclasses keep their
constructors, reprs, equality, hashes, checks and (im)mutability; the last
tests check that in this process.
"""

import copy
import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from gaitforge import capture, features, gait_ca, gait_model, learn, push_fuzzy, rocking_block

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.modules["scipy"] = None
from gaitforge import cli
argv = json.loads(sys.argv[1])
rc = cli.main(argv) if argv else 0
print(json.dumps({"rc": rc, "loaded": [m for m in ("numpy", "scipy", "dataclasses", "inspect")
                                       if sys.modules.get(m) is not None]}))
"""


def probe_result(argv, cwd, probe=PROBE, env=None, rc=0, flags=()):
    """The probe's JSON line after ``cli.main(argv)`` returned ``rc``, with
    the interpreter's stderr under "stderr"; ``flags`` go to the
    interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-c", probe, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == rc, done.stderr
    result["stderr"] = done.stderr
    return result


def loaded_after(argv, cwd, probe=PROBE, flags=()):
    return set(probe_result(argv, cwd, probe, flags=flags)["loaded"])


def write_inputs(base: Path) -> None:
    rows = ["t,x,y,z"] + [f"{i * 0.01:.2f},{6.0 + 0.1 * (i % 7):.6f},2.0,0.0"
                          for i in range(20)]
    (base / "acc.csv").write_text("\n".join(rows) + "\n")
    rows = ["f0,f1,label"] + [f"{c + 0.1 * i:.6f},{c:.6f},{label}"
                              for label, c in (("a", 0.0), ("b", 8.0)) for i in range(4)]
    for name in ("train.csv", "test.csv"):
        (base / name).write_text("\n".join(rows) + "\n")
    rows = ["t,theta1_deg,theta2_deg"] + [f"{i * 0.01:.2f},{(i * 7) % 11:.6f},{(i * 5) % 9:.6f}"
                                          for i in range(40)]
    (base / "angles.csv").write_text("\n".join(rows) + "\n")


def test_importing_the_cli_loads_neither_numpy_nor_scipy(tmp_path):
    assert loaded_after([], tmp_path) == set()


def test_importing_the_gait_model_loads_no_numpy(tmp_path):
    probe = PROBE.replace("from gaitforge import cli", "import gaitforge.gait_model")
    assert loaded_after([], tmp_path, probe) == set()


@pytest.mark.parametrize("argv", [
    ["ingest", "--in", "missing.csv", "--out", "never.csv"],
    ["features", "--in", "missing.csv", "--out", "never.csv"],
    ["classify", "--train", "missing.csv", "--test", "test.csv", "--out", "never.json"],
    ["classify", "--train", "train.csv", "--test", "missing.csv", "--out", "never.json"],
    ["cv", "--data", "missing.csv"],
    ["cv", "--data", "missing.csv", "--method", "mlp", "--baseline", "knn", "--out", "never.json"],
])
def test_missing_input_is_reported_before_numpy_loads(argv, tmp_path):
    write_inputs(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    result = probe_result(argv, tmp_path, rc=2)
    assert result["stderr"] == "error: input not found: missing.csv\n"
    assert "numpy" not in result["loaded"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_non_finite_block_state_is_reported_by_its_repr(tmp_path):
    result = probe_result(["simulate-block", "--x1", "nan", "--out", "trace.csv"], tmp_path,
                          rc=2)
    assert result["stderr"] == ("error: initial state must be finite, got BlockState("
                                "mode=<Mode.LEFT: 'left'>, x1=nan, x2=0.0, t=0.0)\n")
    assert result["loaded"] == []


@pytest.mark.parametrize("argv", [
    ["push", "--force", "5", "--dir", "left"],
    ["ca-predict", "--init", "0101", "--n", "4"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["gen-gait", "--out", "cycle.tsv"],
    ["gen-gait", "--schedule", "percent", "--tc", "1e-4", "--cross-fade", "--out", "cycle.tsv"],
    ["gen-gait", "--model-bank", "bank.json", "--out", "cycle.tsv"],
])
def test_verb_runs_without_numpy(argv, tmp_path):
    from gaitforge.gait_model import FieldBank

    (tmp_path / "bank.json").write_text(json.dumps(FieldBank.default().to_dict()))
    assert loaded_after(argv, tmp_path) == set()


@pytest.mark.parametrize("argv", [
    ["gen-gait", "--out", "cycle.tsv"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["ca-predict", "--init", "0101", "--n", "4"],
])
def test_verb_runs_without_push_fuzzy(argv, tmp_path):
    probe = PROBE.replace('("numpy", "scipy", "dataclasses", "inspect")',
                          '("gaitforge.push_fuzzy",)')
    assert probe != PROBE
    assert loaded_after(argv, tmp_path, probe) == set()


@pytest.mark.parametrize("argv", [
    ["gen-gait", "--out", "cycle.tsv"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["ingest", "--in", "acc.csv", "--out", "angles.csv", "--ik", "alg1"],
    ["classify", "--train", "train.csv", "--test", "test.csv", "--method", "knn",
     "--out", "metrics.json"],
    ["ingest", "--in", "acc.csv", "--out", "angles.csv", "--ik", "exact",
     "--smooth", "spline", "--knot-stride", "3"],
    ["features", "--in", "angles.csv", "--out", "features.csv"],
    ["plot-data", "--tc", "0.01", "--out-dir", "plots"],
    # fold accuracies that differ, so the ANOVA computes a p-value
    ["cv", "--method", "mlp", "--epochs", "2", "--baseline", "knn", "--out", "cv.json"],
])
def test_verb_runs_without_scipy(argv, tmp_path):
    write_inputs(tmp_path)
    loaded = loaded_after(argv, tmp_path)
    assert "scipy" not in loaded and "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["push", "--force", "5", "--dir", "left"],
    ["ca-predict", "--init", "0101", "--n", "4"],
    ["simulate-block", "--t-end", "1", "--out", "trace.csv"],
    ["gen-gait", "--out", "cycle.tsv"],
])
def test_verb_runs_without_pathlib_or_importlib_resources(argv, tmp_path):
    # -S skips site, whose .pth files may import both before gaitforge starts
    probe = PROBE.replace('("numpy", "scipy", "dataclasses", "inspect")',
                          '("pathlib", "importlib.resources", "zipfile", "tempfile")')
    assert probe != PROBE
    assert loaded_after(argv, tmp_path, probe, flags=["-S"]) == set()


# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it; the spy
# records the variable at that moment
BLAS_PROBE = PROBE.replace("from gaitforge import cli", """import os
seen = []

class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, NumpyImportSpy())
from gaitforge import cli""").replace('"rc": rc,', '"rc": rc, "seen": seen,')


@pytest.mark.parametrize("preset, seen", [(None, "4"), ("28", "28")])
def test_numpy_verbs_load_openblas_with_a_short_idle_spin(preset, seen, tmp_path):
    write_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    result = probe_result(["features", "--in", "angles.csv", "--out", "features.csv"],
                          tmp_path, BLAS_PROBE, env)
    assert result["seen"] == [seen]


# ---------------------------------------------------------------------------
# records: what the dataclasses they replaced did
# ---------------------------------------------------------------------------

GUARD = gait_model.PhaseSchedule.guard()
FIELD = gait_model.PolynomialVectorField((1.0, 2.0, 3.0), 0.5, (0.0, 1.0))
REACTION = push_fuzzy.ReactionMembership(small_roll=1.0)

# one factory per immutable record; each call builds an equal, new record
FROZEN = {
    "CAState": lambda: gait_ca.CAState(5),
    "BlockParams": lambda: rocking_block.BlockParams(alpha=0.3, r=0.9, restoring_sign=True),
    "BlockState": lambda: rocking_block.BlockState(mode=rocking_block.Mode.LEFT, x1=-0.5,
                                                   x2=0.0),
    "ImpactEvent": lambda: rocking_block.ImpactEvent(1.0, 0.5, 0.45),
    "ForceInput": lambda: push_fuzzy.ForceInput(magnitude=5.0,
                                                direction=push_fuzzy.Direction.LEFT),
    "ReactionMembership": lambda: push_fuzzy.ReactionMembership(0.5, 0.5),
    "PushResponse": lambda: push_fuzzy.PushResponse(REACTION, push_fuzzy.Strategy.ANKLE, False,
                                                    {"ankle": 1.0}),
    "RangeCheckOutcome": lambda: push_fuzzy.RangeCheckOutcome("pass", "b1",
                                                              push_fuzzy.Strategy.HIP),
    "PhaseSchedule": lambda: gait_model.PhaseSchedule(gait_model.GUARD_BOUNDARIES),
    "PolynomialVectorField": lambda: gait_model.PolynomialVectorField([1, 2, 3], 0.5, [0, 1]),
    "GaitModelConfig": lambda: gait_model.GaitModelConfig(tc=0.01),
    "BoundaryGap": lambda: gait_model.BoundaryGap(0.5, gait_model.GaitPhase.LR,
                                                  gait_model.GaitPhase.MST, {"left_hip": 1.0}),
    "RangeViolation": lambda: gait_model.RangeViolation(gait_model.GaitPhase.LR, "left_hip",
                                                        3, 0.05, 40.0, -5.0, 30.0),
    "LimitCycle": lambda: gait_model.LimitCycle(np.zeros((3, 2)), 0.0),
    "TimeSeries": lambda: capture.TimeSeries(np.arange(3.0), dt=0.5),
    "TwoLinkGeometry": lambda: capture.TwoLinkGeometry(l1=5.0, l2=4.0),
    "IMF": lambda: features.IMF(np.zeros(4), 0),
    "FeatureVector": lambda: features.FeatureVector(1.0, 2.0, 0.5, -3.0, 1.5, 0.25),
    "BoxStats": lambda: features.BoxStats(1.0, 2.0, 3.0, 2.0, (), (0,)),
    "CvResult": lambda: learn.CvResult([50.0, 100.0], 75.0, 1250.0, 35.0),
    "BiometricMetrics": lambda: learn.BiometricMetrics(np.ones(2), np.zeros(2), np.zeros(2),
                                                       1.0, 0.0, 0.0),
    "AnovaResult": lambda: learn.AnovaResult(1.0, 2.0, 1, 8, 1.0, 0.25, 4.0, 0.08),
}
# those holding a dict, a list or an array cannot be hashed, as before
UNHASHABLE = {"PushResponse", "BoundaryGap", "LimitCycle", "TimeSeries", "IMF", "CvResult",
              "BiometricMetrics"}
# those holding an array equal only records that share it
HOLD_ARRAYS = {"LimitCycle", "TimeSeries", "IMF", "BiometricMetrics"}


def field_names(record) -> tuple:
    return record._fields if isinstance(record, tuple) else type(record).__slots__


@pytest.mark.parametrize("name", FROZEN)
def test_immutable_record_refuses_assignment(name):
    record = FROZEN[name]()
    field = field_names(record)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", FROZEN)
def test_immutable_record_equality_and_hash_go_by_field_values(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b
    if name in HOLD_ARRAYS:
        # a dataclass compared the arrays too, so only identical ones are equal
        assert a == copy.copy(a)
        return
    assert a == b and not a != b
    assert copy.deepcopy(a) == a
    values = tuple(getattr(a, f) for f in field_names(a))
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        # a frozen dataclass hashed the tuple of its fields
        assert hash(a) == hash(b) == hash(values)


def test_records_of_different_values_or_types_differ():
    assert gait_ca.CAState(5) != gait_ca.CAState(6)
    assert rocking_block.BlockParams(0.3) != rocking_block.BlockParams(0.3, r=0.9)
    assert gait_model.GaitModelConfig(tc=0.01) != gait_model.GaitModelConfig(tc=0.02)
    assert gait_model.GaitModelConfig() != gait_model.GaitModelConfig(
        schedule=gait_model.PhaseSchedule.percent())
    assert push_fuzzy.ReactionMembership() != push_fuzzy.ReactionMembership(large_pitch=0.5)
    # a one-field record is not its field, nor another record holding it
    assert gait_ca.CAState(5) != 5
    assert gait_model.PhaseSchedule(gait_model.GUARD_BOUNDARIES) != gait_model.GUARD_BOUNDARIES


@pytest.mark.parametrize("record, text", [
    (gait_ca.CAState(5), "CAState(code=5)"),
    (rocking_block.BlockParams(alpha=0.3), "BlockParams(alpha=0.3, r=1.0, dt=0.001, "
                                           "restoring_sign=False)"),
    (rocking_block.ImpactEvent(t=1.0, pre_velocity=0.5, post_velocity=0.45),
     "ImpactEvent(t=1.0, pre_velocity=0.5, post_velocity=0.45)"),
    (push_fuzzy.ForceInput(5.0, push_fuzzy.Direction.LEFT),
     "ForceInput(magnitude=5.0, direction=<Direction.LEFT: 'left'>)"),
    (REACTION, "ReactionMembership(small_roll=1.0, average_roll=0.0, large_roll=0.0, "
               "small_pitch=0.0, average_pitch=0.0, large_pitch=0.0)"),
    (push_fuzzy.RangeCheckOutcome("unmatched"),
     "RangeCheckOutcome(status='unmatched', band=None, expected=None)"),
    (gait_model.GaitModelConfig(tc=0.5),
     "GaitModelConfig(tc=0.5, schedule=PhaseSchedule(boundaries=(0.5, 0.733, 0.9833, "
     "1.1167, 1.2667, 1.4333, 1.6)))"),
    (FIELD, "PolynomialVectorField(coefficients=(1.0, 2.0, 3.0), error_offset=0.5, "
            "valid_interval=(0.0, 1.0))"),
    (gait_model.RangeViolation(gait_model.GaitPhase.LR, "left_hip", 3, 0.05, 40.0, -5.0, 30.0),
     "RangeViolation(phase=<GaitPhase.LR: 0>, joint='left_hip', index=3, x=0.05, "
     "angle=40.0, lo=-5.0, hi=30.0)"),
    (rocking_block.BlockTrace(array("d"), bytearray(), array("d"), array("d"), []),
     "BlockTrace(t=array('d'), mode=bytearray(b''), x1=array('d'), x2=array('d'), "
     "impacts=[], status='completed')"),
    (capture.TwoLinkGeometry(), "TwoLinkGeometry(l1=5.0, l2=4.0)"),
    (features.FeatureVector(1.0, 2.0, 0.5, -3.0, 1.5, 0.25),
     "FeatureVector(min=1.0, max=2.0, shannon_entropy=0.5, log_energy=-3.0, rms=1.5, "
     "zcr=0.25)"),
    (learn.CvResult([50.0, 100.0], 75.0, 1250.0, 35.0),
     "CvResult(fold_accuracies=[50.0, 100.0], mean=75.0, variance=1250.0, sigma=35.0)"),
])
def test_record_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_checked_records_keep_their_checks():
    with pytest.raises(ValueError, match="code must be a 4-bit value, got 16"):
        gait_ca.CAState(16)
    with pytest.raises(ValueError, match="dt must be finite and positive, got nan"):
        rocking_block.BlockParams(alpha=0.3, dt=math.nan)
    with pytest.raises(ValueError, match="force magnitude must be finite and >= 0"):
        push_fuzzy.ForceInput(magnitude=-1.0, direction=push_fuzzy.Direction.LEFT)
    with pytest.raises(ValueError, match=r"large_pitch degree 2 outside \[0, 1\]"):
        push_fuzzy.ReactionMembership(large_pitch=2)
    with pytest.raises(ValueError, match="expected 7 boundaries, got 6"):
        gait_model.PhaseSchedule(gait_model.GUARD_BOUNDARIES[:-1])
    with pytest.raises(ValueError, match=r"invalid interval \[1.0, 0.0\]"):
        gait_model.PolynomialVectorField((1.0, 2.0, 3.0), valid_interval=(1.0, 0.0))
    with pytest.raises(ValueError, match="tc must be finite and strictly positive, got 0.0"):
        gait_model.GaitModelConfig(tc=0.0)
    with pytest.raises(ValueError, match="sample period must be positive"):
        capture.TimeSeries([1.0], dt=0.0)
    with pytest.raises(ValueError, match="series values must be finite"):
        capture.TimeSeries([1.0, math.inf])
    with pytest.raises(ValueError, match="link lengths must be finite and positive, got 0.0, 4.0"):
        capture.TwoLinkGeometry(l1=0.0)
    with pytest.raises(ValueError, match=r"features must be \(n, d\) with one label per row"):
        learn.Dataset([[1.0], [2.0]], [0], ("a",))
    with pytest.raises(ValueError, match="labels must index class_names"):
        learn.Dataset([[1.0]], [1], ("a",))
    with pytest.raises(ValueError, match="weight/bias shapes inconsistent with layer sizes"):
        learn.MlpModel((2, 1), [np.zeros((1, 2))], [np.zeros(1)])
    with pytest.raises(ValueError, match="confusion matrix must be square"):
        learn.ConfusionMatrix([[1, 2]])
    with pytest.raises(ValueError, match="counts must be non-negative"):
        learn.ConfusionMatrix([[-1]])
    # copies rebuild through the checks too
    assert copy.deepcopy(FIELD) == FIELD


def test_result_records_stay_mutable():
    bank = gait_model.FieldBank.default()
    traj = gait_model.generate_gait_cycle(bank)
    report = gait_model.validate_ranges(traj)
    trace = rocking_block.simulate(FROZEN["BlockState"](), FROZEN["BlockParams"](), 0.01)
    data = learn.Dataset([[1.0], [2.0]], [0, 1], ("a", "b"))
    model = learn.mlp_init((1, 2), seed=0)
    # one count, so that comparing the arrays gives a single truth value
    cm = learn.ConfusionMatrix([[3]])
    for record, field, value in ((traj, "tc", 0.5), (report, "checked", 0),
                                 (trace, "status", "at_rest"), (data, "class_names", ("b", "a")),
                                 (model, "layers", (1, 3)), (cm, "counts", np.array([[4]]))):
        twin = copy.copy(record)
        assert twin == record and twin is not record
        setattr(record, field, value)
        assert getattr(record, field) == value and twin != record
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert gait_model.JointTrajectorySet(traj.x, traj.angles, traj.tc,
                                         traj.schedule).boundary_report == []
