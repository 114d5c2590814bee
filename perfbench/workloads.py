"""Seeded workloads: the inputs each one generates, its scripted verb list,
and the check every invocation's output must pass.

A workload's ``setup(seed, work)`` writes its input files into ``work`` and
returns a :class:`Script`. The seed changes input values and argument
values, never the shape of the work, so that every seed costs about the
same and run-to-run spread measures the machine, not the inputs.

Checks compare against in-process calls into the package where an
independent answer is cheap (the push verdict, the CA sequence, the fold
accuracies, the block trace) and otherwise check file shape: header, row
count and finite numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Outcome:
    """What one verb invocation produced."""

    rc: int
    stdout: str
    stderr: str


@dataclass
class Invocation:
    argv: list[str]
    outputs: list[str]                          # files written, relative to the work dir
    check: Callable[[Outcome, Path], list[str]]  # returns the problems found
    rc: int = 0                                 # expected exit status


@dataclass
class Script:
    warmup: Invocation
    invocations: list[Invocation]
    inputs: list[str] = field(default_factory=list)


def _round6(obj):
    """The CLI's JSON rounding: floats to six decimals, recursively."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _table(path: Path, header: str, rows: int | None, numeric: range | list[int],
           sep: str = ",") -> list[str]:
    """Check a delimited text file: exact header, row count, finite numbers."""
    if not path.is_file():
        return [f"{path.name}: not written"]
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    if rows is not None and len(lines) - 1 != rows:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(sep)
        try:
            ok = all(math.isfinite(float(parts[i])) for i in numeric)
        except (ValueError, IndexError):
            ok = False
        if not ok:
            problems.append(f"{path.name}: line {lineno}: non-finite or missing number")
            break
    return problems


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# Checks, one factory per verb
# ---------------------------------------------------------------------------

def push_check(magnitude: float, direction: str, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        from gaitforge import push_fuzzy
        try:
            doc = push_fuzzy.recover(push_fuzzy.ForceInput(
                magnitude=magnitude, direction=push_fuzzy.Direction(direction))).as_dict()
        except push_fuzzy.RecoveryImpossible as exc:
            doc = {"recovery_impossible": True, "reason": str(exc)}
        want = _round6(doc)
        try:
            printed = json.loads(o.stdout)
            written = json.loads((work / out).read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            return [f"push: unreadable verdict: {exc}"]
        return _expect("push stdout", printed, want) + _expect("push --out", written, want)
    return check


def ca_check(init: str, n: int, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        from gaitforge import gait_ca
        state = gait_ca.CAState.from_bits(init)
        seq = [state]
        for _ in range(n - 1):
            state = gait_ca.next_state(state)
            seq.append(state)
        want = " ".join(s.bits for s in seq) + "\n"
        path = work / out
        written = path.read_text(encoding="utf-8") if path.is_file() else None
        return _expect("ca-predict stdout", o.stdout, want) + _expect("ca-predict --out", written, want)
    return check


# The documented file formats (README), kept here rather than read from the
# package so that a refactor inside the package cannot move the goalposts.
JOINT_KEYS = ("left_hip", "right_hip", "left_knee", "right_knee", "left_ankle", "right_ankle")
FEATURE_NAMES = ("min", "max", "shannon_entropy", "log_energy", "rms", "zcr")
CYCLE_LENGTH = 1.6    # both schedule presets end the cycle here


def samples(tc: float) -> int:
    """Grid points of one cycle at step tc: 96 at the default tc, 16,001 at 1e-4."""
    return int(math.floor(CYCLE_LENGTH / tc)) + 1


def gen_gait_check(tc: float, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        n = samples(tc)
        header = "time\t" + "\t".join(JOINT_KEYS)
        problems = _table(work / out, header, n, range(7), sep="\t")
        first = o.stdout.splitlines()[:1]
        problems += _expect("gen-gait stdout", first, [f"wrote {n} samples to {out}"])
        try:
            report = json.loads((work / (out + ".report.json")).read_text(encoding="utf-8"))
            problems += _expect("gen-gait boundaries", len(report["boundaries"]), 7)
        except (ValueError, OSError, KeyError) as exc:
            problems.append(f"gen-gait report: {exc}")
        return problems
    return check


def block_check(alpha: float, r: float, x1: float, t_end: float, restoring: bool, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        from gaitforge import rocking_block as rb
        trace = rb.simulate(
            rb.BlockState(mode=rb.Mode.LEFT, x1=x1, x2=0.0),
            rb.BlockParams(alpha=alpha, r=r, restoring_sign=restoring), t_end)
        want = (f"{len(trace.states)} states, {len(trace.impacts)} impacts, "
                f"status {trace.status}; wrote {out}\n")
        return (_expect("simulate-block stdout", o.stdout, want)
                + _table(work / out, "t,mode,x1,x2,event", len(trace.states), [0, 2, 3, 4]))
    return check


def missing_input_check(path: str, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        problems = _expect("missing-input stderr", o.stderr, f"error: input not found: {path}\n")
        if (work / out).exists():
            problems.append(f"{out}: written despite missing input")
        return problems
    return check


def ingest_check(rows: int, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        return (_expect("ingest stdout", o.stdout, f"wrote {rows} joint-angle rows to {out}\n")
                + _table(work / out, "t,theta1_deg,theta2_deg", rows, range(3)))
    return check


def features_check(label: str, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        header = "subject,joint,imf_index," + ",".join(FEATURE_NAMES) + ",label"
        path = work / out
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        problems = _table(path, header, None, range(2, 9))
        problems += _expect("features stdout", o.stdout,
                            f"wrote {len(lines) - 1} feature rows to {out}\n")
        if len(lines) < 2:
            problems.append("features: no IMF rows")
        if any(line.rsplit(",", 1)[-1] != label for line in lines[1:]):
            problems.append(f"features: label column is not {label!r}")
        return problems
    return check


def classify_check(train, test, k: int, out: str):
    """``train`` and ``test`` are (features, labels, class_names) as generated."""
    def check(o: Outcome, work: Path) -> list[str]:
        from gaitforge import learn
        tr, te = learn.Dataset(*train), learn.Dataset(*test)
        preds = learn.knn_trainer(k)(tr)(te.features)
        cm, _, error = learn.confusion_and_accuracy(preds, te.labels, tr.n_classes)
        try:
            doc = json.loads((work / out).read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            return [f"classify: unreadable report: {exc}"]
        return (_expect("classify confusion", doc.get("confusion"), cm.counts.tolist())
                + _expect("classify error", doc.get("overall_error"), round(error, 6))
                + _expect("classify stdout", o.stdout,
                          f"overall error {error:.6f}; wrote {out}\n"))
    return check


def cv_check(data, epochs: int, seed: int, folds: int, out: str):
    def check(o: Outcome, work: Path) -> list[str]:
        from gaitforge import learn
        ds = learn.Dataset(*data)
        mlp = learn.kfold_cv(ds, learn.mlp_trainer(None, eta=0.5, epochs=epochs, seed=seed),
                             folds=folds, seed=seed)
        knn = learn.kfold_cv(ds, learn.knn_trainer(3), folds=folds, seed=seed)
        try:
            doc = json.loads((work / out).read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            return [f"cv: unreadable report: {exc}"]
        accs = " ".join(f"{a:.6f}" for a in mlp.fold_accuracies)
        return (_expect("cv folds", doc.get("fold_accuracies"), _round6(mlp.fold_accuracies))
                + _expect("cv baseline folds", doc.get("baseline", {}).get("fold_accuracies"),
                          _round6(knn.fold_accuracies))
                + _expect("cv anova", "anova" in doc, True)
                + _expect("cv stdout", o.stdout.splitlines()[:1], [f"fold accuracies: {accs}"]))
    return check


def plot_data_check(tc: float, stride: int, outdir: str):
    def check(o: Outcome, work: Path) -> list[str]:
        n = samples(tc)
        d = work / outdir
        problems = _expect("plot-data stdout", o.stdout, f"wrote plot data to {outdir}\n")
        for jkey in JOINT_KEYS:
            problems += _table(d / f"limit_cycle_{jkey}.csv", "angle,velocity", n, range(2))
        frames = len(range(0, n, stride))
        for side in ("left", "right"):
            problems += _table(d / f"stick_{side}.csv", "x,y", 3 * frames, range(2))
        problems += _table(d / "box_stats.csv", "imf_index,value", None, range(2))
        return problems
    return check


def _plot_files(outdir: str) -> list[str]:
    names = [f"limit_cycle_{jkey}.csv" for jkey in JOINT_KEYS]
    names += ["stick_left.csv", "stick_right.csv", "box_stats.csv"]
    return [f"{outdir}/{name}" for name in names]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

DIRECTIONS = ("left", "right", "forward", "backward")


def cli_short(seed: int, work: Path) -> Script:
    """Cheap verbs whose cost is interpreter start and imports."""
    rng = np.random.default_rng(seed)
    inv: list[Invocation] = []
    # one push per direction; one of them beyond the 12 N envelope
    magnitudes = rng.uniform(0.0, 14.0, size=4)
    magnitudes[rng.integers(4)] = rng.uniform(12.5, 14.0)
    for i, (d, m) in enumerate(zip(DIRECTIONS, magnitudes)):
        force = float(f"{m:.4f}")
        out = f"push{i}.json"
        inv.append(Invocation(["push", "--force", f"{force:.4f}", "--dir", d, "--out", out],
                              [out], push_check(force, d, out)))
    for i in range(2):
        init = format(int(rng.integers(16)), "04b")
        n = int(rng.integers(1, 17))
        out = f"ca{i}.txt"
        inv.append(Invocation(["ca-predict", "--init", init, "--n", str(n), "--out", out],
                              [out], ca_check(init, n, out)))
    schedule = str(rng.choice(["guard", "percent"]))
    inv.append(Invocation(["gen-gait", "--schedule", schedule, "--out", "cycle.tsv"],
                          ["cycle.tsv", "cycle.tsv.report.json"],
                          gen_gait_check(0.0167, "cycle.tsv")))
    alpha, r = round(rng.uniform(0.25, 0.35), 4), round(rng.uniform(0.8, 0.95), 4)
    x1, t_end = round(rng.uniform(-0.6, -0.4), 4), round(rng.uniform(1.0, 5.0), 3)
    restoring = bool(rng.integers(2))
    argv = ["simulate-block", "--alpha", str(alpha), "--r", str(r), "--x1", str(x1),
            "--t-end", str(t_end), "--out", "block.csv"] + (["--restoring"] if restoring else [])
    inv.append(Invocation(argv, ["block.csv"],
                          block_check(alpha, r, x1, t_end, restoring, "block.csv")))
    # the README's documented missing-input case
    verb = str(rng.choice(["ingest", "features"]))
    missing = f"absent_{int(rng.integers(10**6))}.csv"
    inv.append(Invocation([verb, "--in", missing, "--out", "never.csv"], [],
                          missing_input_check(missing, "never.csv"), rc=2))
    order = rng.permutation(len(inv))
    warmup = Invocation(["ca-predict", "--init", "0000", "--n", "4", "--out", "warmup.txt"],
                        ["warmup.txt"], ca_check("0000", 4, "warmup.txt"))
    return Script(warmup, [inv[i] for i in order])


def gait_dense(seed: int, work: Path) -> Script:
    """Fine-grid generation and long block runs: per-sample Python loops and
    big file writes outweigh start-up."""
    rng = np.random.default_rng(seed)
    tc = 1e-4
    inv: list[Invocation] = []
    for schedule in ("guard", "percent"):
        for fade in (False, True):
            out = f"cycle_{schedule}{'_fade' if fade else ''}.tsv"
            inv.append(Invocation(
                ["gen-gait", "--schedule", schedule, "--tc", str(tc), "--out", out]
                + (["--cross-fade"] if fade else []),
                [out, out + ".report.json"], gen_gait_check(tc, out)))
    stride = int(rng.integers(4, 13))
    inv.append(Invocation(
        ["plot-data", "--tc", "0.001", "--frame-stride", str(stride), "--out-dir", "plots"],
        _plot_files("plots"), plot_data_check(0.001, stride, "plots")))
    # the verbatim equations run all 60 s; the restoring sign comes to rest
    for restoring, spread in ((False, 0.1), (True, 0.02)):
        x1 = round(-0.5 + rng.uniform(-spread, spread), 4)
        out = "block_restoring.csv" if restoring else "block.csv"
        inv.append(Invocation(
            ["simulate-block", "--t-end", "60", "--x1", str(x1), "--out", out]
            + (["--restoring"] if restoring else []),
            [out], block_check(0.3, 0.9, x1, 60.0, restoring, out)))
    order = rng.permutation(len(inv))
    warmup = Invocation(["gen-gait", "--out", "warmup.tsv"],
                        ["warmup.tsv", "warmup.tsv.report.json"],
                        gen_gait_check(0.0167, "warmup.tsv"))
    return Script(warmup, [inv[i] for i in order])


CLASSES = ("normal", "antalgic", "ataxic", "parkinsonian")
ACCEL_ROWS = 20_000


def _write_accelerometer(rng, path: Path) -> None:
    """A phone export of a swinging two-link leg, every point inside the
    reach of the default 5/4 links (radius 1..9) with margin."""
    t = np.arange(ACCEL_ROWS) * 0.01
    f = rng.uniform(0.9, 1.1)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    rho = (5.5 + 1.5 * np.sin(2 * math.pi * f * t + p1)
           + 0.3 * np.sin(2 * math.pi * 3.1 * f * t) + rng.normal(0.0, 0.02, ACCEL_ROWS))
    phi = -math.pi / 2 + 0.5 * np.sin(math.pi * f * t + p2)
    z = 9.81 + rng.normal(0.0, 0.05, ACCEL_ROWS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n")
        for row in zip(t, rho * np.cos(phi), rho * np.sin(phi), z):
            fh.write("%.4f,%.6f,%.6f,%.6f\n" % row)


def _dataset(rng, means, per_class: int):
    """Gaussian classes around ``means``; the first rows take the classes in
    order so the CSV's first-appearance class order is ``CLASSES``."""
    labels = np.concatenate([np.arange(len(CLASSES)),
                             rng.permutation(np.repeat(np.arange(len(CLASSES)), per_class - 1))])
    raw = means[labels] + rng.normal(0.0, 1.0, (len(labels), means.shape[1]))
    # exactly the values the CLI parses back from the six-decimal CSV
    feats = np.array([[float(f"{v:.6f}") for v in row] for row in raw])
    return feats, labels, CLASSES


def _write_dataset(data, path: Path) -> None:
    feats, labels, names = data
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{i}" for i in range(feats.shape[1])) + ",label\n")
        for row, lab in zip(feats, labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{names[lab]}\n")


def signal_learn(seed: int, work: Path) -> Script:
    """Sensor export to verdict: CSV parsing, IK, EMD and per-sample MLP SGD."""
    rng = np.random.default_rng(seed)
    _write_accelerometer(rng, work / "accel.csv")
    means = rng.normal(0.0, 1.5, (len(CLASSES), 6))
    train, test = _dataset(rng, means, 50), _dataset(rng, means, 25)
    _write_dataset(train, work / "train.csv")
    _write_dataset(test, work / "test.csv")
    label = str(rng.choice(CLASSES))
    k = int(rng.choice([3, 5]))
    epochs, cv_seed = 40, int(rng.integers(1000))
    inv = [
        Invocation(["ingest", "--in", "accel.csv", "--out", "angles_alg1.csv"],
                   ["angles_alg1.csv"], ingest_check(ACCEL_ROWS, "angles_alg1.csv")),
        Invocation(["ingest", "--in", "accel.csv", "--ik", "exact", "--smooth", "spline",
                    "--out", "angles.csv"], ["angles.csv"], ingest_check(ACCEL_ROWS, "angles.csv")),
        Invocation(["features", "--in", "angles.csv", "--label", label, "--out", "features.csv"],
                   ["features.csv"], features_check(label, "features.csv")),
        Invocation(["classify", "--train", "train.csv", "--test", "test.csv", "--method", "knn",
                    "--k", str(k), "--out", "classify.json"],
                   ["classify.json"], classify_check(train, test, k, "classify.json")),
        Invocation(["cv", "--data", "train.csv", "--method", "mlp", "--baseline", "knn",
                    "--epochs", str(epochs), "--seed", str(cv_seed), "--out", "cv.json"],
                   ["cv.json"], cv_check(train, epochs, cv_seed, 5, "cv.json")),
    ]
    warmup = Invocation(["ingest", "--in", "accel.csv", "--out", "warmup.csv"],
                        ["warmup.csv"], ingest_check(ACCEL_ROWS, "warmup.csv"))
    return Script(warmup, inv, inputs=["accel.csv", "train.csv", "test.csv"])


WORKLOADS = {"cli_short": cli_short, "gait_dense": gait_dense, "signal_learn": signal_learn}
