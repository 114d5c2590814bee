"""Batch command-line front end.

One verb per capability; every verb is deterministic given its inputs and
seed, so re-runs are byte-identical. Numeric output uses six decimal
places. Bad input (a missing or malformed file, an out-of-range argument,
or anything argparse rejects: a non-number, a bad choice, a missing or
unknown option or verb) exits with status 2 and a one-line ``error:``
message, line-numbered where one applies, and no usage text; ``--help``
still prints usage. An option whose ``type=`` checks its value is checked as
it is parsed, so the first such bad option on the command line is reported.
The library checks the rest when the verb runs, in the verb's own order:
``simulate-block``'s ``--alpha``, ``--r``, ``--dt``, ``--x1``, ``--x2`` and
``--t-end``, ``ca-predict``'s ``--init`` and ``--n``, ``push --force`` and
``--tc``. So ``simulate-block --dt 0 --alpha 5`` reports ``--alpha``.
A verb that exits with status 2 writes nothing: it computes every output
before it writes the first. The exception is a write that fails partway,
such as on a full disk or where an output path is a directory.

Each verb imports the library modules it runs and no others, so a cheap
verb does not pay the start-up cost of an expensive one: ``push``,
``ca-predict``, ``simulate-block`` and ``gen-gait`` start on bare Python,
without ``inspect``, ``pathlib`` or ``importlib.resources`` either; the
rest load numpy, and report a missing input before they do. No verb needs
scipy, and none loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .fixtures import fixture_path
from .tables import json_text, read_table, write_json, write_rows

if TYPE_CHECKING:
    from . import gait_model


class InputError(Exception):
    """Bad or missing input: reported on stderr, exit code 2.

    :func:`main` treats a ``ValueError`` from the library the same way;
    :func:`_blame` re-raises a library fault as this one, to name the option
    or file at fault.
    """


def _open_inputs(*paths) -> None:
    """Open and close each input path, so that a missing one is reported as
    ``input not found`` before the verb loads numpy or reads anything."""
    for path in paths:
        try:
            open(path, "rb").close()
        except FileNotFoundError:
            raise InputError(f"input not found: {path}") from None


# push --dir: the values of push_fuzzy.Direction, spelled out so that building
# the parser does not load push_fuzzy
PUSH_DIRECTIONS = ("left", "right", "forward", "backward")

# features.MAX_BINS, spelled out so that checking --bins does not load numpy
MAX_BINS = 1_000_000

# ingest --l1/--l2: lengths whose squares are normal floats, with room for the
# sum of two, so the inverse kinematics neither overflows nor divides by an
# underflowed zero on the lengths' account
LINK_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max) / 2.0)


class _Parser(argparse.ArgumentParser):
    """Raise what argparse rejects, so :func:`main` reports it like any other
    bad input; subparsers inherit this through ``add_subparsers``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a private argparse attribute: take any "-" before a digit, before
        # "." and a digit, or before "inf" or "nan" in any case, as a negative
        # number, so that "--x1 -5e-1" and "--x1 -inf" are values and not
        # unknown options
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise InputError(message.removeprefix("argument "))


def _checked(convert, ok, rule: str):
    """An option type: ``convert`` the text, then require ``ok(value)``.
    argparse prefixes the option name to the ``rule`` message."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    parse.__name__ = convert.__name__   # argparse's "invalid int value: 'abc'"
    return parse


def _at_least(low: int):
    return _checked(int, lambda value: value >= low, f"must be >= {low}")


@contextmanager
def _blame(prefix: str, errors=ValueError):
    """Re-raise a library fault of type ``errors`` as ``InputError(f"{prefix}:
    {exc}")``, where ``prefix`` names the option or file behind it."""
    try:
        yield
    except errors as exc:
        raise InputError(f"{prefix}: {exc}") from exc


def _path(text: str) -> str:
    # an empty value is an error, not an absent option
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _field(text: str) -> str:
    # --label and --subject go into every features row unquoted
    if set(text) & set(',"\r\n'):
        raise argparse.ArgumentTypeError(f"{text!r} may not contain , \" CR or LF")
    return text


def _load_bank(path: str | None) -> gait_model.FieldBank:
    from . import gait_model

    if path is None:
        return gait_model.FieldBank.default()
    _open_inputs(path)
    return read_table(path, "model bank", gait_model.FieldBank.from_dict)


def _gait_config(args) -> gait_model.GaitModelConfig:
    from . import gait_model

    schedule = gait_model.PhaseSchedule.preset(args.schedule)
    tc = gait_model.DEFAULT_TC if args.tc is None else args.tc
    with _blame("--tc"):
        return gait_model.GaitModelConfig(tc=tc, schedule=schedule)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_gen_gait(args) -> int:
    from . import gait_model

    bank = _load_bank(args.model_bank)
    config = _gait_config(args)
    traj = gait_model.generate_gait_cycle(bank, config, cross_fade=args.cross_fade)
    validation = gait_model.validate_ranges(traj)
    traj.write_tsv(args.out)
    report = {
        "boundaries": [
            {
                "x": gap.x,
                "from": gap.from_phase.name,
                "to": gap.to_phase.name,
                "gaps": dict(gap.gaps),
            }
            for gap in traj.boundary_report
        ]
    }
    write_json(args.out + ".report.json", report)
    print(f"wrote {len(traj)} samples to {args.out}")
    print("range check:", validation.summary())
    return 0


def cmd_simulate_block(args) -> int:
    from . import rocking_block

    params = rocking_block.BlockParams(
        alpha=args.alpha, r=args.r, dt=args.dt, restoring_sign=args.restoring,
    )
    init = rocking_block.BlockState(
        mode=rocking_block.Mode(args.mode), x1=args.x1, x2=args.x2,
    )
    with _blame("simulation failed", (rocking_block.DivergenceError, rocking_block.ZenoError)):
        trace = rocking_block.simulate(init, params, args.t_end)
    trace.write_csv(args.out)
    print(f"{len(trace.states)} states, {len(trace.impacts)} impacts, "
          f"status {trace.status}; wrote {args.out}")
    return 0


def cmd_ca_predict(args) -> int:
    from . import gait_ca

    init = gait_ca.CAState.from_bits(args.init)
    seq = gait_ca.predict_sequence(init, args.n)
    line = " ".join(s.bits for s in seq)
    print(line)
    if args.out is not None:
        write_rows(args.out, None, "%s", [(line,)])
    return 0


def cmd_ingest(args) -> int:
    _open_inputs(args.infile)
    import numpy as np

    from . import capture

    series = capture.load_accelerometer_csv(args.infile)
    xs, ys = series["x"], series["y"]
    if args.zero_correct:
        xs, ys = capture.zero_correct(xs), capture.zero_correct(ys)
    if args.smooth == "moving-average":
        xs, ys = capture.smooth_moving_average(xs), capture.smooth_moving_average(ys)
    elif args.smooth == "spline":
        xs = capture.smooth_cubic_spline(xs, knot_stride=args.knot_stride)
        ys = capture.smooth_cubic_spline(ys, knot_stride=args.knot_stride)
    geom = capture.TwoLinkGeometry(l1=args.l1, l2=args.l2)
    if args.ik == "alg1":
        with _blame(args.infile):
            t1, t2 = capture.ik_alg1_batch(xs, ys, geom)
        theta1, theta2 = t1.values, t2.values
    else:
        pairs = []
        for i, (x, y) in enumerate(zip(xs.values, ys.values)):
            try:
                pairs.append(
                    capture.ik_two_link(float(x), float(y), geom, elbow=args.elbow)
                )
            except capture.UnreachableError as exc:
                raise InputError(f"{args.infile}: data row {i + 1}: {exc}") from exc
        theta1 = np.array([p[0] for p in pairs])
        theta2 = np.array([p[1] for p in pairs])
    t = xs.times
    capture.write_joint_angle_csv(
        args.out, t, np.degrees(theta1), np.degrees(theta2)
    )
    print(f"wrote {len(t)} joint-angle rows to {args.out}")
    return 0


def cmd_features(args) -> int:
    _open_inputs(args.infile)
    from . import capture, features

    t, th1, th2 = capture.load_joint_angle_csv(args.infile)
    rows = []
    for joint, series in (("theta1", th1), ("theta2", th2)):
        with _blame(args.infile):
            imfs, _ = features.emd_decompose(series, max_imfs=args.max_imfs)
        for imf in imfs:
            fv = features.feature_vector(imf.values, bins=args.bins)
            rows.append((args.subject, joint, imf.index, fv, args.label))
    features.write_feature_matrix_csv(args.out, rows)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def _metrics_report(cm, per_class, error, class_names) -> dict:
    from . import learn

    bio = learn.biometric_metrics(cm)
    return {
        "class_names": list(class_names),
        "confusion": cm.counts.tolist(),
        "per_class_acc": [float(a) for a in per_class],
        "overall_error": error,
        "tar": bio.tar, "far": bio.far, "frr": bio.frr,
        "per_class_tar": [float(v) for v in bio.per_class_tar],
        "per_class_far": [float(v) for v in bio.per_class_far],
        "per_class_frr": [float(v) for v in bio.per_class_frr],
    }


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        layers = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of sizes") from None
    if min(layers) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {text!r}")
    return layers


def _make_trainer(args, method: str):
    """The ``method`` trainer from the parsed options."""
    from . import learn

    if method == "knn":
        return learn.knn_trainer(args.k)
    return learn.mlp_trainer(args.layers, eta=args.eta, epochs=args.epochs, seed=args.seed)


def cmd_classify(args) -> int:
    _open_inputs(args.train, args.test)
    import numpy as np

    from . import learn

    trainer = _make_trainer(args, args.method)
    train = learn.Dataset.from_csv(args.train)
    test = learn.Dataset.from_csv(args.test)
    if test.features.shape[1] != train.features.shape[1]:
        raise InputError(f"{args.test}: {test.features.shape[1]} feature columns, "
                         f"but {args.train} has {train.features.shape[1]}")
    # align test labels onto the training class order
    mapping = {name: i for i, name in enumerate(train.class_names)}
    try:
        relabeled = np.array([mapping[test.class_names[l]] for l in test.labels])
    except KeyError as exc:
        raise InputError(f"{args.test}: class {exc} is not in {args.train}") from exc
    test = learn.Dataset(test.features, relabeled, train.class_names)
    with _blame("--layers", learn.WeightLimitError):
        predict = trainer(train)
    preds = predict(test.features)
    cm, per_class, error = learn.confusion_and_accuracy(
        preds, test.labels, train.n_classes
    )
    report = _metrics_report(cm, per_class, error, train.class_names)
    write_json(args.out, report)
    print(f"overall error {error:.6f}; wrote {args.out}")
    return 0


def cmd_cv(args) -> int:
    path = fixture_path("synthetic_gait_features.csv") if args.data is None else args.data
    _open_inputs(path)
    from . import learn

    data = learn.Dataset.from_csv(path)
    with _blame("--layers", learn.WeightLimitError):
        result = learn.kfold_cv(data, _make_trainer(args, args.method),
                                folds=args.folds, seed=args.seed)
    report = {"folds": args.folds, "method": args.method, **result._asdict()}
    if args.baseline:
        with _blame("--layers", learn.WeightLimitError):
            baseline = learn.kfold_cv(data, _make_trainer(args, args.baseline),
                                      folds=args.folds, seed=args.seed)
        anova = learn.anova_single_factor(
            [result.fold_accuracies, baseline.fold_accuracies]
        )
        report["baseline"] = {"method": args.baseline, **baseline._asdict()}
        report["anova"] = anova.as_dict()
    if args.out is not None:
        write_json(args.out, report)
    accs = " ".join(f"{a:.6f}" for a in result.fold_accuracies)
    print(f"fold accuracies: {accs}")
    print(f"mean {result.mean:.6f} sigma {result.sigma:.6f}")
    return 0


def cmd_push(args) -> int:
    from . import push_fuzzy

    push = push_fuzzy.ForceInput(
        magnitude=args.force, direction=push_fuzzy.Direction(args.dir)
    )
    try:
        doc = push_fuzzy.recover(push).as_dict()
    except push_fuzzy.RecoveryImpossible as exc:
        doc = {"recovery_impossible": True, "reason": str(exc)}
    print(json_text(doc))
    if args.out is not None:
        write_json(args.out, doc)
    return 0


def cmd_plot_data(args) -> int:
    from . import gait_model

    config = _gait_config(args)
    bank = _load_bank(args.model_bank)
    import numpy as np

    from . import capture, features

    traj = gait_model.generate_gait_cycle(bank, config)
    # limit_cycle needs 3 samples and emd_decompose 4; on a generated cycle a
    # too-short grid is the only ValueError either raises, so --tc is at fault
    with _blame("--tc"):
        cycles = [gait_model.limit_cycle(traj, jkey) for jkey in gait_model.JOINT_KEYS]
        imfs, _ = features.emd_decompose(traj.angles["left_hip"])

    # each output is (name, header, row format, rows); phase portraits first,
    # one file per joint
    outputs = [(f"limit_cycle_{jkey}.csv", "angle,velocity", "%.6f,%.6f", cycle.points.tolist())
               for jkey, cycle in zip(gait_model.JOINT_KEYS, cycles)]

    # stick-figure frames from hip/knee angles via forward kinematics
    geom = capture.TwoLinkGeometry(l1=gait_model.LINK_LENGTH, l2=gait_model.LINK_LENGTH)
    for side in ("left", "right"):
        hips = np.radians(traj.angles[f"{side}_hip"])
        knees = np.radians(traj.angles[f"{side}_knee"])
        points = []
        for i in range(0, len(traj), args.frame_stride):
            # hang the leg from the hip: 0 degrees points straight down
            t1 = hips[i] - np.pi / 2.0
            elbow, tip = capture.fk_two_link(float(t1), float(knees[i]), geom)
            points += [(0.0, 0.0), elbow, tip]
        outputs.append((f"stick_{side}.csv", "x,y", "%.6f,%.6f", points))

    # box-plot statistics of each trajectory IMF
    stats = []
    for imf in imfs:
        q = features.quartile_stats(imf.values)
        stats += [(imf.index, value) for value in (q.q1 - 1.5 * q.iqr, q.q1, q.q2,
                                                   q.q3, q.q3 + 1.5 * q.iqr)]
    outputs.append(("box_stats.csv", "imf_index,value", "%d,%.6f", stats))

    # every file's rows exist before the directory is made, so a fault above
    # leaves no half-filled directory
    os.makedirs(args.out_dir, exist_ok=True)
    for name, header, row_format, rows in outputs:
        write_rows(os.path.join(args.out_dir, name), header, row_format, rows)
    print(f"wrote plot data to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaitforge",
        description="Batch gait modeling, simulation, classification, and push recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gait_args(p):
        p.add_argument("--model-bank", type=_path, help="bank JSON (default: bundled tables)")
        p.add_argument("--schedule", choices=("guard", "percent"), default="guard")
        p.add_argument("--tc", type=float,
                       help="grid step (default: gait_model.DEFAULT_TC)")

    p = sub.add_parser("gen-gait", help="generate a full six-joint gait cycle")
    add_gait_args(p)
    p.add_argument("--cross-fade", action="store_true")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_gen_gait)

    p = sub.add_parser("simulate-block", help="rocking-block simulation with impacts")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--r", type=float, default=0.9)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--x1", type=float, default=-0.5)
    p.add_argument("--x2", type=float, default=0.0)
    p.add_argument("--mode", choices=("left", "right"), default="left")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--restoring", action="store_true",
                   help="flip the right-mode acceleration sign")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_simulate_block)

    p = sub.add_parser("ca-predict", help="iterate the gait-state rule table")
    p.add_argument("--init", required=True, metavar="BITS")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_ca_predict)

    p = sub.add_parser("ingest", help="accelerometer CSV to joint angles")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    lo, hi = LINK_RANGE
    link = _checked(float, lambda value: lo <= value <= hi,
                    f"must lie in [{lo:.6g}, {hi:.6g}]")
    p.add_argument("--l1", type=link, default=5.0)
    p.add_argument("--l2", type=link, default=4.0)
    p.add_argument("--ik", choices=("alg1", "exact"), default="alg1")
    p.add_argument("--elbow", choices=("down", "up"), default="down",
                   help="knee-bend branch for --ik exact")
    p.add_argument("--smooth", choices=("none", "moving-average", "spline"),
                   default="none")
    p.add_argument("--knot-stride", type=_at_least(1), default=5,
                   help="spline smoother keeps every Nth sample as a knot")
    p.add_argument("--zero-correct", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="EMD features from a joint-angle CSV")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.add_argument("--label", type=_field, default="unlabeled")
    p.add_argument("--subject", type=_field, default="s1")
    p.add_argument("--max-imfs", type=_at_least(1), default=6)
    p.add_argument("--bins", type=_checked(int, lambda value: 1 <= value <= MAX_BINS,
                                           f"must lie in [1, {MAX_BINS}]"), default=16)
    p.set_defaults(func=cmd_features)

    def add_trainer_args(p):
        p.add_argument("--method", choices=("knn", "mlp"), default="knn")
        p.add_argument("--k", type=_at_least(1), default=3)
        p.add_argument("--layers", type=_parse_layers, help="comma-separated MLP layer sizes")
        p.add_argument("--eta", type=_checked(float, lambda value: math.isfinite(value)
                                              and value > 0.0, "must be finite and positive"),
                       default=0.5)
        p.add_argument("--epochs", type=_at_least(1), default=200)
        p.add_argument("--seed", type=_at_least(0), default=42)

    p = sub.add_parser("classify", help="train on one CSV, score another")
    p.add_argument("--train", type=_path, required=True)
    p.add_argument("--test", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    add_trainer_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("--data", type=_path, help="dataset CSV (default: bundled synthetic set)")
    p.add_argument("--folds", type=_at_least(2), default=5)
    p.add_argument("--baseline", choices=("knn", "mlp"),
                   help="also run this method and ANOVA the two fold sets")
    p.add_argument("--out", type=_path)
    add_trainer_args(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("push", help="push-recovery verdict as JSON")
    p.add_argument("--force", type=float, required=True)
    p.add_argument("--dir", choices=PUSH_DIRECTIONS, required=True)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("plot-data", help="two-column CSVs for the standard figures")
    p.add_argument("--out-dir", type=_path, required=True)
    add_gait_args(p)
    p.add_argument("--frame-stride", type=_at_least(1), default=8)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    # numpy's OpenBLAS starts a worker thread per further CPU, and an idle
    # worker spins for about 0.1 s of CPU before it sleeps, by default. Set
    # before any verb imports numpy, this makes idle workers sleep at once.
    # The thread count, and so every result bit, stays the same.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        # ValueError covers the library's argument checks and its subclasses
        # (RecoveryImpossible, StratificationError, UnreachableError, ...);
        # OSError a path that cannot be opened, such as a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
