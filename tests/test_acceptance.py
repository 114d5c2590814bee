"""Acceptance suite: one test per release criterion.

Each criterion prints its own pass/fail line (run with ``pytest -s`` or
``-rA`` to see them inline). Expected values come from independent golden
transcriptions held in this file, or from oracles computed here.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaitforge import capture, gait_model as gm
from gaitforge.features import (
    count_extrema, count_zero_crossings, emd_decompose, envelope_mean,
)
from gaitforge.gait_ca import CAState, next_state
from gaitforge.learn import (
    Dataset, ConfusionMatrix, accuracy_from_counts, anova_from_summary,
    anova_single_factor, biometric_metrics, cv_aggregate, kmeans,
    kmeans_sse, knn_classify, mlp_gradients, mlp_init, mlp_predict,
    mlp_train_raw, truncate_percent,
)
from gaitforge.push_fuzzy import (
    Direction, ForceInput, RecoveryImpossible, Strategy, lookup_strategy,
    recover,
)
from gaitforge.rocking_block import BlockParams, BlockState, Mode, simulate, step, energy
from gaitforge.tables import fixture_path
from gaitforge.cli import main as cli_main


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:02d} FAIL - {description}")
        raise
    print(f"\ncriterion {number:02d} PASS - {description}")


# ---------------------------------------------------------------------------
# golden transcriptions
# ---------------------------------------------------------------------------

# per joint, per phase: (coefficients highest degree first, error offset)
GOLDEN_BANK = {
    "left_hip": {
        "LR":  ([-4.061e04, 7.201e04, -4.774e04, 1.393e04, -1513.0], 2.8),
        "MST": ([1.14e04, -2.723e04, 2.461e04, -1.001e04, 1528.0], 0.0),
        "TS":  ([-8069.0, 2.867e04, -3.842e04, 2.315e04, -5312.0], 1.0),
        "PS":  ([1148.0, -3915.0, 4431.0, -1645.0], -0.2),
        "IS":  ([-27.79, 407.5, -865.0, 516.4], 0.05),
        "MSW": ([986.1, -4430.0, 6529.0, -3148.0], -0.4),
        "TSW": ([-722.2, 3374.0, -5351.0, 2878.0], -0.3),
    },
    "right_hip": {
        "LR":  ([642.3, -1288.0, 760.2, -119.1], 0.0),
        "MST": ([-2732.0, 5192.0, -3247.0, 687.6], -0.4),
        "TS":  ([1475.0, -3917.0, 3356.0, -915.4], -0.4),
        "PS":  ([-1203.0, 3914.0, -4328.0, 1614.0], 0.5),
        "IS":  ([1437.0, -4788.0, 5219.0, -1870.0], -0.8),
        "MSW": ([-2162.0, 9538.0, -1.382e04, 6575.0], 0.2),
        "TSW": ([-1382.0, 6100.0, -8827.0, 4188.0], -2.5),
    },
    "left_knee": {
        "LR":  ([2458.0, -3383.0, 1598.0, 258.8], 0.0),
        "MST": ([-2.173e04, 5.163e04, -4.648e04, 1.874e04, -2842.0], -0.3),
        "TS":  ([-1139.0, 3383.0, -2122.0, -1106.0, 926.9], 0.0),
        "PS":  ([8138.0, 2.899e04, -3.678e04, 1.938e04, -3508.0], -1.0),
        "IS":  ([2435.0, 1.09e04, 1.571e04, -7356.0], -6.1),
        "MSW": ([1757.0, -6405.0, 7591.0, -2911.0], -1.0),
        "TSW": ([-555.6, 2571.0, -3892.0, 1915.0], 0.2),
    },
    "right_knee": {
        "LR":  ([-5.103e04, 8.963e04, -5.816e04, 1.685e04, -1921.0], 1.7),
        "MST": ([1.835e04, -3.649e04, 2.387e04, -5134.0, -6.756], -1.0),
        "TS":  ([3539.0, -1.442e04, 2.174e04, -1.433e04, 3459.0], 1.8),
        "PS":  ([-66.25, 188.1, -132.7], 0.7),
        "IS":  ([-1798.0, 5842.0, -6279.0, 2224.0], 1.0),
        "MSW": ([9973.0, 4.122e04, 5.642e04, -2.561e04], 0.5),
        "TSW": ([1402.0, -4290.0, 3213.0], -1.0),
    },
    "left_ankle": {
        "LR":  ([-1210.0, 1677.0, -753.4, 113.7], 0.0),
        "MST": ([-706.8, -337.0, 2017.0, -1404.0, 289.5], -0.25),
        "TS":  ([-7514.0, 2.025e04, -1.81e04, 5358.0], 3.3),
        "PS":  ([4112.0, -1.342e04, 1.454e04, -5235.0], 3.9),
        "IS":  ([-5056.0, 1.801e04, -2.136e04, 8430.0], 2.1),
        "MSW": ([-2875.0, 1.211e04, -1.695e04, 7882.0], -1.8),
        "TSW": ([590.5, -2735.0, 4242.0, -2202.0], 0.6),
    },
    "right_ankle": {
        "LR":  ([1325.0, -2024.0, 993.0, -155.6], 0.0),
        "MST": ([2.99e04, -7.249e04, 6.539e04, -2.602e04, 3853.0], 2.5),
        "TS":  ([538.0, -1543.0, 1491.0, -478.5], -0.1),
        "PS":  ([228.9, -699.1, 729.4, -251.8], 0.0),
        "IS":  ([-43.13, 129.0, -80.58], 0.0),
        "MSW": ([8742.0, -3.652e04, 5.062e04, -2.328e04], 1.0),
        "TSW": ([160.4, -1316.0, 2976.0, -2048.0], 0.0),
    },
}

GOLDEN_CA_NEXT = {
    "0111": "1011", "0110": "1010", "0101": "1001", "0100": "1000",
    "0011": "1111", "0010": "1110", "0001": "1101", "0000": "1100",
    "1011": "0111", "1010": "0110", "1001": "0101", "1000": "0100",
    "1111": "0011", "1110": "0010", "1101": "0001", "1100": "0000",
}

GOLDEN_CA_SUBPHASES = ["IC", "LR", "MS", "TST", "PSW", "ISW", "MSW", "TSW"]

GOLDEN_FORCE_SETS = {
    "small": [0.0, 0.0, 4.0, 5.0],
    "average": [4.0, 5.0, 8.0, 9.0],
    "large": [8.0, 9.0, 12.0, 12.0],
}

GOLDEN_FIS1 = {
    "small": {"roll": "small_roll", "pitch": "small_pitch"},
    "average": {"roll": "average_roll", "pitch": "average_pitch"},
    "large": {"roll": "large_roll", "pitch": "large_pitch"},
}

GOLDEN_FIS2 = {
    "ankle": [["small_roll", "small_pitch"]],
    "knee": [["small_roll", "average_pitch"], ["average_roll", "small_pitch"]],
    "hip": [["small_roll", "large_pitch"], ["large_roll", "small_pitch"],
            ["average_roll", "average_pitch"]],
    "fall_frontal": [["average_roll", "large_pitch"]],
    "fall_sideways": [["large_roll", "average_pitch"]],
    "fall": [["large_roll", "large_pitch"]],
}

GOLDEN_LOOKUP = [
    ("small", "small", "small", "ankle"),
    ("small", "small", "average", "knee"),
    ("average", "small", "average", "knee"),
    ("large", "large", "small", "hip"),
    ("large", "small", "large", "hip"),
    ("large", "average", "average", "hip"),
    ("large", "large", "large", "fall"),
    ("large", "average", "large", "fall"),
]


def test_criterion_01_table_fixture_fidelity():
    with criterion(1, "shipped fixtures match the golden transcriptions bit-exactly"):
        start = time.perf_counter()
        bank = gm.FieldBank.default().to_dict()
        assert set(bank) == set(GOLDEN_BANK)
        for jkey, phases in GOLDEN_BANK.items():
            assert set(bank[jkey]) == set(phases)
            for pkey, (coeffs, err) in phases.items():
                assert bank[jkey][pkey]["coeffs"] == coeffs
                assert bank[jkey][pkey]["error"] == err

        with open(fixture_path("ca_rules.json"), "r", encoding="utf-8") as fh:
            ca_doc = json.load(fh)
        assert ca_doc["next"] == GOLDEN_CA_NEXT
        assert ca_doc["subphases"] == GOLDEN_CA_SUBPHASES

        with open(fixture_path("push_rules.json"), "r", encoding="utf-8") as fh:
            push_doc = json.load(fh)
        assert push_doc["force_sets"] == GOLDEN_FORCE_SETS
        assert push_doc["fis1"] == GOLDEN_FIS1
        assert {k: v for k, v in push_doc["fis2"].items()} == GOLDEN_FIS2
        rows = [(r["band"], r["roll"], r["pitch"], r["strategy"])
                for r in push_doc["lookup"]]
        assert rows == GOLDEN_LOOKUP
        assert time.perf_counter() - start < 1.0


def test_criterion_02_individual_class_accuracy():
    with criterion(2, "per-class accuracy reproduces the four printed rows"):
        rows = [
            ((99, 39, 38, 360), 85.63, 2),
            ((90, 48, 6, 389), 89.86, 2),
            ((128, 10, 33, 381), 92.2, 1),
            ((106, 32, 52, 362), 84.7, 1),
        ]
        for counts, printed, decimals in rows:
            pct = 100.0 * accuracy_from_counts(*counts)
            # the source table truncates at the printed precision
            assert abs(truncate_percent(pct, decimals) - printed) <= 0.01


def test_criterion_03_biometric_metrics():
    with criterion(3, "TAR/FAR reproduce the clustering and ANN tables"):
        kmean_cm = ConfusionMatrix(np.array([
            [17, 0, 2, 1], [0, 17, 3, 0], [1, 2, 15, 2], [0, 1, 0, 19],
        ]))
        m = biometric_metrics(kmean_cm)
        assert abs(100.0 * m.tar - 85.00) <= 0.01
        assert abs(100.0 * m.far - 14.79) <= 0.01

        ann_cm = ConfusionMatrix(np.array([
            [20, 0, 0, 0], [1, 19, 0, 0], [1, 1, 18, 0], [2, 0, 1, 17],
        ]))
        m = biometric_metrics(ann_cm)
        assert abs(100.0 * m.tar - 92.50) <= 0.01
        assert abs(100.0 * m.far - 6.73) <= 0.01


def test_criterion_04_cv_aggregation():
    with criterion(4, "fold aggregation: mean 88.4, n-1 sigma, exact to 1e-12"):
        mean, var, sigma = cv_aggregate([90.0, 87.0, 86.0, 89.0, 90.0])
        assert abs(mean - 88.4) <= 1e-12
        assert abs(var - 3.3) <= 1e-12
        assert abs(sigma - math.sqrt(3.3)) <= 1e-12


def test_criterion_05_ca_exhaustive():
    with criterion(5, "all 16 codes round-trip with leg-bit alternation, under 1 ms"):
        next_state(CAState(0))  # warm the table cache
        start = time.perf_counter()
        for code in range(16):
            state = CAState(code)
            stepped = next_state(state)
            assert stepped.leg != state.leg
            assert next_state(stepped).code == code
        assert time.perf_counter() - start < 1e-3


def test_criterion_06_fuzzy_controller():
    with criterion(6, "lookup rows, monotone severity, and the 12 N envelope"):
        representatives = [
            (2.0, Direction.BACKWARD, ("small", "small"), Strategy.ANKLE),
            (4.75, Direction.BACKWARD, ("small", "average"), Strategy.KNEE),
            (6.5, Direction.BACKWARD, ("small", "average"), Strategy.KNEE),
            (10.0, Direction.LEFT, ("large", "small"), Strategy.HIP),
            (10.0, Direction.BACKWARD, ("small", "large"), Strategy.HIP),
            (8.4, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
             ("average", "average"), Strategy.HIP),
            (10.0, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
             ("large", "large"), Strategy.FALL),
            (8.8, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
             ("average", "large"), Strategy.FALL),
        ]
        for force, direction, pair, expected in representatives:
            assert lookup_strategy(force, pair) == expected
            got = recover(ForceInput(force, direction)).strategy
            if expected == Strategy.FALL:
                assert got.is_fall
            else:
                assert got == expected

        for direction in Direction:
            last = -1
            for f in np.arange(0.0, 12.001, 0.1):
                severity = recover(ForceInput(float(f), direction)).strategy.severity
                assert severity >= last
                last = severity

        with pytest.raises(RecoveryImpossible):
            recover(ForceInput(13.0, Direction.LEFT))


def test_criterion_07_gait_generation():
    with criterion(7, "full cycle: finite angles, guard boundaries, Horner agreement"):
        bank = gm.FieldBank.default()
        traj = gm.generate_gait_cycle(bank)  # tc = 0.0167, guard schedule
        assert len(traj) == math.floor(1.6 / 0.0167) + 1
        for jkey in gm.JOINT_KEYS:
            assert np.all(np.isfinite(traj.angles[jkey]))

        guard = (0.5, 0.733, 0.9833, 1.1167, 1.2667, 1.4333, 1.600)
        assert traj.schedule.boundaries == guard
        for phase, b in zip(gm.GaitPhase, guard):
            assert gm.phase_of(b) == phase
            if b < 1.6:
                assert gm.phase_of(b + 1e-12) == phase.successor
        assert len(traj.boundary_report) == 7
        assert all(set(g.gaps) == set(gm.JOINT_KEYS) for g in traj.boundary_report)

        xs = np.linspace(0.0, 1.6, 1000)
        for jkey in gm.JOINT_KEYS:
            for phase in gm.GaitPhase:
                vf = bank.get(jkey, phase)
                horner = gm.eval_vector_field(vf, xs)
                deg = vf.degree
                naive = sum(
                    c * xs ** (deg - i) for i, c in enumerate(vf.coefficients)
                ) + vf.error_offset
                rel = np.abs(horner - naive) / np.maximum(1.0, np.abs(naive))
                assert np.max(rel) <= 1e-9


def test_criterion_08_rocking_block():
    with criterion(8, "energy drift, restitution contraction, integrator order"):
        # energy conservation between impacts (left-mode flow, 1 s)
        params = BlockParams(alpha=0.3, dt=1e-3)
        state = BlockState(Mode.LEFT, -0.5, 0.0)
        e0 = energy(state, params)
        for _ in range(1000):
            state = step(state, params)
            assert abs(energy(state, params) - e0) < 1e-8

        trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0),
                         BlockParams(alpha=0.3, r=0.9, dt=1e-3), 25.0)
        speeds = [abs(e.post_velocity) for e in trace.impacts]
        assert len(speeds) >= 3
        assert all(b < a for a, b in zip(speeds, speeds[1:]))

        def integrate(dt):
            p = BlockParams(alpha=0.35, dt=dt)
            s = BlockState(Mode.LEFT, -0.5, 0.1)
            for _ in range(round(0.5 / dt)):
                s = step(s, p)
            return s

        ref = integrate(1e-2 / 64)
        err = [
            max(abs(out.x1 - ref.x1), abs(out.x2 - ref.x2))
            for out in (integrate(1e-2), integrate(5e-3))
        ]
        order = math.log2(err[0] / err[1])
        assert order >= 3.8


def test_criterion_09_emd():
    with criterion(9, "EMD: reconstruction, two-tone separation, IMF checks, runtime"):
        t = np.arange(2000) / 1000.0
        signal = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 1 * t)
        start = time.perf_counter()
        imfs, residue, _ = emd_decompose(signal)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0

        recon = residue.copy()
        for imf in imfs:
            recon = recon + imf.values
        assert np.max(np.abs(signal - recon)) <= 1e-9

        fast = np.sin(2 * np.pi * 10 * t)
        assert np.corrcoef(imfs[0].values, fast)[0, 1] > 0.95

        for imf in imfs:
            h = imf.values
            assert abs(count_extrema(h) - count_zero_crossings(h)) <= 1
            mid = envelope_mean(h)
            assert mid is not None
            assert abs(np.mean(mid)) <= 0.05 * (h.max() - h.min())


def test_criterion_10_kinematics():
    with criterion(10, "IK/FK round-trip under 1e-9 m and the exact force conversion"):
        geom = capture.TwoLinkGeometry()
        rng = np.random.default_rng(42)
        for _ in range(100):
            t1 = rng.uniform(-math.pi, math.pi)
            t2 = rng.uniform(0.0, math.pi)
            _, tip = capture.fk_two_link(t1, t2, geom)
            r1, r2 = capture.ik_two_link(*tip, geom, elbow="down")
            _, tip2 = capture.fk_two_link(r1, r2, geom)
            assert math.hypot(tip[0] - tip2[0], tip[1] - tip2[1]) < 1e-9
        assert capture.counts_to_force(100) == 9.8


def test_criterion_11_learning():
    with criterion(11, "gradient check, XOR, synthetic separability, ANOVA"):
        # analytic vs central-difference gradients on a small random net
        rng = np.random.default_rng(6)
        model = mlp_init((3, 4, 2), seed=19)
        x = rng.normal(size=3)
        y = rng.uniform(size=2)
        gw, gb = mlp_gradients(model, x, y)
        h = 1e-6
        for l in range(len(model.weights)):
            for idx in np.ndindex(model.weights[l].shape):
                orig = model.weights[l][idx]
                model.weights[l][idx] = orig + h
                up = 0.5 * float(np.sum((mlp_predict(model, x) - y) ** 2))
                model.weights[l][idx] = orig - h
                down = 0.5 * float(np.sum((mlp_predict(model, x) - y) ** 2))
                model.weights[l][idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - gw[l][idx]) <= 1e-4 * max(1e-6, abs(fd))

        xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        xor_y = np.array([[0.0], [1.0], [1.0], [0.0]])
        net = mlp_train_raw(xor_x, xor_y, (2, 4, 1), eta=0.5, epochs=20000, seed=0)
        for xi, yi in zip(xor_x, xor_y):
            assert (mlp_predict(net, xi)[0] > 0.5) == (yi[0] > 0.5)

        # KNN on two well-separated blobs
        blob_rng = np.random.default_rng(12)
        feats = np.vstack([
            blob_rng.normal((10, 10), 1.0, size=(20, 2)),
            blob_rng.normal((-10, -10), 1.0, size=(20, 2)),
        ])
        labels = np.array([0] * 20 + [1] * 20)
        train = Dataset(feats, labels, ("pos", "neg"))
        held = np.vstack([
            blob_rng.normal((10, 10), 1.0, size=(10, 2)),
            blob_rng.normal((-10, -10), 1.0, size=(10, 2)),
        ])
        held_labels = np.array([0] * 10 + [1] * 10)
        preds = [knn_classify(train, 3, q) for q in held]
        assert np.all(np.array(preds) == held_labels)

        centroids, assign = kmeans(feats, 2, seed=1)
        nearest = sorted(
            min(float(np.linalg.norm(c - np.array(m))) for c in centroids)
            for m in ((10, 10), (-10, -10))
        )
        assert nearest[-1] < 1.0

        res = anova_from_summary([5, 5], [79.0, 86.8], [6.5, 3.3])
        assert abs(res.f - 31.04) <= 0.01
        same = anova_single_factor([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])
        assert same.f == 0.0 and same.p == 1.0


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "every verb re-run byte-identically under a fixed seed"):
        acc = tmp_path / "acc.csv"
        t = np.arange(240) * 0.01
        rows = ["t,x,y,z"] + [
            f"{a:.4f},{6 + 2 * math.sin(7 * a) + 0.3 * math.sin(40 * a):.6f},"
            f"{2 + math.cos(7 * a):.6f},0.0"
            for a in t
        ]
        acc.write_text("\n".join(rows) + "\n")

        def run_all(base):
            base.mkdir()
            assert cli_main(["gen-gait", "--out", str(base / "traj.tsv")]) == 0
            assert cli_main(["gen-gait", "--schedule", "percent",
                             "--out", str(base / "traj_pct.tsv")]) == 0
            assert cli_main(["simulate-block", "--t-end", "2",
                             "--out", str(base / "block.csv")]) == 0
            assert cli_main(["ca-predict", "--init", "0000", "--n", "6",
                             "--out", str(base / "ca.txt")]) == 0
            assert cli_main(["ingest", "--in", str(acc),
                             "--out", str(base / "angles.csv")]) == 0
            assert cli_main(["features", "--in", str(base / "angles.csv"),
                             "--out", str(base / "features.csv"),
                             "--label", "normal"]) == 0
            assert cli_main(["cv", "--method", "mlp", "--layers", "6,8,4",
                             "--epochs", "25", "--seed", "42",
                             "--out", str(base / "cv.json")]) == 0
            assert cli_main(["push", "--force", "7", "--dir", "forward",
                             "--out", str(base / "push.json")]) == 0
            assert cli_main(["plot-data", "--out-dir", str(base / "plots")]) == 0

        one, two = tmp_path / "one", tmp_path / "two"
        run_all(one)
        run_all(two)
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (one / rel).read_bytes() == (two / rel).read_bytes()
