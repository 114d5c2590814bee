import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitforge import gait_model as gm
from gaitforge.tables import read_json
from gaitforge.gait_model import (
    CYCLE_LENGTH,
    FieldBank,
    GaitModelConfig,
    MAX_SAMPLES,
    GaitPhase,
    MissingFieldError,
    PhaseSchedule,
    PolynomialVectorField,
    RangeTable,
    SingularFitError,
    eval_vector_field,
    fit_vector_field,
    generate_gait_cycle,
    limit_cycle,
    overfit_band,
    phase_of,
    validate_ranges,
)


def naive_eval(vf, x):
    """Independent power-sum oracle for the Horner path."""
    deg = vf.degree
    total = 0.0
    for i, c in enumerate(vf.coefficients):
        total += c * x ** (deg - i)
    return total + vf.error_offset


def polyval_eval(vf, x):
    """Bitwise oracle for generation: numpy's Horner loop from y = 0.0, the
    float operations generation performs at every x >= 0."""
    return np.polyval(vf.coefficients, x) + vf.error_offset


# ---------------------------------------------------------------------------
# phase_of
# ---------------------------------------------------------------------------

def test_phase_examples():
    assert phase_of(0.3) == GaitPhase.LR
    assert phase_of(0.0) == GaitPhase.LR
    assert phase_of(1.45) == GaitPhase.TSW


def test_boundaries_belong_to_earlier_phase():
    sched = PhaseSchedule.guard()
    for phase in GaitPhase:
        b = sched.boundaries[int(phase)]
        assert phase_of(b, sched) == phase
        if b < sched.x_max:
            assert phase_of(b + 1e-12, sched) == phase.successor


def test_cyclic_wrap():
    assert phase_of(1.7) == phase_of(1.7 - CYCLE_LENGTH)
    assert phase_of(3.2) == GaitPhase.LR  # exactly two cycles


def test_phase_of_domain_errors():
    with pytest.raises(ValueError):
        phase_of(-0.1)
    with pytest.raises(ValueError):
        phase_of(float("nan"))
    with pytest.raises(ValueError):
        phase_of(float("inf"))


def test_phases_of_wraps_like_the_scalar_lookup():
    got = [phase_of(x) for x in (0.0, 0.5, 1.6, 1.7, 3.2)]
    assert got == [0, 0, 6, 0, 0]  # 1.7 wraps to 0.1, 3.2 to 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_phases_of_rejects_non_finite_and_negative(bad):
    # bisect alone would put NaN past the last boundary
    with pytest.raises(ValueError):
        phase_of(bad)


@given(st.floats(min_value=0.0, max_value=1.6), st.floats(min_value=0.0, max_value=1.6))
def test_phase_ordinal_monotone_over_one_cycle(a, b):
    lo, hi = sorted((a, b))
    assert int(phase_of(lo)) <= int(phase_of(hi))


def test_percent_preset():
    sched = PhaseSchedule.percent()
    expected = [1.6 * f for f in (0.10, 0.30, 0.50, 0.60, 0.73, 0.87, 1.00)]
    assert sched.boundaries == pytest.approx(expected, abs=1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PhaseSchedule((0.5, 0.4, 0.9, 1.0, 1.2, 1.4, 1.6))
    with pytest.raises(ValueError):
        PhaseSchedule((0.5, 0.7, 0.9))


# ---------------------------------------------------------------------------
# eval_vector_field
# ---------------------------------------------------------------------------

def test_eval_against_naive_oracle():
    vf = PolynomialVectorField(
        coefficients=(-4.061e4, 7.201e4, -4.774e4, 1.393e4, -1513.0),
        error_offset=2.8,
    )
    x = 0.05
    horner = eval_vector_field(vf, x)
    naive = naive_eval(vf, x)
    assert abs(horner - naive) <= 1e-9 * max(1.0, abs(naive))


def test_zero_polynomial():
    vf = PolynomialVectorField((0.0, 0.0, 0.0), error_offset=0.0)
    for x in (0.0, 0.3, 1.6):
        assert eval_vector_field(vf, x) == 0.0


def test_bank_fixture_roundtrip():
    bank = FieldBank.default()
    assert bank.get("left_hip", "LR").coefficients[0] == -4.061e4


def test_horner_matches_naive_for_all_table_fields():
    bank = FieldBank.default()
    xs = np.linspace(0.0, CYCLE_LENGTH, 200)
    for jkey in gm.JOINT_KEYS:
        for phase in GaitPhase:
            vf = bank.get(jkey, phase)
            for x in xs:
                h = eval_vector_field(vf, float(x))
                n = naive_eval(vf, float(x))
                assert abs(h - n) <= 1e-9 * max(1.0, abs(n))


def test_degree_bounds():
    with pytest.raises(ValueError):
        PolynomialVectorField((1.0, 2.0))  # degree 1
    with pytest.raises(ValueError):
        PolynomialVectorField((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))  # degree 5


# ---------------------------------------------------------------------------
# generate_gait_cycle
# ---------------------------------------------------------------------------

def constant_bank(value: float) -> FieldBank:
    vf = {"coeffs": [0.0, 0.0, value], "error": 0.0}
    return FieldBank.from_dict(
        {jkey: {ph.name: dict(vf) for ph in GaitPhase} for jkey in gm.JOINT_KEYS}
    )


def test_default_grid_shape_and_finiteness():
    traj = generate_gait_cycle(FieldBank.default())
    assert len(traj) == math.floor(1.6 / 0.0167) + 1
    for jkey in gm.JOINT_KEYS:
        assert np.all(np.isfinite(traj.angles[jkey]))


def test_constant_bank_gives_constant_trajectory():
    traj = generate_gait_cycle(constant_bank(7.25))
    for jkey in gm.JOINT_KEYS:
        assert np.all(np.asarray(traj.angles[jkey]) == 7.25)
    for gap in traj.boundary_report:
        assert all(g == 0.0 for g in gap.gaps.values())


def test_boundary_report_oracle():
    bank = FieldBank.default()
    traj = generate_gait_cycle(bank)
    gap = traj.boundary_report[0]
    assert gap.x == 0.5
    expected = abs(
        polyval_eval(bank.get("left_hip", GaitPhase.LR), 0.5)
        - polyval_eval(bank.get("left_hip", GaitPhase.MST), 0.5)
    )
    assert gap.gaps["left_hip"] == pytest.approx(expected, abs=0.0)


def test_interior_samples_equal_field_eval_bitwise():
    bank = FieldBank.default()
    traj = generate_gait_cycle(bank)
    for i, x in enumerate(traj.x):
        phase = phase_of(x, traj.schedule)
        for jkey in gm.JOINT_KEYS:
            assert traj.angles[jkey][i] == polyval_eval(bank.get(jkey, phase), float(x))


@pytest.mark.parametrize("schedule", ["guard", "percent"])
def test_last_grid_point_past_cycle_end_is_the_cycle_end(schedule):
    # floor(1.6 / tc) * tc rounds to 1.6000000000000003 at tc = 1.6 / 75; at
    # tc 1e-4 the last point is exactly 1.6
    bank = FieldBank.default()
    config = GaitModelConfig(tc=1.6 / 75, schedule=PhaseSchedule.preset(schedule))
    assert (config.n_samples - 1) * config.tc > CYCLE_LENGTH
    traj = generate_gait_cycle(bank, config, cross_fade=True)
    exact = generate_gait_cycle(bank, GaitModelConfig(tc=1e-4, schedule=config.schedule))
    assert len(traj) == 76
    assert traj.x[-1] == exact.x[-1] == CYCLE_LENGTH
    assert traj.x[-2] < traj.x[-1]
    assert phase_of(traj.x[-1], config.schedule) == GaitPhase.TSW
    for jkey in gm.JOINT_KEYS:
        assert traj.angles[jkey][-1] == exact.angles[jkey][-1]
        assert traj.angles[jkey][-1] == polyval_eval(bank.get(jkey, GaitPhase.TSW),
                                                     CYCLE_LENGTH)


def test_generation_peaks_under_64_bytes_per_sample():
    # seven float64 columns keep 56 B per sample
    bank = FieldBank.default()
    tracemalloc.start()
    try:
        traj = generate_gait_cycle(bank, GaitModelConfig(tc=1e-5), cross_fade=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 160_001
    assert peak / len(traj) <= 64


def test_bank_without_a_field_is_refused_when_built():
    doc = FieldBank.default().to_dict()
    del doc["left_hip"]["MST"]
    with pytest.raises(MissingFieldError, match=r"^no field for \(left_hip, MST\)$"):
        FieldBank.from_dict(doc)


def test_bank_interval_column_is_the_guard_schedule_and_is_not_read():
    # the bundled bank transcribes each field's interval, and every one is
    # the guard schedule's interval for its phase; the schedule decides where
    # a field applies, so a bank without the column, or with a reversed
    # interval, gives the same cycle
    doc = read_json(gm.fixture_path("tables_5_1_to_5_6.json"))
    guard = PhaseSchedule.guard()
    intervals = [(tuple(spec["interval"]), guard.interval(GaitPhase[pkey]))
                 for phases in doc.values() for pkey, spec in phases.items()]
    assert len(intervals) == 42
    assert all(have == want for have, want in intervals)
    want = generate_gait_cycle(FieldBank.from_dict(doc))
    for interval in (None, [1, 0]):
        for phases in doc.values():
            for spec in phases.values():
                if interval is None:
                    del spec["interval"]
                else:
                    spec["interval"] = interval
        got = generate_gait_cycle(FieldBank.from_dict(doc))
        assert all(got.angles[k].tobytes() == want.angles[k].tobytes() for k in gm.JOINT_KEYS)
    assert "interval" not in FieldBank.from_dict(doc).to_dict()["left_hip"]["LR"]


def test_bundled_bank_without_a_field_names_the_file(bundled_tables):
    doc = FieldBank.default().to_dict()
    del doc["left_knee"]["MST"]
    (bundled_tables / "tables_5_1_to_5_6.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"tables_5_1_to_5_6\.json: malformed model bank: "
                                         r"no field for \(left_knee, MST\)$"):
        FieldBank.default()


def test_missing_field_is_configuration_error():
    doc = FieldBank.default().to_dict()
    del doc["left_hip"]["MST"]
    with pytest.raises(MissingFieldError):
        generate_gait_cycle(FieldBank.from_dict(doc))


def test_cross_fade_blends_near_boundaries():
    bank = FieldBank.default()
    plain = generate_gait_cycle(bank)
    faded = generate_gait_cycle(bank, cross_fade=True)
    # away from every boundary the two agree; next to one they differ
    tc = plain.tc
    boundaries = plain.schedule.boundaries[:-1]
    near = [
        i for i, x in enumerate(plain.x)
        if any(abs(x - b) <= 2 * tc for b in boundaries)
    ]
    far = [i for i in range(len(plain)) if i not in near]
    assert np.array_equal(
        np.asarray(plain.angles["left_hip"])[far], np.asarray(faded.angles["left_hip"])[far]
    )
    assert any(
        plain.angles["left_hip"][i] != faded.angles["left_hip"][i] for i in near
    )


@pytest.mark.parametrize("tc", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_config_rejects_bad_tc(tc):
    with pytest.raises(ValueError):
        GaitModelConfig(tc=tc)


def test_config_sample_limit():
    # only configs are built here, so no grid is ever allocated
    x_max = PhaseSchedule.guard().x_max
    assert GaitModelConfig(tc=x_max / (MAX_SAMPLES - 2)).n_samples <= MAX_SAMPLES
    for tc in (x_max / (MAX_SAMPLES + 1), 1e-9, 5e-324):
        with pytest.raises(ValueError, match="samples per cycle"):
            GaitModelConfig(tc=tc)


def test_n_samples_counts_both_grid_ends():
    assert GaitModelConfig(tc=0.4).n_samples == 5


def test_bank_json_roundtrip(tmp_path):
    bank = FieldBank.default()
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank.to_dict()))
    again = FieldBank.from_dict(read_json(path))
    assert again.to_dict() == bank.to_dict()


# ---------------------------------------------------------------------------
# range validation
# ---------------------------------------------------------------------------

def test_range_midpoint_passes():
    ranges = RangeTable.default()
    traj = generate_gait_cycle(constant_bank(0.0))
    # build a trajectory that sits at each range midpoint per phase
    for jkey in gm.JOINT_KEYS:
        vals = traj.angles[jkey]
        for i, x in enumerate(traj.x):
            interval = ranges.interval(phase_of(x, traj.schedule), jkey)
            if interval:
                vals[i] = 0.5 * (interval[0] + interval[1])
    report = validate_ranges(traj)
    assert report.ok
    assert "within tabulated ranges" in report.summary()


def test_extreme_sample_is_flagged():
    traj = generate_gait_cycle(constant_bank(1000.0))
    report = validate_ranges(traj)
    assert not report.ok
    assert any(v.joint == "left_hip" for v in report.violations)


def test_nan_angle_is_the_worst_sample():
    # as numpy's argmax ranks NaN: above an infinite excess that comes first
    traj = generate_gait_cycle(constant_bank(0.0))
    traj.angles["left_hip"][3] = float("inf")
    traj.angles["right_hip"][2] = float("nan")
    traj.angles["right_hip"][5] = float("nan")
    report = validate_ranges(traj)
    assert "worst: right_hip LR x=0.0334 angle=nan" in report.summary()


def test_summary_of_a_million_violations_peaks_under_1_mb():
    # one joint's column: every angle above hi, the worst at sample 700000
    n = 1_000_000
    column = array("d", [2.0]) * n
    column[700_000] = 5.0
    report = gm.ValidationReport(
        checked=n, joint=array("B", bytes(n)), index=array("q", range(n)),
        x=array("d", [0.5]) * n, phase=array("B", bytes(n)), angle=column,
        lo=array("d", [0.0]) * n, hi=array("d", [1.0]) * n)
    tracemalloc.start()
    try:
        summary = report.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary == (f"{n} of {n} checked samples out of range (worst: left_hip LR "
                       "x=0.5000 angle=5.000 not in [0.0000, 1.0000])")
    assert peak < 1 << 20


def test_initial_phase_interval_is_order_normalized():
    ranges = RangeTable.default()
    assert ranges.interval("initial_contact", "left_hip") == (-17.0965, -7.576)


def test_normalization_idempotent():
    raw = {"initial_contact": {"left_hip": [-7.576, -17.0965]}}
    once = RangeTable(raw)
    twice = RangeTable({"initial_contact":
                        {"left_hip": list(once.interval("initial_contact", "left_hip"))}})
    assert twice.interval("initial_contact", "left_hip") == once.interval(
        "initial_contact", "left_hip"
    )


def test_empty_trajectory_rejected():
    traj = generate_gait_cycle(constant_bank(0.0))
    traj.x = traj.x[:0]
    with pytest.raises(ValueError):
        validate_ranges(traj)


# ---------------------------------------------------------------------------
# array paths against per-sample scalar loops
# ---------------------------------------------------------------------------

def reference_phase(x, schedule):
    """Per-point guard walk: the first phase whose end is >= x."""
    for phase in GaitPhase:
        if x <= schedule.boundaries[int(phase)]:
            return phase
    raise AssertionError("x past the cycle end")


def reference_cycle(bank, config, cross_fade):
    """Grid, phases and angles from one scalar evaluation per sample."""
    schedule, tc = config.schedule, config.tc
    grid = np.minimum(np.arange(int(math.floor(schedule.x_max / tc)) + 1) * tc, schedule.x_max)
    phases = [reference_phase(float(x), schedule) for x in grid]
    angles = {
        jkey: np.array([
            polyval_eval(bank.get(jkey, phase), float(x))
            for x, phase in zip(grid, phases)
        ])
        for jkey in gm.JOINT_KEYS
    }
    if cross_fade:
        half = 2 * tc
        for b in schedule.boundaries[:-1]:
            lo, hi = b - half, b + half
            before = reference_phase(b, schedule)
            for i, x in enumerate(grid):
                if not lo <= x <= hi:
                    continue
                w = (x - lo) / (2.0 * half)
                for jkey in gm.JOINT_KEYS:
                    fa = polyval_eval(bank.get(jkey, before), x)
                    fb = polyval_eval(bank.get(jkey, before.successor), x)
                    angles[jkey][i] = (1.0 - w) * fa + w * fb
    return grid, phases, angles


def reference_validation(traj, ranges):
    """Violations, checked count and summary from one test per sample."""
    violations, checked = [], 0
    for jkey in gm.JOINT_KEYS:
        vals = traj.angles[jkey]
        for i, xi in enumerate(traj.x):
            phase = phase_of(xi, traj.schedule)
            interval = ranges.interval(phase, jkey)
            if interval is None:
                continue
            checked += 1
            lo, hi = interval
            if not (lo <= vals[i] <= hi):
                violations.append(gm.RangeViolation(
                    phase, jkey, i, float(xi), float(vals[i]), lo, hi))
    if not violations:
        return violations, checked, (
            f"all {checked} checked samples within tabulated ranges")
    worst = max(violations, key=lambda v: max(v.lo - v.angle, v.angle - v.hi))
    return violations, checked, (
        f"{len(violations)} of {checked} checked samples out of "
        f"range (worst: {worst.joint} {worst.phase.name} x={worst.x:.4f} "
        f"angle={worst.angle:.3f} not in [{worst.lo:.4f}, {worst.hi:.4f}])"
    )


# tc = 1e-4 puts five grid points exactly on a guard boundary and three on a
# percent boundary, so all four schedule/fade pairs run there; the constant
# bank makes every excess within a phase tie.
@settings(max_examples=8, deadline=None)
@given(
    tc=st.floats(min_value=1e-4, max_value=0.05),
    schedule=st.sampled_from(["guard", "percent"]),
    cross_fade=st.booleans(),
    constant=st.booleans(),
)
@example(tc=1e-4, schedule="guard", cross_fade=False, constant=False)
@example(tc=1e-4, schedule="guard", cross_fade=True, constant=False)
@example(tc=1e-4, schedule="percent", cross_fade=False, constant=False)
@example(tc=1e-4, schedule="percent", cross_fade=True, constant=False)
@example(tc=0.0167, schedule="guard", cross_fade=False, constant=True)
@example(tc=1.6 / 75, schedule="percent", cross_fade=True, constant=False)
def test_array_paths_match_scalar_reference(tc, schedule, cross_fade, constant):
    bank = constant_bank(1000.0) if constant else FieldBank.default()
    config = GaitModelConfig(tc=tc, schedule=PhaseSchedule.preset(schedule))
    traj = generate_gait_cycle(bank, config, cross_fade=cross_fade)
    grid, phases, angles = reference_cycle(bank, config, cross_fade)

    assert np.array_equal(traj.x, grid)
    assert [phase_of(float(x), config.schedule) for x in grid] == phases
    for jkey in gm.JOINT_KEYS:
        # bitwise: same float64 operations in the same order
        assert traj.angles[jkey].tobytes() == angles[jkey].tobytes()

    ranges = RangeTable.default()
    report = validate_ranges(traj)
    violations, checked, summary = reference_validation(traj, ranges)
    assert report.violations == violations
    assert len(report.violations) == len(violations)
    assert report.violations[-3:] == violations[-3:]
    assert report.checked == checked
    assert report.failed == len(violations)
    assert report.ok == (not violations)
    assert report.summary() == summary


def test_report_violations_is_a_read_only_sequence(read_only_sequence):
    traj = generate_gait_cycle(FieldBank.default(), GaitModelConfig(tc=1e-3))
    ranges = RangeTable.default()
    violations, _, _ = reference_validation(traj, ranges)
    read_only_sequence(validate_ranges(traj).violations, violations)


def test_write_tsv_bytes_match_per_value_formatting(tmp_path):
    traj = generate_gait_cycle(FieldBank.default(), GaitModelConfig(tc=1e-4))
    assert len(traj) == 16001
    expected = tmp_path / "expected.tsv"
    with open(expected, "w", encoding="utf-8") as fh:
        fh.write("time\t" + "\t".join(gm.JOINT_KEYS) + "\n")
        for i, xi in enumerate(traj.x):
            row = [f"{xi:.6f}"]
            row += [f"{traj.angles[k][i]:.6f}" for k in gm.JOINT_KEYS]
            fh.write("\t".join(row) + "\n")
    got = tmp_path / "got.tsv"
    traj.write_tsv(got)
    assert got.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# limit cycle
# ---------------------------------------------------------------------------

def test_constant_trajectory_closes():
    traj = generate_gait_cycle(constant_bank(4.0))
    lc = limit_cycle(traj, "left_knee")
    assert np.all(lc.points[:, 1] == 0.0)
    assert lc.closure_gap == 0.0


def test_sine_portrait_closure():
    tc = 1.6 / 96
    x = np.arange(97) * tc
    angles = np.sin(2 * np.pi * x / 1.6)
    traj = generate_gait_cycle(constant_bank(0.0))
    traj.x = x
    traj.angles = {k: angles.copy() for k in gm.JOINT_KEYS}
    traj.tc = tc
    lc = limit_cycle(traj, "left_hip")
    second_diff = np.max(np.abs(np.diff(angles, 2))) / tc
    assert lc.closure_gap < 2.0 * second_diff
    # velocities track the analytic derivative away from the ends
    analytic = (2 * np.pi / 1.6) * np.cos(2 * np.pi * x / 1.6)
    assert np.max(np.abs(lc.points[5:-5, 1] - analytic[5:-5])) < 1e-2


def test_full_cycle_gap_reported_not_asserted():
    lc = limit_cycle(generate_gait_cycle(FieldBank.default()), "right_hip")
    assert math.isfinite(lc.closure_gap)


def test_limit_cycle_needs_three_samples():
    traj = generate_gait_cycle(constant_bank(0.0))
    traj.angles = {k: v[:2] for k, v in traj.angles.items()}
    with pytest.raises(ValueError):
        limit_cycle(traj, "left_hip")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_line_with_degree_two():
    x = np.linspace(0.0, 1.0, 25)
    vf, rms = fit_vector_field(x, 2.0 * x + 1.0, degree=2)
    assert abs(vf.coefficients[0]) < 1e-9
    assert vf.coefficients[1] == pytest.approx(2.0, abs=1e-9)
    assert vf.coefficients[2] == pytest.approx(1.0, abs=1e-9)
    assert rms < 1e-9
    assert vf.error_offset == 0.0


def test_interpolating_fit_zero_residual():
    x = np.array([0.1, 0.4, 0.9, 1.3])
    y = np.array([2.0, -1.0, 0.5, 3.0])
    vf, rms = fit_vector_field(x, y, degree=3)
    assert rms < 1e-8
    assert eval_vector_field(vf, x) == pytest.approx(y, abs=1e-7)


def test_cubic_fit_beats_quadratic_on_cubic_data():
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 1.5, 60)
    y = 3 * x**3 - 2 * x**2 + x + rng.normal(0, 0.05, len(x))
    _, rms3 = fit_vector_field(x, y, degree=3)
    _, rms2 = fit_vector_field(x, y, degree=2)
    assert rms3 <= rms2


def test_fit_invariant_under_sample_permutation():
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 1.2, 40)
    y = 1.5 * x**2 - 0.4 * x + 2.0 + rng.normal(0, 0.01, len(x))
    vf_a, _ = fit_vector_field(x, y, degree=2)
    perm = rng.permutation(len(x))
    vf_b, _ = fit_vector_field(x[perm], y[perm], degree=2)
    assert np.allclose(vf_a.coefficients, vf_b.coefficients, atol=1e-6)


def test_singular_fit_raises():
    with pytest.raises(SingularFitError):
        fit_vector_field(np.full(10, 0.5), np.arange(10.0), degree=2)


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_vector_field([0.0, 1.0], [1.0, 2.0], degree=2)  # too few samples


# ---------------------------------------------------------------------------
# overfit band
# ---------------------------------------------------------------------------

def test_band_vanishes_on_quadratic_data():
    x = np.linspace(0.0, 1.0, 30)
    band = overfit_band(x, 2 * x**2 - x + 0.3)
    assert np.all(band <= 1e-8)


def test_band_positive_on_quartic_data():
    x = np.linspace(0.0, 1.0, 30)
    band = overfit_band(x, x**4)
    assert band.max() > 1e-3


def test_band_matches_independent_evaluation():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.4, 50)
    y = np.sin(3 * x) + rng.normal(0, 0.02, len(x))
    band = overfit_band(x, y)
    f4, _ = fit_vector_field(x, y, degree=4)
    f2, _ = fit_vector_field(x, y, degree=2)
    expected = np.abs(eval_vector_field(f4, x) - eval_vector_field(f2, x))
    assert np.allclose(band, expected, atol=0.0)


def test_band_needs_five_samples():
    with pytest.raises(ValueError):
        overfit_band([0.0, 0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0])
