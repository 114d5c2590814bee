import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from gaitforge.capture import (
    DegenerateNormalizationError,
    TimeSeries,
    TwoLinkGeometry,
    UnreachableError,
    counts_to_angle,
    counts_to_force,
    fk_two_link,
    ik_alg1_batch,
    ik_two_link,
    load_accelerometer_csv,
    load_joint_angle_csv,
    natural_spline,
    smooth_cubic_spline,
    smooth_moving_average,
    write_joint_angle_csv,
    zero_correct,
)

from conftest import fk_point, ik_point


# ---------------------------------------------------------------------------
# digital-count conversions
# ---------------------------------------------------------------------------

def test_angle_conversion_examples():
    assert counts_to_angle(500, 500) == 0.0
    assert counts_to_angle(999, 0) == pytest.approx(299.7)
    assert counts_to_angle(200, 100) == pytest.approx(30.0)


def test_force_conversion_examples():
    assert counts_to_force(0) == 0.0
    assert counts_to_force(100) == 9.8
    assert counts_to_force(50) == pytest.approx(4.9)


def test_count_range_errors():
    with pytest.raises(ValueError):
        counts_to_angle(1000, 0)
    with pytest.raises(ValueError):
        counts_to_angle(10, -1)
    with pytest.raises(ValueError):
        counts_to_force(1000)


@given(st.integers(min_value=0, max_value=999), st.integers(min_value=0, max_value=999))
def test_angle_conversion_is_affine_and_invertible(theta, theta0):
    angle = counts_to_angle(theta, theta0)
    recovered = angle / (300.0 / 1000.0) + theta0
    assert recovered == pytest.approx(theta, abs=1e-9)


@given(st.integers(min_value=0, max_value=999))
def test_force_conversion_invertible(f):
    assert counts_to_force(f) / (9.8 / 100.0) == pytest.approx(f, abs=1e-9)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def test_full_extension():
    geom = TwoLinkGeometry()
    t1, t2 = ik_two_link(geom.l1 + geom.l2, 0.0, geom)
    assert t1 == pytest.approx(0.0, abs=1e-12)
    assert t2 == pytest.approx(0.0, abs=1e-12)


def test_default_geometry_matches_capture_routine():
    geom = TwoLinkGeometry()
    assert (geom.l1, geom.l2) == (5.0, 4.0)


def test_fk_examples():
    geom = TwoLinkGeometry()
    _, tip = fk_two_link(0.0, 0.0, geom)
    assert tip == (pytest.approx(9.0), pytest.approx(0.0, abs=1e-12))
    _, tip = fk_two_link(math.pi / 2, 0.0, geom)
    assert tip[0] == pytest.approx(0.0, abs=1e-12)
    assert tip[1] == pytest.approx(9.0)


def test_fk_ik_named_angles_roundtrip():
    geom = TwoLinkGeometry()
    _, tip = fk_two_link(0.5236, 0.7854, geom)
    t1, t2 = ik_two_link(*tip, geom)
    assert t1 == pytest.approx(0.5236, abs=1e-9)
    assert t2 == pytest.approx(0.7854, abs=1e-9)


def test_roundtrip_100_random_reachable_points():
    geom = TwoLinkGeometry()
    rng = np.random.default_rng(1)
    for _ in range(100):
        t1 = rng.uniform(-math.pi, math.pi)
        t2 = rng.uniform(0.0, math.pi)
        _, tip = fk_two_link(t1, t2, geom)
        r1, r2 = ik_two_link(*tip, geom, elbow="down")
        _, tip2 = fk_two_link(r1, r2, geom)
        assert math.hypot(tip[0] - tip2[0], tip[1] - tip2[1]) < 1e-9


def test_elbow_up_branch():
    geom = TwoLinkGeometry()
    _, tip = fk_two_link(0.4, -0.9, geom)
    r1, r2 = ik_two_link(*tip, geom, elbow="up")
    assert r2 == pytest.approx(-0.9, abs=1e-9)
    assert r1 == pytest.approx(0.4, abs=1e-9)


def test_unreachable_points():
    geom = TwoLinkGeometry()
    with pytest.raises(UnreachableError):
        ik_two_link(10.0, 0.0, geom)
    with pytest.raises(UnreachableError):
        ik_two_link(0.1, 0.0, geom)  # inside the annulus hole


def test_boundary_point_within_slack_resolves():
    geom = TwoLinkGeometry(l1=1.0, l2=1.0)
    t1, t2 = ik_two_link(2.0 + 5e-10, 0.0, geom)
    assert t2 == pytest.approx(0.0, abs=1e-4)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64).tolist()


@st.composite
def reach_points(draw):
    """A geometry, an elbow and points spread over its reach or within 2e-9
    of either reach circle, where the clamp acts or the point is out of reach."""
    l1, l2 = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    lo, hi = abs(l1 - l2), l1 + l2
    rho = st.one_of(st.floats(lo, hi),
                    st.tuples(st.sampled_from([lo, hi]), st.floats(-2e-9, 2e-9)).map(sum))
    polar = st.tuples(rho, st.floats(-math.pi, math.pi))
    points = draw(st.lists(polar, min_size=1, max_size=30))
    xy = [(r * math.cos(phi), r * math.sin(phi)) for r, phi in points]
    return TwoLinkGeometry(l1, l2), draw(st.sampled_from(["down", "up"])), xy


@given(reach_points())
def test_ik_arrays_equal_the_per_point_formula_bit_for_bit(case):
    geom, elbow, xy = case
    refs = [ik_point(x, y, geom.l1, geom.l2, elbow) for x, y in xy]
    xs, ys = (np.array(column) for column in zip(*xy))
    if None in refs:
        # the first point out of reach is the one named
        i = refs.index(None)
        with pytest.raises(UnreachableError) as err:
            ik_two_link(xs, ys, geom, elbow)
        assert err.value.index == i
        assert str(err.value) == (f"point ({xy[i][0]}, {xy[i][1]}) outside reach "
                                  f"[{abs(geom.l1 - geom.l2)}, {geom.l1 + geom.l2}]")
    else:
        theta1, theta2 = ik_two_link(xs, ys, geom, elbow)
        assert bits(theta1) == bits([r[0] for r in refs])
        assert bits(theta2) == bits([r[1] for r in refs])
    # a float is a 0-d array, and its angles come back as numpy floats
    if refs[0] is None:
        with pytest.raises(UnreachableError):
            ik_two_link(*xy[0], geom, elbow)
    else:
        angles = ik_two_link(*xy[0], geom, elbow)
        assert all(type(a) is np.float64 for a in angles)
        assert bits(angles) == bits(refs[0])


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=30))
def test_fk_arrays_equal_the_per_point_formula_bit_for_bit(l1, l2, angles):
    geom = TwoLinkGeometry(l1, l2)
    refs = [fk_point(t1, t2, l1, l2) for t1, t2 in angles]
    t1, t2 = (np.array(column) for column in zip(*angles))
    (ex, ey), (tx, ty) = fk_two_link(t1, t2, geom)
    assert bits(np.stack([ex, ey, tx, ty], axis=1)) == bits([sum(r, ()) for r in refs])
    points = fk_two_link(*angles[0], geom)
    assert all(type(v) is np.float64 for point in points for v in point)
    assert bits(points) == bits(refs[0])


def test_ik_batch_clamps_at_the_circles_and_names_the_first_unreachable_point():
    geom = TwoLinkGeometry()
    # 9 + 5e-10 and 1 - 5e-10 are within the slack, where the cosine is clamped
    xs = np.array([6.0, 9.0 + 5e-10, 1.0 - 5e-10, 20.0, 0.0])
    ys = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
    theta1, theta2 = ik_two_link(xs[:3], ys[:3], geom)
    assert bits(theta2) == bits([ik_point(6.0, 2.0, 5.0, 4.0, "down")[1], 0.0, math.pi])
    with pytest.raises(UnreachableError) as err:
        ik_two_link(xs, ys, geom)
    assert err.value.index == 3
    assert str(err.value) == "point (20.0, 0.0) outside reach [1.0, 9.0]"
    # a NaN coordinate is not inside the reach, though no comparison with it holds
    for x, y, index, point in ((math.nan, 0.0, 0, "nan, 0.0"),
                               (xs[:3], [2.0, math.nan, 0.0], 1, "9.0000000005, nan"),
                               ([6.0, math.nan, 20.0], [2.0, math.nan, 0.0], 1, "nan, nan")):
        with pytest.raises(UnreachableError) as err:
            ik_two_link(x, y, geom)
        assert err.value.index == index
        assert str(err.value) == f"point ({point}) outside reach [1.0, 9.0]"


def test_bad_elbow_is_refused_before_the_reach_check():
    with pytest.raises(ValueError, match="elbow must be 'up' or 'down'") as err:
        ik_two_link(100.0, 0.0, TwoLinkGeometry(), elbow="sideways")
    assert not isinstance(err.value, UnreachableError)


# ---------------------------------------------------------------------------
# batch routine with max-normalization
# ---------------------------------------------------------------------------

def test_single_sample_full_extension():
    xs = TimeSeries(np.array([9.0]))
    ys = TimeSeries(np.array([0.0]))
    t1, t2 = ik_alg1_batch(xs, ys)
    assert t2.values[0] == pytest.approx(0.0, abs=1e-12)


def test_constant_series_gives_constant_output():
    xs = TimeSeries(np.full(10, 6.0))
    ys = TimeSeries(np.full(10, 2.0))
    t1, t2 = ik_alg1_batch(xs, ys)
    assert np.all(t1.values == t1.values[0])
    assert np.all(t2.values == t2.values[0])


def test_agrees_with_exact_ik_when_batch_max_is_one():
    # include a full-extension sample so max(tmp) == 1
    geom = TwoLinkGeometry()
    xs = TimeSeries(np.array([9.0, 5.0, 6.0, 7.5]))
    ys = TimeSeries(np.array([0.0, 3.0, 2.0, 1.0]))
    t1, t2 = ik_alg1_batch(xs, ys, geom)
    for i, (x, y) in enumerate(zip(xs.values, ys.values)):
        e1, e2 = ik_two_link(float(x), float(y), geom)
        assert t1.values[i] == e1
        assert t2.values[i] == e2


def test_agrees_with_exact_ik_to_two_ulp_of_pi_on_a_random_batch():
    # 20,000 points spread over the reach, and one at full extension so that
    # the batch maximum is 1; only np.arctan2 against libm's atan2 differs
    geom = TwoLinkGeometry()
    rng = np.random.default_rng(7)
    rho = np.sqrt(rng.uniform(1.0, 81.0, 20_000))
    phi = rng.uniform(-math.pi, math.pi, 20_000)
    xs = np.append(rho * np.cos(phi), 9.0)
    ys = np.append(rho * np.sin(phi), 0.0)
    t1, t2 = ik_alg1_batch(TimeSeries(xs), TimeSeries(ys), geom)
    e1, e2 = ik_two_link(xs, ys, geom)
    eps = np.finfo(float).eps
    assert np.max(np.abs(t1.values - e1)) <= 4.0 * eps
    assert np.max(np.abs(t2.values - e2)) <= 2.0 * eps


def test_degenerate_normalization():
    geom = TwoLinkGeometry(l1=1.0, l2=1.0)
    # x^2 + y^2 == l1^2 + l2^2 makes tmp identically zero
    xs = TimeSeries(np.array([1.0]))
    ys = TimeSeries(np.array([1.0]))
    with pytest.raises(DegenerateNormalizationError):
        ik_alg1_batch(xs, ys, geom)


def test_length_mismatch():
    with pytest.raises(ValueError):
        ik_alg1_batch(TimeSeries(np.zeros(3)), TimeSeries(np.zeros(4)))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_zero_correct_examples():
    assert list(zero_correct(TimeSeries(np.array([5.0, 7.0, 9.0]))).values) == [0.0, 2.0, 4.0]
    assert np.all(zero_correct(TimeSeries(np.full(5, 3.3))).values == 0.0)


def test_zero_correct_idempotent():
    series = TimeSeries(np.array([2.0, -1.0, 4.0]))
    once = zero_correct(series)
    assert np.array_equal(zero_correct(once).values, once.values)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.floats(-10, 10))
def test_zero_correct_linear(values, scale):
    arr = np.asarray(values)
    lhs = zero_correct(TimeSeries(arr * scale)).values
    rhs = scale * zero_correct(TimeSeries(arr)).values
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-6)


def test_zero_correct_empty():
    with pytest.raises(ValueError):
        zero_correct(TimeSeries(np.array([])))


def test_smooth_constant_unchanged():
    series = TimeSeries(np.full(11, 2.5))
    assert np.allclose(smooth_moving_average(series).values, 2.5, atol=1e-12)


def test_smooth_single_pass_hand_trace():
    out = smooth_moving_average(TimeSeries(np.array([0.0, 3.0, 0.0])))
    assert np.allclose(out.values, [1.0, 1.0, 1.0])


def test_smooth_preserves_length():
    rng = np.random.default_rng(0)
    for n in (3, 5, 20, 101):
        series = TimeSeries(rng.normal(size=n))
        assert len(smooth_moving_average(series)) == n


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=40))
def test_smoothing_is_a_convex_combination(values):
    series = TimeSeries(np.asarray(values))
    out = smooth_moving_average(series).values
    assert out.max() <= series.values.max() + 1e-9
    assert out.min() >= series.values.min() - 1e-9


def test_smooth_needs_three_samples():
    with pytest.raises(ValueError):
        smooth_moving_average(TimeSeries(np.array([1.0, 2.0])))


def test_spline_smoother_interpolates_knots():
    t = np.arange(21.0)
    series = TimeSeries(np.sin(t / 3.0), dt=1.0)
    out = smooth_cubic_spline(series, knot_stride=5)
    assert len(out) == len(series)
    # knots are reproduced exactly
    for i in range(0, 21, 5):
        assert out.values[i] == pytest.approx(series.values[i], abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 300), spacing=st.sampled_from(["uniform", "irregular", "jumps"]),
       exponent=st.floats(-6.0, 6.0), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2, spacing="irregular", exponent=0.0, zeros=False, seed=0)
@example(n=2, spacing="uniform", exponent=-6.0, zeros=True, seed=1)
@example(n=3, spacing="jumps", exponent=6.0, zeros=False, seed=2)
@example(n=3, spacing="irregular", exponent=0.0, zeros=True, seed=3)
def test_natural_spline_equals_scipy_bit_for_bit(n, spacing, exponent, zeros, seed):
    rng = np.random.default_rng(seed)
    if spacing == "uniform":
        dx = np.full(n - 1, rng.uniform(0.1, 10.0))
    elif spacing == "irregular":
        dx = np.exp(rng.uniform(-5.0, 5.0, n - 1))
    else:
        # every second step more than doubles its predecessor, so LAPACK's
        # dgtsv swaps rows, starting with row 0 (dx[1] > 2 * dx[0])
        dx = rng.uniform(0.5, 1.0, n - 1)
        dx[1::2] *= rng.uniform(4.5, 40.0, len(dx[1::2]))
    x = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(dx)])
    y = rng.standard_normal(n) * 10.0 ** exponent
    if zeros:
        y[rng.integers(0, n, 2)] = [0.0, -0.0]
    span = x[-1] - x[0]
    # the knots themselves and repeats of them, points between the knots,
    # some repeated, and points beyond both ends
    between = rng.uniform(x[0] - span, x[-1] + span, 64)
    xs = np.concatenate([x, between, x[rng.integers(0, n, 8)], between[:8],
                         [x[0] - 2.0 * span, x[-1] + 2.0 * span]])
    points = np.sort(xs)
    got = natural_spline(x, y, points)
    want = CubicSpline(x, y, bc_type="natural")(points)
    # int64 views tell 0.0 from -0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("xs", [[0.5, 0.25], [0.0, 1.0, 0.5, 2.0], [0.0, math.nan, 1.0]])
def test_natural_spline_refuses_unsorted_points(xs):
    with pytest.raises(ValueError, match="evaluation points must be sorted"):
        natural_spline([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], xs)


def test_natural_spline_sums_from_positive_zero_as_scipy_does():
    # at the first knot every term is a signed zero and the knot value is
    # -0.0; scipy's power sum starts from 0.0, so the spline gives 0.0 there
    x = np.array([0.0, 1.0, 4.0, 5.0])
    y = np.array([-0.0, -1.0, -3.0, -1.0])
    got = natural_spline(x, y, x)
    want = CubicSpline(x, y, bc_type="natural")(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert math.copysign(1.0, got[0]) == 1.0


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def test_accelerometer_csv_roundtrip(tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.01,1.5,2.5,3.5\n")
    series = load_accelerometer_csv(path)
    assert series["x"].dt == pytest.approx(0.01)
    assert list(series["y"].values) == [2.0, 2.5]


def test_accelerometer_csv_keeps_x_and_y_only(tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n")
    series = load_accelerometer_csv(path)
    assert sorted(series) == ["x", "y"]
    assert series["x"].dt == 1.0


@pytest.mark.parametrize("times", [
    ("-1e308", "1e308", "1e308"),      # the period overflows
    ("0", "1e308", "1e308"),           # the period is finite, the last time is not
])
def test_accelerometer_csv_refuses_overflowing_times(times, tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("t,x,y,z\n" + "".join(f"{t},6.0,2.0,0.0\n" for t in times))
    with pytest.raises(ValueError, match=r"acc\.csv: sample times overflow"):
        load_accelerometer_csv(path)


@pytest.mark.parametrize("times, dt", [
    (("0.5",), 1.0),                   # one row
    (("1e308", "-1e308"), 1.0),        # a step that is not positive
    (("0", "1e307", "2e307"), 1e307),  # large, but every time is finite
])
def test_accelerometer_csv_sample_period(times, dt, tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("t,x,y,z\n" + "".join(f"{t},6.0,2.0,0.0\n" for t in times))
    assert load_accelerometer_csv(path)["y"].dt == dt


def test_accelerometer_csv_line_numbered_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.01,oops,2.5,3.5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_accelerometer_csv(path)
    path.write_text("time,x,y\n")
    with pytest.raises(ValueError, match="line 1"):
        load_accelerometer_csv(path)


def test_joint_angle_csv_roundtrip(tmp_path):
    path = tmp_path / "angles.csv"
    t = [0.0, 0.1, 0.2]
    write_joint_angle_csv(path, t, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    rt, a, b = load_joint_angle_csv(path)
    assert np.allclose(rt, t)
    assert np.allclose(a, [1.0, 2.0, 3.0])
    assert np.allclose(b, [4.0, 5.0, 6.0])


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0]), dt=0.0)
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="sample period must be positive"):
            TimeSeries(np.array([1.0]), dt=dt)
