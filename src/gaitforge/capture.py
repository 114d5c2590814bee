"""Sensor-data ingestion and two-link leg kinematics.

Raw captures arrive either as potentiometer/force-sensor digital counts
(0..999) or as accelerometer coordinate series. Conversions to degrees and
Newtons are fixed affine maps; coordinates go through planar two-link
inverse kinematics to joint angles. Conditioning helpers implement the
capture pipeline's zero correction and smoothing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .records import FrozenRecord
from .tables import read_csv, write_rows


class TimeSeries(FrozenRecord):
    """Uniformly sampled scalar signal."""

    __slots__ = ("values", "dt")

    def __init__(self, values, dt: float = 1.0):
        vals = np.asarray(values, dtype=float)
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"sample period must be positive and finite, got {dt}")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("series values must be finite")
        self._set(vals, dt)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


class TwoLinkGeometry(FrozenRecord):
    """Planar two-link leg: proximal (thigh) and distal (shank) lengths."""

    __slots__ = ("l1", "l2")

    def __init__(self, l1: float = 5.0, l2: float = 4.0):
        if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf):
            raise ValueError(f"link lengths must be finite and positive, got {l1}, {l2}")
        self._set(l1, l2)


COUNTS_MAX = 999
DEGREES_PER_COUNT = 300.0 / 1000.0  # 0..999 counts sweep about 300 degrees
NEWTON_PER_COUNT = 9.8 / 100.0


def _check_counts(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0) or np.any(arr > COUNTS_MAX):
        raise ValueError(f"{name} must lie in [0, {COUNTS_MAX}]")
    return arr


def counts_to_angle(theta_counts, theta0_counts):
    """Potentiometer counts relative to the rest reading, in degrees: an
    array, or a numpy float for two numbers."""
    theta = _check_counts(theta_counts, "theta_counts")
    return (theta - _check_counts(theta0_counts, "theta0_counts")) * DEGREES_PER_COUNT


def counts_to_force(f_counts):
    """Force-sensor counts to Newtons: an array, or a numpy float for a number."""
    return _check_counts(f_counts, "f_counts") * NEWTON_PER_COUNT


class UnreachableError(ValueError):
    """Target point lies outside the arm's annulus; ``index`` is its flat
    index in the batch."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


_REACH_SLACK = 1e-9


def _libm(func, *arrays):
    """``func`` of :mod:`math` over arrays of one shape, element by element:
    libm's bits, which numpy's vector kernels (``np.arctan2`` with AVX512)
    need not give. The result has that shape; for 0-d it is a numpy float."""
    values = map(func, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)[()]


def ik_two_link(x, y, geom: TwoLinkGeometry = TwoLinkGeometry(), elbow: str = "down"):
    """Joint angles (radians) reaching the points (x, y).

    ``x`` and ``y`` are arrays of one shape, or floats, which are 0-d
    arrays; the angles come back in that shape, for a float as numpy
    floats. The elbow branch picks the sign of the knee angle: ``"down"``
    takes the positive root (anatomical knee flexion), ``"up"`` the negative
    one. The cosine is clamped into [-1, 1] so points within 1e-9 of the
    workspace boundary still resolve; the first point beyond that, or with a
    NaN coordinate, raises :class:`UnreachableError`. ``+ - * /`` and
    ``sqrt`` run on whole arrays and ``hypot`` and ``atan2`` are libm's for
    each point, so every angle has the bits of the per-point formula.
    """
    if elbow not in ("up", "down"):
        raise ValueError(f"elbow must be 'up' or 'down', got {elbow!r}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    l1, l2 = geom.l1, geom.l2
    rho = _libm(math.hypot, x, y)
    # "not inside", so that a NaN distance is outside too
    outside = ~((rho >= abs(l1 - l2) - _REACH_SLACK) & (rho <= l1 + l2 + _REACH_SLACK))
    if outside.any():
        i = int(outside.argmax())
        raise UnreachableError(f"point ({float(x.flat[i])}, {float(y.flat[i])}) outside reach "
                               f"[{abs(l1 - l2)}, {l1 + l2}]", i)
    c = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    c = np.minimum(1.0, np.maximum(-1.0, c))
    s = np.sqrt(1.0 - c * c)
    if elbow == "up":
        s = -s
    theta1 = _libm(math.atan2, y, x) - _libm(math.atan2, l2 * s, l1 + l2 * c)
    return theta1, _libm(math.atan2, s, c)


def fk_two_link(theta1, theta2, geom: TwoLinkGeometry = TwoLinkGeometry()):
    """Forward kinematics: returns (elbow point, tip point), each an (x, y)
    pair shaped as the joint angles, which are arrays or floats as for
    :func:`ik_two_link`; ``cos`` and ``sin`` are libm's for each angle."""
    theta1, theta2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
    ex = geom.l1 * _libm(math.cos, theta1)
    ey = geom.l1 * _libm(math.sin, theta1)
    tx = ex + geom.l2 * _libm(math.cos, theta1 + theta2)
    ty = ey + geom.l2 * _libm(math.sin, theta1 + theta2)
    return (ex, ey), (tx, ty)


class DegenerateNormalizationError(ValueError):
    """The batch normalizer max(tmp) vanished."""


def ik_alg1_batch(xs: TimeSeries, ys: TimeSeries,
                  geom: TwoLinkGeometry = TwoLinkGeometry()) -> tuple[TimeSeries, TimeSeries]:
    """Batch accelerometer-to-joint-angle conversion.

    Transcribes the capture pipeline's routine, including its nonstandard
    step of normalizing the knee cosine by the batch maximum, which makes a
    sample's output depend on the rest of the batch. Kept separate from
    :func:`ik_two_link` for that reason. When the batch maximum is 1 the two
    differ only where ``np.arctan2``'s bits differ from libm's ``atan2``, as
    with AVX512: by at most one unit in the last place at pi (4.4e-16 rad)
    in ``theta2``, and two (8.9e-16 rad) in ``theta1``, a difference of two
    arctangents. On an AVX512 Xeon, about 650 ``theta1`` and 1,650 ``theta2``
    values of 20,000 points spread over the reach differ.
    """
    if len(xs) != len(ys):
        raise ValueError("coordinate series must have equal length")
    if len(xs) == 0:
        raise ValueError("empty batch")
    x = xs.values
    y = ys.values
    # coordinates whose squares overflow make NaN angles, which TimeSeries
    # rejects with one message; numpy's warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        tmp = (x * x + y * y - geom.l1 ** 2 - geom.l2 ** 2) / (2.0 * geom.l1 * geom.l2)
        tmp_max = float(np.max(tmp))
        if tmp_max == 0.0:
            raise DegenerateNormalizationError("max(tmp) is zero")
        cos_t2 = np.clip(tmp / tmp_max, -1.0, 1.0)
        sin_t2 = np.sqrt(1.0 - cos_t2 * cos_t2)  # positive root
        k1 = geom.l1 + geom.l2 * cos_t2
        k2 = geom.l2 * sin_t2
        theta1 = np.arctan2(y, x) - np.arctan2(k2, k1)
        theta2 = np.arctan2(sin_t2, cos_t2)
    return TimeSeries(theta1, dt=xs.dt), TimeSeries(theta2, dt=xs.dt)


def zero_correct(series: TimeSeries) -> TimeSeries:
    """Subtract the first sample from the whole series."""
    if len(series) == 0:
        raise ValueError("empty series")
    return TimeSeries(series.values - series.values[0], series.dt)


def _window3(values: np.ndarray) -> np.ndarray:
    return (values[:-2] + values[1:-1] + values[2:]) / 3.0


def smooth_moving_average(series: TimeSeries) -> TimeSeries:
    """Repeated width-3 moving average, resampled back to the input length.

    Each pass shrinks the series by two samples. Passes repeat while the RMS
    change between consecutive passes stays above 1e-4 and the series
    is still longer than half its original length; the result is then
    linearly resampled onto the original grid. Averaging is a convex
    combination, so the output never leaves the input's value range.
    """
    n = len(series)
    if n < 3:
        raise ValueError("need at least 3 samples to smooth")
    prev = series.values
    cur = _window3(prev)
    # a squared change that overflows gives an RMS of inf: keep smoothing
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean((cur - prev[1:-1]) ** 2)))
        while rms > 1e-4 and len(cur) > n / 2 and len(cur) >= 3:
            nxt = _window3(cur)
            rms = float(np.sqrt(np.mean((nxt - cur[1:-1]) ** 2)))
            cur = nxt
    # a single remaining sample (n = 3) interpolates to itself everywhere
    resampled = np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, len(cur)), cur)
    return TimeSeries(resampled, series.dt)


def natural_spline(x, y, xs) -> np.ndarray:
    """Natural cubic spline through the knots (x, y), evaluated at xs.

    x must be strictly increasing, with at least two finite knots, and xs
    sorted (non-decreasing); unsorted xs raise ValueError. Points outside
    the knots extrapolate from the end pieces. The result equals
    scipy 1.17's ``CubicSpline(x, y, bc_type="natural")(xs)`` bit for bit,
    signed zeros included, because every step repeats its operation order:
    EMD stops on a residue with fewer than two extrema, which reacts to the
    last bit of the envelopes, so a spline that only agrees to rounding
    changes features.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs[:-1] <= xs[1:]):
        raise ValueError("evaluation points must be sorted")
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx

    # CubicSpline's tridiagonal system for the slopes at the knots; the end
    # rows are its rows for a prescribed second derivative, here 0.0
    d = np.empty(n)
    du = np.empty(n - 1)
    dl = np.empty(n - 1)
    b = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d[0] = 2 * dx[0]
    du[0] = dx[0]
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
    d[-1] = 2 * dx[-1]
    dl[-1] = dx[-1]
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])

    # LAPACK dgtsv: Gaussian elimination with partial pivoting, which swaps
    # rows i and i+1 where the sub-diagonal outweighs the pivot (at row 0
    # when dx[1] > 2*dx[0]); a swap leaves fill-in in dl[i]
    d, du, dl, b = d.tolist(), du.tolist(), dl.tolist(), b.tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    # back substitution; the dl term stays where dl is 0.0, since
    # subtracting -0.0 turns a -0.0 into 0.0
    b[n - 1] /= d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    s = np.array(b)

    # CubicHermiteSpline's power-form coefficients, highest degree first
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    c2 = s[:-1]
    c3 = y[:-1]

    # PPoly: piece k holds x[k] <= xs < x[k+1], the last piece is closed and
    # the end pieces extrapolate. Over sorted points each piece holds one run,
    # which starts at the first point not below its left knot
    runs = np.diff(np.searchsorted(xs, x[1:-1], side="left"), prepend=0, append=len(xs))
    # powers are summed upward from 0.0 (so a -0.0 knot value comes out as
    # 0.0), not by Horner
    h = xs - np.repeat(x[:-1], runs)
    res = 0.0 + np.repeat(c3, runs) * 1.0
    res += np.repeat(c2, runs) * h
    z = h * h
    res += np.repeat(c1, runs) * z
    z *= h
    res += np.repeat(c0, runs) * z
    return res


def smooth_cubic_spline(series: TimeSeries, knot_stride: int = 5) -> TimeSeries:
    """Natural cubic spline through every ``knot_stride``-th sample,
    evaluated on the original grid."""
    if knot_stride < 1:
        raise ValueError("knot stride must be >= 1")
    n = len(series)
    if n < 3:
        raise ValueError("need at least 3 samples to smooth")
    # n >= 3, so the knots hold both 0 and n - 1
    idx = np.arange(0, n, knot_stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    t = series.times
    return TimeSeries(natural_spline(t[idx], series.values[idx], t), series.dt)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_accelerometer_csv(path) -> dict[str, TimeSeries]:
    """Read the phone-export format: header ``t,x,y,z``, dot decimals.

    Returns the ``x`` and ``y`` series; ``z`` is read and checked like every
    column, and not kept. The sample period is the difference of the first
    two timestamps, or 1.0 for a single row or a difference that is not
    positive. Malformed rows raise with their line number (see
    :func:`gaitforge.tables.read_csv`); sample times that overflow, a period
    or a last time ``(n - 1) * dt`` that is not finite, raise ValueError
    naming ``path``.
    """
    values, _ = read_csv(path, ("t", "x", "y", "z"))
    n = len(values) // 4
    dt = values[4] - values[0] if n > 1 else 1.0
    if dt <= 0.0:
        dt = 1.0
    if not math.isfinite((n - 1) * dt):
        raise ValueError(f"{path}: sample times overflow: period {dt} over {n} samples")
    data = np.array(values).reshape(-1, 4)
    return {"x": TimeSeries(data[:, 1], dt=dt), "y": TimeSeries(data[:, 2], dt=dt)}


def write_joint_angle_csv(path, t: Sequence[float], theta1_deg: Sequence[float],
                          theta2_deg: Sequence[float]) -> None:
    write_rows(path, "t,theta1_deg,theta2_deg", "%.6f,%.6f,%.6f",
               zip(t, theta1_deg, theta2_deg))


def load_joint_angle_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    values, _ = read_csv(path, ("t", "theta1_deg", "theta2_deg"))
    data = np.array(values).reshape(-1, 3)
    return data[:, 0], data[:, 1], data[:, 2]
