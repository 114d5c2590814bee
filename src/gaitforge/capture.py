"""Sensor-data ingestion and two-link leg kinematics.

Raw captures arrive either as potentiometer/force-sensor digital counts
(0..999) or as accelerometer coordinate series. Conversions to degrees and
Newtons are fixed affine maps; coordinates go through planar two-link
inverse kinematics to joint angles. Conditioning helpers implement the
capture pipeline's zero correction and smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .tables import read_csv, write_rows


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    values: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("sample period must be positive")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


@dataclass(frozen=True)
class TwoLinkGeometry:
    """Planar two-link leg: proximal (thigh) and distal (shank) lengths."""

    l1: float = 5.0
    l2: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.l1 < math.inf and 0.0 < self.l2 < math.inf):
            raise ValueError(f"link lengths must be finite and positive, got {self.l1}, {self.l2}")


COUNTS_MAX = 999
DEGREES_PER_COUNT = 300.0 / 1000.0  # 0..999 counts sweep about 300 degrees
NEWTON_PER_COUNT = 9.8 / 100.0


def _check_counts(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0) or np.any(arr > COUNTS_MAX):
        raise ValueError(f"{name} must lie in [0, {COUNTS_MAX}]")
    return arr


def counts_to_angle(theta_counts, theta0_counts):
    """Potentiometer counts relative to the rest reading, in degrees."""
    theta = _check_counts(theta_counts, "theta_counts")
    theta0 = _check_counts(theta0_counts, "theta0_counts")
    out = (theta - theta0) * DEGREES_PER_COUNT
    return float(out) if np.isscalar(theta_counts) else out


def counts_to_force(f_counts):
    """Force-sensor counts to Newtons."""
    f = _check_counts(f_counts, "f_counts")
    out = f * NEWTON_PER_COUNT
    return float(out) if np.isscalar(f_counts) else out


class UnreachableError(ValueError):
    """Target point lies outside the arm's annulus."""


_REACH_SLACK = 1e-9


def ik_two_link(x: float, y: float, geom: TwoLinkGeometry | None = None,
                elbow: str = "down") -> tuple[float, float]:
    """Joint angles (radians) reaching the point (x, y).

    The elbow branch picks the sign of the knee angle: ``"down"`` takes the
    positive root (anatomical knee flexion), ``"up"`` the negative one. The
    cosine is clamped into [-1, 1] so points within 1e-9 of the workspace
    boundary still resolve.
    """
    geom = geom or TwoLinkGeometry()
    l1, l2 = geom.l1, geom.l2
    rho = math.hypot(x, y)
    if rho < abs(l1 - l2) - _REACH_SLACK or rho > l1 + l2 + _REACH_SLACK:
        raise UnreachableError(
            f"point ({x}, {y}) outside reach [{abs(l1 - l2)}, {l1 + l2}]"
        )
    c = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    c = min(1.0, max(-1.0, c))
    s = math.sqrt(1.0 - c * c)
    if elbow == "up":
        s = -s
    elif elbow != "down":
        raise ValueError(f"elbow must be 'up' or 'down', got {elbow!r}")
    theta2 = math.atan2(s, c)
    k1 = l1 + l2 * c
    k2 = l2 * s
    theta1 = math.atan2(y, x) - math.atan2(k2, k1)
    return theta1, theta2


def fk_two_link(theta1: float, theta2: float,
                geom: TwoLinkGeometry | None = None):
    """Forward kinematics: returns (elbow point, tip point)."""
    geom = geom or TwoLinkGeometry()
    ex = geom.l1 * math.cos(theta1)
    ey = geom.l1 * math.sin(theta1)
    tx = ex + geom.l2 * math.cos(theta1 + theta2)
    ty = ey + geom.l2 * math.sin(theta1 + theta2)
    return (ex, ey), (tx, ty)


class DegenerateNormalizationError(ValueError):
    """The batch normalizer max(tmp) vanished."""


def ik_alg1_batch(xs: TimeSeries, ys: TimeSeries,
                  geom: TwoLinkGeometry | None = None) -> tuple[TimeSeries, TimeSeries]:
    """Batch accelerometer-to-joint-angle conversion.

    Transcribes the capture pipeline's routine, including its nonstandard
    step of normalizing the knee cosine by the batch maximum, which makes a
    sample's output depend on the rest of the batch. Kept separate from
    :func:`ik_two_link` for that reason; the two agree exactly when the
    batch maximum is 1.
    """
    geom = geom or TwoLinkGeometry()
    if len(xs) != len(ys):
        raise ValueError("coordinate series must have equal length")
    if len(xs) == 0:
        raise ValueError("empty batch")
    x = xs.values
    y = ys.values
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
    return replace(series, values=series.values - series.values[0])


def _window3(values: np.ndarray) -> np.ndarray:
    return (values[:-2] + values[1:-1] + values[2:]) / 3.0


def smooth_moving_average(series: TimeSeries, rms_tol: float = 1e-4) -> TimeSeries:
    """Repeated width-3 moving average, resampled back to the input length.

    Each pass shrinks the series by two samples. Passes repeat while the RMS
    change between consecutive passes stays above ``rms_tol`` and the series
    is still longer than half its original length; the result is then
    linearly resampled onto the original grid. Averaging is a convex
    combination, so the output never leaves the input's value range.
    """
    n = len(series)
    if n < 3:
        raise ValueError("need at least 3 samples to smooth")
    prev = series.values
    cur = _window3(prev)
    rms = float(np.sqrt(np.mean((cur - prev[1:-1]) ** 2)))
    while rms > rms_tol and len(cur) > n / 2 and len(cur) >= 3:
        nxt = _window3(cur)
        rms = float(np.sqrt(np.mean((nxt - cur[1:-1]) ** 2)))
        cur = nxt
    if len(cur) == 1:
        resampled = np.full(n, cur[0])
    else:
        resampled = np.interp(
            np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, len(cur)), cur
        )
    return replace(series, values=resampled)


def smooth_cubic_spline(series: TimeSeries, knot_stride: int = 5) -> TimeSeries:
    """Natural cubic spline through every ``knot_stride``-th sample,
    evaluated on the original grid."""
    # scipy is imported here, not at the top: it takes most of a second to
    # import and only the spline smoother needs it
    from scipy.interpolate import CubicSpline

    if knot_stride < 1:
        raise ValueError("knot stride must be >= 1")
    n = len(series)
    if n < 3:
        raise ValueError("need at least 3 samples to smooth")
    idx = np.arange(0, n, knot_stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    if len(idx) < 2:
        return replace(series, values=series.values.copy())
    t = series.times
    spline = CubicSpline(t[idx], series.values[idx], bc_type="natural")
    return replace(series, values=spline(t))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_accelerometer_csv(path) -> dict[str, TimeSeries]:
    """Read the phone-export format: header ``t,x,y,z``, dot decimals.

    Returns one series per coordinate; the sample period is taken from the
    first two timestamps (1.0 for a single row). Malformed rows raise with
    their line number (see :func:`gaitforge.tables.read_csv`).
    """
    data = np.asarray(read_csv(path, ("t", "x", "y", "z")))
    dt = float(data[1, 0] - data[0, 0]) if len(data) > 1 else 1.0
    if dt <= 0.0:
        dt = 1.0
    return {
        name: TimeSeries(data[:, i + 1], dt=dt)
        for i, name in enumerate(("x", "y", "z"))
    }


def write_joint_angle_csv(path, t: Sequence[float], theta1_deg: Sequence[float],
                          theta2_deg: Sequence[float]) -> None:
    write_rows(path, "t,theta1_deg,theta2_deg", "%.6f,%.6f,%.6f",
               zip(t, theta1_deg, theta2_deg))


def load_joint_angle_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.asarray(read_csv(path, ("t", "theta1_deg", "theta2_deg")))
    return data[:, 0], data[:, 1], data[:, 2]
