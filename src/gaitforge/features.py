"""Empirical mode decomposition and the statistical feature set.

Sifting peels a signal into intrinsic mode functions: each IMF oscillates
about zero (its upper/lower envelope midline is near zero and its extremum
and zero-crossing counts differ by at most one), and the decomposition
reconstructs the input exactly as IMFs plus a slow residue. It also says
why it stopped: enough IMFs, no extremum left to sift on, or a sift budget
spent without a mode converging, which leaves that mode in the residue
(:func:`emd_decompose`). Six scalar features summarize a signal or IMF for
classification; box-plot quartile statistics describe its distribution.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from .capture import natural_spline
from .tables import write_rows

MAX_SIFTS = 100
MAX_BINS = 1_000_000         # a histogram's edges and counts: about 16 MB
SIFT_SD_TOL = 0.05           # Cauchy criterion between consecutive sifts
LOG_ENERGY_FLOOR = 1e-300    # squared samples below this contribute log(floor)


class IMF(namedtuple("IMF", "values index")):
    """One intrinsic mode function, on the parent signal's grid: its
    ``values`` (an array) and its ``index`` (an int) in the decomposition."""

    __slots__ = ()


def _as_array(signal) -> np.ndarray:
    return np.asarray(signal, dtype=float)


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of strict interior maxima."""
    return np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]))[0] + 1


def local_minima(x: np.ndarray) -> np.ndarray:
    return np.nonzero((x[1:-1] < x[:-2]) & (x[1:-1] < x[2:]))[0] + 1


def count_extrema(x: np.ndarray) -> int:
    return len(local_maxima(x)) + len(local_minima(x))


def count_zero_crossings(x: np.ndarray) -> int:
    return int(np.count_nonzero(x[1:] * x[:-1] < 0))


def _mirrored_spline(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through the extrema, with up to two extrema
    mirrored across each end so the envelope does not sag at the borders."""
    t = idx.astype(float)
    k = min(2, len(idx))
    # interior extrema lie in [1, n - 2], so the mirrored knots stay outside
    # [0, n - 1] and the knots are strictly increasing, at least 3 of them
    tt = np.concatenate([-t[:k][::-1], t, 2.0 * (n - 1) - t[-k:][::-1]])
    vv = np.concatenate([vals[:k][::-1], vals, vals[-k:][::-1]])
    return natural_spline(tt, vv, np.arange(n, dtype=float))


def _envelope_mean(x: np.ndarray, maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    upper, lower = (_mirrored_spline(idx, x[idx], len(x)) for idx in (maxima, minima))
    return (upper + lower) / 2.0


def envelope_mean(x: np.ndarray) -> np.ndarray | None:
    """Midline of the upper/lower extremum envelopes, or None when the
    signal has too few extrema on either side to sift further."""
    maxima, minima = local_maxima(x), local_minima(x)
    if len(maxima) < 1 or len(minima) < 1:
        return None
    return _envelope_mean(x, maxima, minima)


class Decomposition(namedtuple("Decomposition", "imfs residue stop")):
    """What :func:`emd_decompose` returns: the ``imfs`` (a list of
    :class:`IMF`), the ``residue`` (an array) and why it stopped, ``stop``:
    ``"max_imfs"``, ``"no_extrema"`` or ``"budget"``."""

    __slots__ = ()


def emd_decompose(signal, max_imfs: int = 10) -> Decomposition:
    """Decompose a signal into IMFs plus a residue, and say why it stopped.

    Each IMF is sifted from the residue: the envelope mean is subtracted
    until the iterate's extremum and zero-crossing counts differ by at most
    one and the Cauchy SD between consecutive iterates is below
    ``SIFT_SD_TOL``. Extraction stops at the first of three, named by
    ``stop``: ``max_imfs`` IMFs are kept (``"max_imfs"``); a sift iterate
    lacks a maximum or a minimum, as a monotone residue does
    (``"no_extrema"``); or ``MAX_SIFTS`` sifts pass without the mode passing
    its checks (``"budget"``). The last leaves that mode in the residue: on
    a long noisy signal it can end the decomposition with no IMFs at all. A
    monotone input simply comes back as the residue with no IMFs. The parts
    always sum back to the input. numpy's overflow warnings are silenced: on
    huge but finite values an overflowed product keeps its sign, and an SD
    of NaN fails the SD test.
    """
    residue = np.array(signal, dtype=float)
    if len(residue) < 4:
        raise ValueError("need at least 4 samples to decompose")
    imfs: list[IMF] = []
    with np.errstate(over="ignore"):
        while len(imfs) < max_imfs:
            h = residue
            maxima, minima = local_maxima(h), local_minima(h)
            for _ in range(MAX_SIFTS):
                if len(maxima) < 1 or len(minima) < 1:
                    return Decomposition(imfs, residue, "no_extrema")
                h_prev, h = h, h - _envelope_mean(h, maxima, minima)
                denom = float(np.sum(h_prev * h_prev))
                sd = float(np.sum((h_prev - h) ** 2)) / denom if denom > 0 else 0.0
                # these extrema also feed the next sift's envelopes
                maxima, minima = local_maxima(h), local_minima(h)
                n_extrema = len(maxima) + len(minima)
                if abs(n_extrema - count_zero_crossings(h)) <= 1 and sd < SIFT_SD_TOL:
                    break
            else:
                return Decomposition(imfs, residue, "budget")
            imfs.append(IMF(values=h, index=len(imfs)))
            residue = residue - h
    return Decomposition(imfs, residue, "max_imfs")


class FeatureVector(namedtuple("FeatureVector",
                                "min max shannon_entropy log_energy rms zcr")):
    """The six statistical features used for push/gait classification, each
    a float; ``shannon_entropy`` is in bits."""

    __slots__ = ()


def shannon_entropy(values, bins: int = 16) -> float:
    """Entropy (bits) of an equal-width histogram over [min, max].

    A point mass lands in a single bin and scores 0; a uniform spread over
    all bins scores log2(bins). The bins are ``np.histogram``'s, except on a
    range so narrow (a few ulps) that ``np.linspace(min, max, bins + 1)``
    does not strictly increase, which numpy refuses: there sample ``v`` goes
    to bin ``min(int((v - min) / (max - min) * bins), bins - 1)``, so two
    distinct values one ulp apart score 1 bit. A NaN sample, or a range
    wider than the largest float, raises numpy's ``ValueError``.
    """
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must lie in [1, {MAX_BINS}], got {bins}")
    x = _as_array(values)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return 0.0
    if np.isfinite(hi - lo) and np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0.0):
        counts = np.bincount(np.minimum(((x - lo) / (hi - lo) * bins).astype(np.intp), bins - 1),
                             minlength=bins)
    else:
        counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / len(x)
    return float(-np.sum(p * np.log2(p)))


def log_energy(values) -> float:
    """Sum of log of squared samples, floored so zeros stay finite."""
    x = _as_array(values)
    sq = np.maximum(x * x, LOG_ENERGY_FLOOR)
    return float(np.sum(np.log(sq)))


def rms(values) -> float:
    x = _as_array(values)
    return float(np.sqrt(np.mean(x * x)))


def zero_crossing_rate(values) -> float:
    """Fraction of adjacent sample pairs with opposite signs.

    Exact zeros do not count as crossings; the divisor is T - 1.
    """
    x = _as_array(values)
    if len(x) < 2:
        return 0.0
    return count_zero_crossings(x) / (len(x) - 1)


def feature_vector(signal, bins: int = 16) -> FeatureVector:
    """All six features of a signal or IMF."""
    x = _as_array(signal)
    if len(x) == 0:
        raise ValueError("empty signal")
    return FeatureVector(
        min=float(x.min()),
        max=float(x.max()),
        shannon_entropy=shannon_entropy(x, bins=bins),
        log_energy=log_energy(x),
        rms=rms(x),
        zcr=zero_crossing_rate(x),
    )


class BoxStats(namedtuple("BoxStats", "q1 q2 q3 iqr outliers suspected_outliers")):
    """Box-plot quartile statistics with outlier fences: the quartiles and
    ``iqr`` are floats; ``outliers`` and ``suspected_outliers`` are tuples of
    the sample indices beyond the 3 * IQR and the 1.5 * IQR fences."""

    __slots__ = ()


def quartile_stats(values) -> BoxStats:
    """Quartiles by median-of-halves (the odd middle element belongs to
    neither half), with samples beyond the 3x / 1.5x IQR fences listed as
    outliers and suspected outliers."""
    x = _as_array(values)
    n = len(x)
    if n < 4:
        raise ValueError("need at least 4 samples")
    s = np.sort(x)
    half = n // 2
    q1, q2, q3 = (float(np.median(part)) for part in (s[:half], s, s[n - half:]))
    iqr = q3 - q1

    def beyond(reach: float) -> tuple[int, ...]:
        low, high = q1 - reach * iqr, q3 + reach * iqr
        return tuple(np.flatnonzero((x < low) | (x > high)).tolist())

    return BoxStats(q1=q1, q2=q2, q3=q3, iqr=iqr,
                    outliers=beyond(3.0), suspected_outliers=beyond(1.5))


def write_feature_matrix_csv(path, rows: Sequence[tuple]) -> None:
    """Feature matrix: one row per (subject, joint, imf-index).

    Each row is (subject, joint, imf_index, FeatureVector, label).
    """
    header = "subject,joint,imf_index," + ",".join(FeatureVector._fields) + ",label"
    row_format = "%s,%s,%s," + ",".join(["%.6f"] * len(FeatureVector._fields)) + ",%s"
    write_rows(path, header, row_format,
               ((subj, joint, i, *fv, label) for subj, joint, i, fv, label in rows))
