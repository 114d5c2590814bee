"""Piecewise-polynomial gait engine.

One stride is parameterized by a cycle coordinate ``x`` in ``[0, 1.6]``.
The cycle is split into seven sub-phases by a :class:`PhaseSchedule`; inside
each phase, every one of the six leg joints follows its own polynomial
"vector field" (angle as a function of ``x``) with an additive error offset.
This module evaluates those fields, stitches them into full-cycle
trajectories, checks tabulated joint-angle ranges, builds phase portraits,
and fits new fields from captured samples.

Generation, field evaluation and the range check run on the standard
library: a trajectory and a range report are ``array`` columns of plain
floats, so ``gen-gait`` starts without numpy. Only the phase portrait and
the fitting functions import numpy, when they are called.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Mapping, Sequence
from enum import IntEnum

from .records import FrozenRecord, Record
from .tables import ColumnRows, fixture_path, number, read_table, write_rows

CYCLE_LENGTH = 1.6

# The phase-end coordinates of each named schedule, as (name, boundaries)
# pairs: "guard", the default, holds the guard-map thresholds where each
# phase hands over to the next; "percent" fixed fractions of the cycle.
SCHEDULE_PRESETS = (
    ("guard", (0.5, 0.733, 0.9833, 1.1167, 1.2667, 1.4333, 1.600)),
    ("percent", tuple(CYCLE_LENGTH * f for f in (0.10, 0.30, 0.50, 0.60, 0.73, 0.87, 1.00))),
)

DEFAULT_TC = 0.0167

# Thigh and shank length in meters; they pose the stick figures drawn from a
# trajectory, not the trajectory itself.
LINK_LENGTH = 0.4

# Most grid points one cycle may be sampled on, reached at tc just above
# 8e-7 on the default schedule: seven 16 MB float64 columns per trajectory.
MAX_SAMPLES = 2_000_000


class GaitPhase(IntEnum):
    """The seven gait sub-phases, in cyclic order."""

    LR = 0    # loading response
    MST = 1   # mid stance
    TS = 2    # terminal stance
    PS = 3    # pre swing
    IS = 4    # initial swing
    MSW = 5   # mid swing
    TSW = 6   # terminal swing

    @property
    def successor(self) -> "GaitPhase":
        return GaitPhase((int(self) + 1) % 7)


# Column order used by trajectory files.
JOINT_KEYS = ("left_hip", "right_hip", "left_knee", "right_knee", "left_ankle", "right_ankle")


class MissingFieldError(LookupError):
    """A (joint, phase) pair has no vector field in the bank."""


class SingularFitError(ValueError):
    """The least-squares normal system is rank deficient."""


class PhaseSchedule(FrozenRecord):
    """Seven strictly increasing phase-end coordinates; the last one is the
    cycle length, :data:`CYCLE_LENGTH`. Any other last boundary raises
    ``ValueError``: a field's overflow cap covers [0, CYCLE_LENGTH] only, so
    a longer cycle could sample a bank past it into ``inf``."""

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: tuple[float, ...]):
        b = tuple(float(v) for v in boundaries)
        if len(b) != 7:
            raise ValueError(f"expected 7 boundaries, got {len(b)}")
        if b[0] <= 0.0 or any(hi <= lo for lo, hi in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing and positive")
        if b[-1] != CYCLE_LENGTH:
            raise ValueError(f"the last boundary must be the cycle length {CYCLE_LENGTH}, "
                             f"got {b[-1]}")
        self._set(b)

    @property
    def x_max(self) -> float:
        return self.boundaries[-1]

    def interval(self, phase: GaitPhase) -> tuple[float, float]:
        """Half-open-on-the-left interval (lo, hi] owned by `phase`; LR also
        owns x = 0."""
        lo = 0.0 if phase == GaitPhase.LR else self.boundaries[int(phase) - 1]
        return lo, self.boundaries[int(phase)]

    @classmethod
    def preset(cls, name: str) -> "PhaseSchedule":
        """The schedule named ``name`` in SCHEDULE_PRESETS."""
        return cls(dict(SCHEDULE_PRESETS)[name])


def phase_of(x: float, schedule: PhaseSchedule = PhaseSchedule.preset("guard")) -> GaitPhase:
    """The gait phase of one cycle coordinate.

    Guards are strict, so a coordinate sitting exactly on a boundary belongs
    to the earlier phase; x = 0 is LR. Coordinates past the cycle end wrap
    around (the stride repeats). A negative or non-finite coordinate raises
    ValueError.
    """
    x = float(x)
    # bisect would place NaN past the last boundary, so check first
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"cycle coordinate must be finite and >= 0, got {x}")
    if x > schedule.x_max:
        x = math.fmod(x, schedule.x_max)
    return GaitPhase(bisect_left(schedule.boundaries, x))


def _phase_runs(grid: array, schedule: PhaseSchedule) -> list[tuple[int, int, int]]:
    """``(phase ordinal, start, stop)`` slices of an increasing grid in
    ``[0, x_max]``, in order: the grid form of :func:`phase_of`.

    Phase k owns the coordinates in ``(b[k-1], b[k]]``, so its slice ends
    where ``bisect_right`` puts ``b[k]``.
    """
    runs, start = [], 0
    for k, b in enumerate(schedule.boundaries):
        stop = bisect_right(grid, b)
        runs.append((k, start, stop))
        start = stop
    return runs


class PolynomialVectorField(FrozenRecord):
    """Polynomial joint-angle field for one (joint, phase) pair.

    Coefficients are ordered highest degree first. `error_offset` is the
    tabulated constant correction (degrees) added on top of the polynomial.
    """

    __slots__ = ("coefficients", "error_offset")

    def __init__(self, coefficients: tuple[float, ...], error_offset: float = 0.0):
        coeffs = tuple(float(c) for c in coefficients)
        if not 3 <= len(coeffs) <= 5:
            raise ValueError("degree must be between 2 and 4")
        # sum |c_i| * 1.6^(d - i) + |error| caps every Horner step on the
        # generation domain [0, 1.6], so a finite cap means no overflow there
        cap = sum(abs(c) * CYCLE_LENGTH ** k for k, c in enumerate(reversed(coeffs)))
        if not math.isfinite(cap + abs(float(error_offset))):
            raise ValueError(f"coefficients and error offset must be finite, and the field "
                             f"finite on [0, {CYCLE_LENGTH}]")
        self._set(coeffs, error_offset)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def eval_vector_field(vf: PolynomialVectorField, x):
    """Evaluate a field by Horner's scheme, plus the error offset, with the
    float operations generation uses (:func:`_grid_values`).

    A float gives a float; a numpy float array gives an array of the same
    shape, each element evaluated with the same float operations.
    """
    return next(_grid_values(vf, (x,)))


def _grid_values(vf: PolynomialVectorField, xs):
    """The field at each of the grid coordinates ``xs``, lazily, by Horner's
    scheme unrolled per degree. The leading coefficient enters as
    ``c0 + 0.0``, which is what ``0.0 * x + c0`` gives on ``x >= 0`` (a
    ``-0.0`` turns into ``+0.0``)."""
    c0, *rest = vf.coefficients
    a, off = c0 + 0.0, vf.error_offset
    if len(rest) == 2:
        b, c = rest
        return ((a * x + b) * x + c + off for x in xs)
    if len(rest) == 3:
        b, c, d = rest
        return (((a * x + b) * x + c) * x + d + off for x in xs)
    b, c, d, e = rest
    return ((((a * x + b) * x + c) * x + d) * x + e + off for x in xs)


class GaitModelConfig(FrozenRecord):
    """Sampling parameters of the walking model: the grid step `tc` and the
    phase schedule (the guard preset unless given)."""

    __slots__ = ("tc", "schedule")

    def __init__(self, tc: float = DEFAULT_TC,
                 schedule: PhaseSchedule = PhaseSchedule.preset("guard")):
        if not (math.isfinite(tc) and tc > 0.0):
            raise ValueError(f"tc must be finite and strictly positive, got {tc}")
        # n_samples > MAX_SAMPLES exactly when x_max / tc >= MAX_SAMPLES; the
        # ratio may be inf, which floor() cannot take
        if schedule.x_max / tc >= MAX_SAMPLES:
            raise ValueError(f"tc {tc} needs more than {MAX_SAMPLES} samples per cycle")
        self._set(tc, schedule)

    @property
    def n_samples(self) -> int:
        """Grid points in one cycle: 0, tc, 2 tc, ... up to x_max."""
        return int(math.floor(self.schedule.x_max / self.tc)) + 1


class FieldBank:
    """The full 6-joint x 7-phase collection of vector fields. Building one
    that lacks a (joint, phase) pair raises MissingFieldError for the first
    such pair in JOINT_KEYS x GaitPhase order."""

    def __init__(self, fields: Mapping[str, Mapping[str, PolynomialVectorField]]):
        self._fields = {
            joint: dict(phases) for joint, phases in fields.items()
        }
        for jkey in JOINT_KEYS:
            for phase in GaitPhase:
                self.get(jkey, phase)

    def get(self, jkey: str, phase: GaitPhase | str) -> PolynomialVectorField:
        pkey = phase.name if isinstance(phase, GaitPhase) else phase
        try:
            return self._fields[jkey][pkey]
        except KeyError:
            raise MissingFieldError(f"no field for ({jkey}, {pkey})") from None

    def to_dict(self) -> dict:
        return {
            jkey: {
                pkey: {
                    "coeffs": list(vf.coefficients),
                    "error": vf.error_offset,
                }
                for pkey, vf in phases.items()
            }
            for jkey, phases in self._fields.items()
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "FieldBank":
        """Build from ``{joint: {phase: {"coeffs", "error"}}}``, where
        ``coeffs`` is a list of numbers and ``error`` a number, each finite
        (:func:`~gaitforge.tables.number`). A bad number or a missing key
        raises ValueError naming the field; a document of another shape
        raises what its conversion meets, such as an ``AttributeError`` for
        a list where an object belongs, as :func:`~gaitforge.tables.read_table`
        expects. Other keys of a field, such as the ``interval`` the bundled
        bank transcribes, are not read: the phase schedule decides where a
        field applies."""
        fields: dict[str, dict[str, PolynomialVectorField]] = {}
        for jkey, phases in doc.items():
            fields[jkey] = {}
            for pkey, spec in phases.items():
                try:
                    fields[jkey][pkey] = PolynomialVectorField(map(number, spec["coeffs"]),
                                                               number(spec["error"]))
                except KeyError as exc:
                    raise ValueError(f"field ({jkey}, {pkey}) has no {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"field ({jkey}, {pkey}): {exc}") from None
        return cls(fields)

    @classmethod
    def default(cls) -> "FieldBank":
        """The bundled bank; a malformed one raises ``ValueError("{path}:
        malformed model bank: ...")``."""
        return read_table(fixture_path("tables_5_1_to_5_6.json"), "model bank", cls.from_dict)


class BoundaryGap(namedtuple("BoundaryGap", "x from_phase to_phase gaps")):
    """C0 mismatch between adjacent phase fields at the boundary ``x`` (a
    float), from one :class:`GaitPhase` to the next: ``gaps`` maps each
    joint key to ``|f_from(x) - f_to(x)|``."""

    __slots__ = ()


class JointTrajectorySet(Record):
    """Six joint-angle sequences sampled on a shared cycle grid, as
    ``array("d")`` columns: the grid ``x`` (strictly increasing, step
    ``tc``, in ``[0, schedule.x_max]``) and ``angles`` in degrees by joint
    key."""

    __slots__ = ("x", "angles", "tc", "schedule", "boundary_report")

    def __init__(self, x: array, angles: dict[str, array], tc: float,
                 schedule: PhaseSchedule, boundary_report: list[BoundaryGap] | None = None):
        self.x, self.angles = x, angles
        self.tc, self.schedule = tc, schedule
        self.boundary_report = [] if boundary_report is None else boundary_report

    def __len__(self) -> int:
        return len(self.x)

    def write_tsv(self, path) -> None:
        """Tab-separated trajectory: time then the six joint columns, six
        decimal places."""
        write_rows(path, "\t".join(("time",) + JOINT_KEYS),
                   "\t".join(["%.6f"] * (1 + len(JOINT_KEYS))),
                   zip(self.x, *(self.angles[k] for k in JOINT_KEYS)))


def generate_gait_cycle(
    bank: FieldBank,
    config: GaitModelConfig = GaitModelConfig(),
    cross_fade: bool = False,
) -> JointTrajectorySet:
    """Sample all six joints over one full cycle.

    Each grid point takes the active phase's field. Adjacent fields are not
    C0-matched in general, so the per-boundary jump magnitudes are recorded
    in the returned report. With ``cross_fade`` the two fields are blended
    linearly over +-2 samples around each interior boundary, which bounds the
    jerk if the trajectory is to be executed.
    """
    schedule = config.schedule
    tc = config.tc
    grid = array("d", [i * tc for i in range(config.n_samples)])
    # floor(x_max / tc) * tc can round above x_max (as at tc = 1.6 / 75); that
    # point is the cycle end, and takes the last phase as an exact grid does
    grid[-1] = min(grid[-1], schedule.x_max)
    runs = _phase_runs(grid, schedule)

    # one Horner pass per (joint, phase) over that phase's slice of the grid
    angles: dict[str, array] = {}
    for jkey in JOINT_KEYS:
        column = array("d")
        for k, start, stop in runs:
            column.extend(_grid_values(bank.get(jkey, GaitPhase(k)), grid[start:stop]))
        angles[jkey] = column

    report = []
    for phase in GaitPhase:
        b = schedule.boundaries[int(phase)]
        nxt = phase.successor
        # the wrap boundary compares the cycle end against the next cycle start
        x_next = 0.0 if nxt == GaitPhase.LR else b
        gaps = {
            jkey: abs(
                eval_vector_field(bank.get(jkey, phase), b)
                - eval_vector_field(bank.get(jkey, nxt), x_next)
            )
            for jkey in JOINT_KEYS
        }
        report.append(BoundaryGap(x=b, from_phase=phase, to_phase=nxt, gaps=gaps))

    if cross_fade:
        half = 2 * tc
        # interior boundary k ends phase k; a later window overwrites an
        # earlier one where they overlap
        for before, b in zip(GaitPhase, schedule.boundaries[:-1]):
            lo, hi = b - half, b + half
            after = before.successor
            for i in range(bisect_left(grid, lo), bisect_right(grid, hi)):
                x = grid[i]
                w = (x - lo) / (2.0 * half)
                for jkey in JOINT_KEYS:
                    fa = eval_vector_field(bank.get(jkey, before), x)
                    fb = eval_vector_field(bank.get(jkey, after), x)
                    angles[jkey][i] = (1.0 - w) * fa + w * fb

    return JointTrajectorySet(
        x=grid, angles=angles, tc=tc, schedule=schedule,
        boundary_report=report,
    )


# ---------------------------------------------------------------------------
# Joint-angle range table
# ---------------------------------------------------------------------------

# Range rows are keyed by the eight-sub-phase names; a seven-phase trajectory
# checks against the matching seven rows.
RANGE_ROW_OF_PHASE = {
    GaitPhase.LR: "loading_response",
    GaitPhase.MST: "mid_stance",
    GaitPhase.TS: "terminal_stance",
    GaitPhase.PS: "pre_swing",
    GaitPhase.IS: "initial_swing",
    GaitPhase.MSW: "mid_swing",
    GaitPhase.TSW: "terminal_swing",
}


class RangeTable:
    """Admissible angle interval per (sub-phase, joint), built from ``{row:
    {joint: [a, b]}}`` with finite numbers a and b.

    Intervals are stored order-normalized: several source rows print their
    endpoints high-before-low, so the two tabulated values are sorted on
    load. Normalizing twice changes nothing.
    """

    def __init__(self, rows: Mapping[str, Mapping[str, Sequence[float]]]):
        self._rows = {
            row: {jkey: tuple(sorted((number(a), number(b)))) for jkey, (a, b) in joints.items()}
            for row, joints in rows.items()
        }

    def interval(self, row: str | GaitPhase, jkey: str):
        if isinstance(row, GaitPhase):
            row = RANGE_ROW_OF_PHASE[row]
        return self._rows.get(row, {}).get(jkey)

    @classmethod
    def default(cls) -> "RangeTable":
        """The bundled table; a malformed one raises ``ValueError("{path}:
        malformed range table: ...")``."""
        return read_table(fixture_path("joint_ranges.json"), "range table", cls)


class RangeViolation(namedtuple("RangeViolation", "phase joint index x angle lo hi")):
    """One sample outside its tabulated range: the :class:`GaitPhase`, the
    joint key, the sample's ``index`` (an int) and cycle coordinate ``x``,
    and its ``angle`` and the range ``[lo, hi]`` in degrees, as floats."""

    __slots__ = ()


def _violation(j, index, x, phase, angle, lo, hi) -> RangeViolation:
    return RangeViolation(GaitPhase(phase), JOINT_KEYS[j], index, x, angle, lo, hi)


class ValidationReport(Record):
    """Range-check result: the failing samples as parallel ``array`` columns
    in (joint, sample index) order. `joint` holds positions in JOINT_KEYS,
    `phase` GaitPhase ordinals, `lo`/`hi` the interval each sample missed.
    `joint` and `phase` are ``array("B")``, `index` ``array("q")`` and the
    rest ``array("d")``."""

    __slots__ = ("checked", "joint", "index", "x", "phase", "angle", "lo", "hi")

    def __init__(self, checked: int, joint: array, index: array, x: array,
                 phase: array, angle: array, lo: array, hi: array):
        self.checked, self.joint, self.index, self.x = checked, joint, index, x
        self.phase, self.angle, self.lo, self.hi = phase, angle, lo, hi

    @property
    def failed(self) -> int:
        return len(self.index)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def violations(self) -> ColumnRows:
        """The failing samples as RangeViolation items, in (joint, index) order."""
        return ColumnRows(_violation, self.joint, self.index, self.x, self.phase,
                          self.angle, self.lo, self.hi)

    def summary(self) -> str:
        if self.ok:
            return f"all {self.checked} checked samples within tabulated ranges"
        # a failing angle is below lo, above hi or NaN, so the larger of
        # lo - a and a - hi is the one its comparison with lo picks; the
        # first NaN (a NaN angle) is the worst, else the first of equal
        # excesses in (joint, index) order
        w, worst = 0, -math.inf
        for i, (a, lo, hi) in enumerate(zip(self.angle, self.lo, self.hi)):
            e = lo - a if a < lo else a - hi
            if e != e:
                w = i
                break
            if e > worst:
                w, worst = i, e
        joint, phase = JOINT_KEYS[self.joint[w]], GaitPhase(self.phase[w])
        return (
            f"{self.failed} of {self.checked} checked samples out of "
            f"range (worst: {joint} {phase.name} x={self.x[w]:.4f} "
            f"angle={self.angle[w]:.3f} not in [{self.lo[w]:.4f}, {self.hi[w]:.4f}])"
        )


def validate_ranges(traj: JointTrajectorySet) -> ValidationReport:
    """Flag every sample outside its phase's interval in the bundled range
    table.

    Report-only: joints or phases without a tabulated interval are skipped.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    ranges = RangeTable.default()
    runs = _phase_runs(traj.x, traj.schedule)
    report = ValidationReport(checked=0, joint=array("B"), index=array("q"), x=array("d"),
                              phase=array("B"), angle=array("d"), lo=array("d"), hi=array("d"))
    for j, jkey in enumerate(JOINT_KEYS):
        vals = traj.angles[jkey]
        for k, start, stop in runs:
            interval = ranges.interval(GaitPhase(k), jkey)
            if interval is None:
                continue
            lo, hi = interval
            report.checked += stop - start
            # one 0/1 byte per sample; each run of failing samples is copied
            # over as slices
            failing = bytes([not lo <= v <= hi for v in vals[start:stop]])
            for span in re.finditer(b"\x01+", failing):
                a, b = span.start() + start, span.end() + start
                report.joint.frombytes(bytes((j,)) * (b - a))
                report.index.extend(range(a, b))
                report.x.extend(traj.x[a:b])
                report.phase.frombytes(bytes((k,)) * (b - a))
                report.angle.extend(vals[a:b])
                report.lo.extend(array("d", (lo,)) * (b - a))
                report.hi.extend(array("d", (hi,)) * (b - a))
    return report


# ---------------------------------------------------------------------------
# Phase portrait / limit cycle
# ---------------------------------------------------------------------------

class LimitCycle(namedtuple("LimitCycle", "points closure_gap")):
    """Phase portrait of one joint: ``points`` is an (n, 2) array of (angle,
    angular velocity) pairs and ``closure_gap`` the distance (a float)
    between its first and last points."""

    __slots__ = ()


def limit_cycle(traj: JointTrajectorySet, jkey: str) -> LimitCycle:
    """Angle/velocity portrait of one joint over the cycle.

    Velocities come from central differences (one-sided at the ends) on the
    trajectory grid. The closure gap between the first and last points is
    reported, not asserted: a periodic, stable gait closes its loop.
    """
    import numpy as np

    angles = traj.angles[jkey]
    if len(angles) < 3:
        raise ValueError("need at least 3 samples for a phase portrait")
    velocity = np.gradient(angles, traj.tc)
    points = np.column_stack([angles, velocity])
    gap = float(np.hypot(*(points[0] - points[-1])))
    return LimitCycle(points=points, closure_gap=gap)


# ---------------------------------------------------------------------------
# Field fitting
# ---------------------------------------------------------------------------

def fit_vector_field(
    xs: Sequence[float],
    ys: Sequence[float],
    degree: int,
) -> tuple[PolynomialVectorField, float]:
    """Ordinary least-squares polynomial fit of captured (x, angle) samples.

    Solves the normal equations after scaling each Vandermonde column to
    unit norm, which keeps the system well conditioned on the narrow phase
    intervals. Returns the fitted field (error offset zero) and the residual
    RMS.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not 2 <= degree <= 4:
        raise ValueError("degree must be between 2 and 4")
    if len(x) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples for degree {degree}")
    if np.all(x == x[0]):
        raise SingularFitError("all sample abscissae identical")

    vander = np.vander(x, degree + 1)  # highest degree first
    scale = np.sqrt((vander * vander).sum(axis=0))
    scale[scale == 0.0] = 1.0
    v_scaled = vander / scale
    gram = v_scaled.T @ v_scaled
    if np.linalg.matrix_rank(gram) < degree + 1:
        raise SingularFitError("normal system is rank deficient")
    coeffs = np.linalg.solve(gram, v_scaled.T @ y) / scale
    vf = PolynomialVectorField(coefficients=tuple(coeffs), error_offset=0.0)
    residual = y - eval_vector_field(vf, x)
    return vf, float(np.sqrt(np.mean(residual * residual)))


def overfit_band(xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """Per-sample width of the band between a quartic and a quadratic fit.

    The spread between the two fits brackets where the joint angle may vary;
    it collapses to zero when the data is genuinely quadratic.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    if len(x) < 5:
        raise ValueError("need at least 5 samples")
    f4, _ = fit_vector_field(x, ys, degree=4)
    f2, _ = fit_vector_field(x, ys, degree=2)
    return np.abs(eval_vector_field(f4, x) - eval_vector_field(f2, x))
