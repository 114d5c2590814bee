"""Rocking-block abstraction of weight transfer between the legs.

The block leans left or right of vertical; ``x1`` is the lean angle as a
fraction of the block half-angle ``alpha`` and ``x2`` the angular velocity.
Crossing the vertical with matching velocity sign is an impact: the velocity
is scaled by the restitution coefficient and the support edge (the discrete
mode) flips. Flow between impacts is integrated with classical RK4 and the
crossing is localized by bisection.

The printed per-mode accelerations are reproduced verbatim; they make the
right-lean mode accelerate away from vertical, which is almost certainly a
dropped minus sign in the source. ``restoring_sign=True`` flips the
right-mode acceleration so the two modes mirror each other and the block
genuinely rocks.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from enum import Enum
from math import isfinite, sin

from .records import FrozenRecord, Record
from .tables import ColumnRows, write_rows


class Mode(Enum):
    LEFT = "left"
    RIGHT = "right"


class DivergenceError(ArithmeticError):
    """Integration produced a non-finite state."""


class ZenoError(RuntimeError):
    """Impact count exceeded the chattering guard."""


class BlockParams(FrozenRecord):
    """``alpha`` is the block half-angle in radians, ``r`` the restitution
    coefficient and ``dt`` the integrator step in seconds."""

    __slots__ = ("alpha", "r", "dt", "restoring_sign")

    def __init__(self, alpha: float, r: float = 1.0, dt: float = 1e-3,
                 restoring_sign: bool = False):
        if not 0.0 < alpha < math.pi / 2:
            raise ValueError("alpha must lie in (0, pi/2)")
        if not 0.0 < r <= 1.0:
            raise ValueError("restitution must lie in (0, 1]")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {dt}")
        self._set(alpha, r, dt, restoring_sign)


class BlockState(namedtuple("BlockState", "mode x1 x2 t", defaults=(0.0,))):
    """The support edge ``mode`` (a :class:`Mode`), the lean ``x1`` (a
    fraction of ``alpha``) and angular velocity ``x2`` at time ``t`` in
    seconds, as floats."""

    __slots__ = ()


class ImpactEvent(namedtuple("ImpactEvent", "t pre_velocity post_velocity")):
    """One impact: its time ``t`` in seconds and the angular velocity before
    and after it, as floats."""

    __slots__ = ()


_MODES = (Mode.LEFT, Mode.RIGHT)  # a trace's mode column holds the index


def _state(mode, x1, x2, t) -> BlockState:
    return BlockState(_MODES[mode], x1, x2, t)


class BlockTrace(Record):
    """Every recorded state as columns: time, mode index into ``_MODES``,
    ``x1`` and ``x2``; :attr:`states` reads them back as BlockState records.
    ``status`` is "completed" or "at_rest"."""

    __slots__ = ("t", "mode", "x1", "x2", "impacts", "status")

    def __init__(self, t: array, mode: bytearray, x1: array, x2: array,
                 impacts: list[ImpactEvent], status: str = "completed"):
        self.t, self.mode, self.x1, self.x2 = t, mode, x1, x2
        self.impacts, self.status = impacts, status

    @property
    def states(self) -> ColumnRows:
        return ColumnRows(_state, self.mode, self.x1, self.x2, self.t)

    def write_csv(self, path) -> None:
        impact_times = {e.t for e in self.impacts}
        names = [m.value for m in _MODES]
        write_rows(path, "t,mode,x1,x2,event", "%.6f,%s,%.6f,%.6f,%d",
                   ((t, names[mode], x1, x2, t in impact_times)
                    for t, mode, x1, x2 in zip(self.t, self.mode, self.x1, self.x2)))


def flow(mode: Mode, x1: float, x2: float, alpha: float,
         restoring_sign: bool = False) -> tuple[float, float]:
    """Continuous dynamics of the active mode: (dx1, dx2)."""
    if mode == Mode.LEFT:
        dx2 = math.sin(alpha * (1.0 + x1)) / alpha
    else:
        dx2 = math.sin(alpha * (1.0 - x1)) / alpha
        if restoring_sign:
            dx2 = -dx2
    return x2, dx2


def energy(state: BlockState, params: BlockParams) -> float:
    """Normalized mechanical energy, cos(alpha(1 -+ x1)) + (alpha x2)^2 / 2.

    This is the quantity the admissible initial states bound by 1. Under the
    verbatim equations it is a first integral of the left mode only; with
    ``restoring_sign`` both modes conserve it.
    """
    sign = 1.0 if state.mode == Mode.LEFT else -1.0
    return (
        math.cos(params.alpha * (1.0 + sign * state.x1))
        + (params.alpha * state.x2) ** 2 / 2.0
    )


def _rk4(left: bool, x1: float, x2: float, h: float, alpha: float,
         restoring: bool) -> tuple[float, float]:
    """One classical RK4 step of size ``h`` over :func:`flow`, inlined.

    Each stage evaluates ``x + 0.5 * h * k`` and then flow's
    ``sin(alpha * (1.0 + s * x1)) / c`` in flow's order, so the result is
    bit for bit that of RK4 composed from :func:`flow`: ``s * x1`` with
    ``s = -1.0`` and a divisor ``c = -alpha`` are exact negations, which
    give the right mode's ``1.0 - x1`` and the restoring flip after the
    division.
    """
    s = 1.0 if left else -1.0
    c = -alpha if restoring and not left else alpha
    hh = 0.5 * h
    a1 = sin(alpha * (1.0 + s * x1)) / c
    v2 = x2 + hh * a1
    a2 = sin(alpha * (1.0 + s * (x1 + hh * x2))) / c
    v3 = x2 + hh * a2
    a3 = sin(alpha * (1.0 + s * (x1 + hh * v2))) / c
    v4 = x2 + h * a3
    a4 = sin(alpha * (1.0 + s * (x1 + h * v3))) / c
    w = h / 6.0
    return (x1 + w * (x2 + 2.0 * v2 + 2.0 * v3 + v4),
            x2 + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4))


def step(state: BlockState, params: BlockParams) -> BlockState:
    """Advance one RK4 step of ``params.dt``; the mode never changes here."""
    try:
        nx1, nx2 = _rk4(state.mode == Mode.LEFT, state.x1, state.x2, params.dt,
                        params.alpha, params.restoring_sign)
    except ValueError:
        # a stage overflowed to inf, and math.sin raised before the check
        nx1 = nx2 = math.inf
    if not (isfinite(nx1) and isfinite(nx2)):
        raise DivergenceError(f"non-finite state at t={state.t + params.dt}")
    return BlockState(mode=state.mode, x1=nx1, x2=nx2, t=state.t + params.dt)


_EVENT_TOL = 1e-10
_REST_TOL = 1e-12
MAX_IMPACTS = 1_000_000
MAX_STATES = 1_000_000  # most integrator steps per run; each state holds ~27 bytes


def _locate_crossing(left: bool, x1: float, x2: float, dt: float, alpha: float,
                     restoring: bool) -> tuple[float, float, float]:
    """Bisect the partial-step size onto the x1 = 0 crossing.

    The bracket shrinks until float resolution runs out, which lands well
    inside the |x1| < 1e-10 localization tolerance and, importantly, pins
    the crossing velocity even when the block creeps across slowly.
    Returns (h, x1, x2) for the partial step from (x1, x2) to the crossing.
    """
    lo, hi = 0.0, dt  # flow at lo has not crossed; at hi it has
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        mx1, _ = _rk4(left, x1, x2, mid, alpha, restoring)
        crossed = (mx1 > 0.0) if left else (mx1 < 0.0)
        if crossed:
            hi = mid
        else:
            lo = mid
    cx1, cx2 = _rk4(left, x1, x2, hi, alpha, restoring)
    return hi, cx1, cx2


def simulate(init: BlockState, params: BlockParams, t_end: float) -> BlockTrace:
    """Integrate with impact events until ``t_end``.

    A crossing of x1 = 0 with the guard's velocity sign triggers the reset:
    velocity scaled by r, mode flipped. The trace records every integrator
    state plus the post-impact states; impacts carry pre and post velocity.
    Simulation stops early with status ``"at_rest"`` once the post-impact
    speed drops below 1e-12. It raises :class:`ZenoError` past
    :data:`MAX_IMPACTS` impacts, and :class:`DivergenceError` at the first
    state that is not finite. A non-finite initial state, a ``t_end`` that is
    negative or not finite, and a run of more than :data:`MAX_STATES` steps
    raise ``ValueError`` before the first step.
    """
    if not all(map(isfinite, (init.x1, init.x2, init.t))):
        raise ValueError(f"initial state must be finite, got {init}")
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if (t_end - init.t) / params.dt > MAX_STATES:
        raise ValueError(f"t_end {t_end} at dt {params.dt} takes over {MAX_STATES} steps")
    domain_ok = init.x1 <= _EVENT_TOL if init.mode == Mode.LEFT else init.x1 >= -_EVENT_TOL
    if not domain_ok:
        raise ValueError(f"initial state violates the {init.mode.value} domain")

    dt, alpha, restoring, r = params.dt, params.alpha, params.restoring_sign, params.r
    rk4 = _rk4
    left, t, x1, x2 = init.mode == Mode.LEFT, init.t, init.x1, init.x2
    trace = BlockTrace(array("d", [t]), bytearray([not left]), array("d", [x1]),
                       array("d", [x2]), [])
    add_t, add_mode, add_x1, add_x2 = (trace.t.append, trace.mode.append,
                                       trace.x1.append, trace.x2.append)
    impacts = trace.impacts
    t_stop = t_end - 1e-15
    try:
        while t < t_stop:
            nx1, nx2 = rk4(left, x1, x2, dt, alpha, restoring)
            if not (isfinite(nx1) and isfinite(nx2)):
                raise DivergenceError(f"non-finite state at t={t + dt}")
            # a crossing leaves the mode's domain within this step; comparing
            # against the pre-state keeps a grazing pass from re-triggering
            if left:
                impact = x1 <= _EVENT_TOL and nx1 > _EVENT_TOL
            else:
                impact = x1 >= -_EVENT_TOL and nx1 < -_EVENT_TOL
            # guard also wants the matching velocity sign at the crossing
            if impact:
                h, cx1, cx2 = _locate_crossing(left, x1, x2, dt, alpha, restoring)
                impact = (cx2 >= 0.0) if left else (cx2 <= 0.0)
            if impact:
                t += h
                left, x1, x2 = not left, cx1, r * cx2
                impacts.append(ImpactEvent(t=t, pre_velocity=cx2, post_velocity=x2))
                if len(impacts) > MAX_IMPACTS:
                    raise ZenoError(f"more than {MAX_IMPACTS} impacts")
            else:
                t += dt
                x1, x2 = nx1, nx2
            add_t(t)
            add_mode(not left)
            add_x1(x1)
            add_x2(x2)
            if impact and abs(x2) < _REST_TOL:
                trace.status = "at_rest"
                return trace
    except ValueError:
        # a stage of this step or of its crossing bisection overflowed to
        # inf, and math.sin raised before the finite check saw it
        raise DivergenceError(f"non-finite state at t={t + dt}") from None
    return trace
