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
from dataclasses import dataclass
from enum import Enum

from .tables import write_rows


class Mode(Enum):
    LEFT = "left"
    RIGHT = "right"


class DivergenceError(ArithmeticError):
    """Integration produced a non-finite state."""


class ZenoError(RuntimeError):
    """Impact count exceeded the chattering guard."""


@dataclass(frozen=True)
class BlockParams:
    alpha: float          # block half-angle, radians
    r: float = 1.0        # restitution coefficient
    dt: float = 1e-3      # integrator step, seconds
    restoring_sign: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValueError("alpha must lie in (0, pi/2)")
        if not 0.0 < self.r <= 1.0:
            raise ValueError("restitution must lie in (0, 1]")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class BlockState:
    mode: Mode
    x1: float
    x2: float
    t: float = 0.0


@dataclass(frozen=True)
class ImpactEvent:
    t: float
    pre_velocity: float
    post_velocity: float


@dataclass
class BlockTrace:
    states: list[BlockState]
    impacts: list[ImpactEvent]
    status: str = "completed"  # or "at_rest"

    def write_csv(self, path) -> None:
        impact_times = {e.t for e in self.impacts}
        write_rows(path, "t,mode,x1,x2,event", "%.6f,%s,%.6f,%.6f,%d",
                   ((s.t, s.mode.value, s.x1, s.x2, s.t in impact_times) for s in self.states))


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


def _rk4(mode: Mode, x1: float, x2: float, h: float,
         params: BlockParams) -> tuple[float, float]:
    a, rs = params.alpha, params.restoring_sign
    k1 = flow(mode, x1, x2, a, rs)
    k2 = flow(mode, x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], a, rs)
    k3 = flow(mode, x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], a, rs)
    k4 = flow(mode, x1 + h * k3[0], x2 + h * k3[1], a, rs)
    nx1 = x1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    nx2 = x2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return nx1, nx2


def step(state: BlockState, params: BlockParams) -> BlockState:
    """Advance one RK4 step of ``params.dt``; the mode never changes here."""
    nx1, nx2 = _rk4(state.mode, state.x1, state.x2, params.dt, params)
    if not (math.isfinite(nx1) and math.isfinite(nx2)):
        raise DivergenceError(f"non-finite state at t={state.t + params.dt}")
    return BlockState(mode=state.mode, x1=nx1, x2=nx2, t=state.t + params.dt)


_EVENT_TOL = 1e-10
_REST_TOL = 1e-12
MAX_IMPACTS = 1_000_000
MAX_STATES = 1_000_000  # most integrator steps per run; each state holds ~190 bytes


def _locate_crossing(state: BlockState, params: BlockParams) -> tuple[float, float, float]:
    """Bisect the partial-step size onto the x1 = 0 crossing.

    The bracket shrinks until float resolution runs out, which lands well
    inside the |x1| < 1e-10 localization tolerance and, importantly, pins
    the crossing velocity even when the block creeps across slowly.
    Returns (h, x1, x2) for the partial step from `state` to the crossing.
    """
    left = state.mode == Mode.LEFT
    lo, hi = 0.0, params.dt  # flow at lo has not crossed; at hi it has
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x1, _ = _rk4(state.mode, state.x1, state.x2, mid, params)
        crossed = (x1 > 0.0) if left else (x1 < 0.0)
        if crossed:
            hi = mid
        else:
            lo = mid
    h = hi
    x1, x2 = _rk4(state.mode, state.x1, state.x2, h, params)
    return h, x1, x2


def simulate(init: BlockState, params: BlockParams, t_end: float,
             max_impacts: int = MAX_IMPACTS) -> BlockTrace:
    """Integrate with impact events until ``t_end``.

    A crossing of x1 = 0 with the guard's velocity sign triggers the reset:
    velocity scaled by r, mode flipped. The trace records every integrator
    state plus the post-impact states; impacts carry pre and post velocity.
    Simulation stops early with status ``"at_rest"`` once the post-impact
    speed drops below 1e-12, and raises :class:`ZenoError` past the impact
    budget. A non-finite initial state, a ``t_end`` that is negative or not
    finite, and a run of more than :data:`MAX_STATES` steps raise
    ``ValueError`` before the first step.
    """
    if not all(map(math.isfinite, (init.x1, init.x2, init.t))):
        raise ValueError(f"initial state must be finite, got {init}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if (t_end - init.t) / params.dt > MAX_STATES:
        raise ValueError(f"t_end {t_end} at dt {params.dt} takes over {MAX_STATES} steps")
    domain_ok = init.x1 <= _EVENT_TOL if init.mode == Mode.LEFT else init.x1 >= -_EVENT_TOL
    if not domain_ok:
        raise ValueError(f"initial state violates the {init.mode.value} domain")

    states = [init]
    impacts: list[ImpactEvent] = []
    state = init
    while state.t < t_end - 1e-15:
        nxt = step(state, params)
        left = state.mode == Mode.LEFT
        # a crossing leaves the mode's domain within this step; comparing
        # against the pre-state keeps a grazing pass from re-triggering
        if left:
            crossed = state.x1 <= _EVENT_TOL and nxt.x1 > _EVENT_TOL
        else:
            crossed = state.x1 >= -_EVENT_TOL and nxt.x1 < -_EVENT_TOL
        # guard also wants the matching velocity sign at the crossing
        if crossed:
            h, cx1, cx2 = _locate_crossing(state, params)
            sign_ok = cx2 >= 0.0 if left else cx2 <= 0.0
            if sign_ok:
                t_imp = state.t + h
                post = params.r * cx2
                impacts.append(ImpactEvent(t=t_imp, pre_velocity=cx2, post_velocity=post))
                if len(impacts) > max_impacts:
                    raise ZenoError(f"more than {max_impacts} impacts")
                state = BlockState(
                    mode=Mode.RIGHT if left else Mode.LEFT,
                    x1=cx1, x2=post, t=t_imp,
                )
                states.append(state)
                if abs(post) < _REST_TOL:
                    return BlockTrace(states, impacts, status="at_rest")
                continue
        state = nxt
        states.append(state)
    return BlockTrace(states, impacts, status="completed")
