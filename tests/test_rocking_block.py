import math
import tracemalloc

import numpy as np
import pytest

from gaitforge import rocking_block
from gaitforge.rocking_block import (
    BlockParams,
    BlockState,
    DivergenceError,
    ImpactEvent,
    Mode,
    ZenoError,
    energy,
    flow,
    simulate,
    step,
)


def run_steps(state, params, n):
    for _ in range(n):
        state = step(state, params)
    return state


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_equilibria():
    assert flow(Mode.LEFT, -1.0, 0.0, 0.3) == (0.0, pytest.approx(0.0, abs=1e-15))
    assert flow(Mode.RIGHT, 1.0, 0.0, 0.7) == (0.0, pytest.approx(0.0, abs=1e-15))


def test_flow_hand_evaluation():
    dx1, dx2 = flow(Mode.LEFT, 0.0, 0.5, 0.3)
    assert dx1 == 0.5
    assert dx2 == pytest.approx(math.sin(0.3) / 0.3, abs=1e-15)


def test_restoring_sign_flips_right_mode_only():
    _, plain = flow(Mode.RIGHT, 0.2, 0.0, 0.3)
    _, flipped = flow(Mode.RIGHT, 0.2, 0.0, 0.3, restoring_sign=True)
    assert flipped == -plain
    assert flow(Mode.LEFT, -0.2, 0.0, 0.3) == flow(
        Mode.LEFT, -0.2, 0.0, 0.3, restoring_sign=True
    )


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_equilibrium_is_fixed_point():
    params = BlockParams(alpha=0.4, dt=1e-3)
    state = BlockState(Mode.LEFT, -1.0, 0.0)
    out = run_steps(state, params, 100)
    assert abs(out.x1 + 1.0) < 1e-14
    assert abs(out.x2) < 1e-14


def test_energy_conserved_between_impacts():
    # left mode: the admissible-state energy is a first integral of the flow
    params = BlockParams(alpha=0.3, r=0.5, dt=1e-3)
    state = BlockState(Mode.LEFT, -0.5, 0.0)
    e0 = energy(state, params)
    drift = 0.0
    for _ in range(1000):  # one second
        state = step(state, params)
        drift = max(drift, abs(energy(state, params) - e0))
    assert drift < 1e-8


def test_rk4_self_convergence_order():
    alpha, t_end = 0.35, 0.5

    def integrate(dt):
        params = BlockParams(alpha=alpha, dt=dt)
        state = BlockState(Mode.LEFT, -0.5, 0.1)
        return run_steps(state, params, round(t_end / dt))

    ref = integrate(1e-2 / 64)
    errs = []
    for dt in (1e-2, 5e-3):
        out = integrate(dt)
        errs.append(max(abs(out.x1 - ref.x1), abs(out.x2 - ref.x2)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8
    # halving dt quarters-or-better the error
    assert errs[1] <= errs[0] / 4.0


def test_divergent_state_raises():
    params = BlockParams(alpha=0.3)
    with pytest.raises(DivergenceError):
        step(BlockState(Mode.LEFT, float("nan"), 0.0), params)


def test_stage_overflow_raises_divergence_not_a_math_domain_error():
    # at dt = 1e300 an RK4 stage overflows to inf, where math.sin raises
    # ValueError before the finite check runs
    params = BlockParams(alpha=0.3, dt=1e300)
    with pytest.raises(DivergenceError, match=r"^non-finite state at t=1e\+300$"):
        step(BlockState(Mode.LEFT, -0.5, 0.0), params)
    with pytest.raises(DivergenceError, match=r"^non-finite state at t=1e\+300$"):
        simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 10.0)


def test_param_validation():
    with pytest.raises(ValueError):
        BlockParams(alpha=0.0)
    with pytest.raises(ValueError):
        BlockParams(alpha=0.3, r=0.0)
    with pytest.raises(ValueError):
        BlockParams(alpha=0.3, r=1.5)
    with pytest.raises(ValueError):
        BlockParams(alpha=0.3, dt=0.0)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_equilibrium_trace_has_no_impacts():
    params = BlockParams(alpha=0.3, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -1.0, 0.0), params, 1.0)
    assert trace.impacts == []
    assert all(abs(s.x1 + 1.0) < 1e-12 for s in trace.states)


def test_restitution_scales_velocity_exactly():
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 25.0)
    assert len(trace.impacts) >= 3
    for event in trace.impacts:
        assert event.post_velocity == 0.9 * event.pre_velocity


def test_post_impact_speeds_strictly_decrease():
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 25.0)
    speeds = [abs(e.post_velocity) for e in trace.impacts]
    assert all(b < a for a, b in zip(speeds, speeds[1:]))


def test_modes_alternate_across_impacts():
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 25.0)
    impact_times = [e.t for e in trace.impacts]
    modes = []
    for t in impact_times:
        post = next(s for s in trace.states if s.t == t)
        modes.append(post.mode)
    assert len(modes) >= 3
    assert all(a != b for a, b in zip(modes, modes[1:]))


def test_symmetric_rocking_has_equal_intervals():
    # elastic impacts + restoring right mode: mirror-symmetric excursions
    params = BlockParams(alpha=0.4, r=1.0, dt=1e-4, restoring_sign=True)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 12.0)
    times = [e.t for e in trace.impacts]
    assert len(times) >= 4
    intervals = np.diff(times)[1:]  # the first interval is a half-excursion
    assert intervals.max() - intervals.min() < 1e-6


def test_energy_non_increasing_across_whole_trace():
    # with the restoring sign the per-mode energy is a true invariant, so
    # only the r-contraction at impacts can move it, downward
    params = BlockParams(alpha=0.4, r=0.8, dt=1e-3, restoring_sign=True)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 15.0)
    assert len(trace.impacts) >= 3
    energies = [energy(s, params) for s in trace.states]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-9)


def test_zeno_guard(monkeypatch):
    monkeypatch.setattr(rocking_block, "MAX_IMPACTS", 5)
    params = BlockParams(alpha=0.3, r=0.5, dt=1e-3, restoring_sign=True)
    with pytest.raises(ZenoError):
        simulate(BlockState(Mode.LEFT, -0.3, 0.0), params, 50.0)


def test_block_comes_to_rest():
    # creeping toward the guard: the crossing velocity stays below the rest
    # threshold after scaling by r, so the simulation stops there
    params = BlockParams(alpha=0.3, r=0.5, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -1e-26, 1e-13), params, 1.0)
    assert trace.status == "at_rest"
    assert len(trace.impacts) == 1
    assert abs(trace.impacts[-1].post_velocity) < 1e-12


def test_domain_check_on_init():
    for init, params in [
        (BlockState(Mode.LEFT, 0.5, 0.0), BlockParams(alpha=0.3)),
        # just past vertical, inside the crossing test's tolerance band: the
        # bisection would find the block already across at the start
        (BlockState(Mode.LEFT, 5e-11, -1e-6), BlockParams(alpha=0.3, r=0.9)),
        (BlockState(Mode.RIGHT, -5e-11, 1e-6),
         BlockParams(alpha=0.3, r=0.9, restoring_sign=True)),
    ]:
        with pytest.raises(ValueError,
                           match=f"^initial state violates the {init.mode.value} domain$"):
            simulate(init, params, 1.0)


def test_a_start_on_vertical_is_admitted():
    for mode in Mode:
        for x1 in (0.0, -0.0):
            init = BlockState(mode, x1, 0.0)
            assert simulate(init, BlockParams(alpha=0.3), 0.01).states[0] == init


def test_trace_csv(tmp_path):
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    trace = simulate(BlockState(Mode.LEFT, -0.5, 0.0), params, 5.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mode,x1,x2,event"
    assert len(lines) == len(trace.states) + 1
    assert sum(line.endswith(",1") for line in lines[1:]) == len(trace.impacts)


# ---------------------------------------------------------------------------
# the flat loop against the per-step reference
# ---------------------------------------------------------------------------

def reference_rk4(mode, x1, x2, h, params):
    """Classical RK4 composed from flow, one call per stage."""
    a, rs = params.alpha, params.restoring_sign
    k1 = flow(mode, x1, x2, a, rs)
    k2 = flow(mode, x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1], a, rs)
    k3 = flow(mode, x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1], a, rs)
    k4 = flow(mode, x1 + h * k3[0], x2 + h * k3[1], a, rs)
    nx1 = x1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    nx2 = x2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return nx1, nx2


def reference_simulate(init, params, t_end, max_impacts=rocking_block.MAX_IMPACTS):
    """The per-step loop simulate ran before it kept its state in locals:
    a BlockState per step, stepped and bisected through reference_rk4.
    Returns (states, impacts, status)."""
    tol = 1e-10

    def locate(state):
        left = state.mode == Mode.LEFT
        lo, hi = 0.0, params.dt
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            x1, _ = reference_rk4(state.mode, state.x1, state.x2, mid, params)
            if (x1 > 0.0) if left else (x1 < 0.0):
                hi = mid
            else:
                lo = mid
        return (hi, *reference_rk4(state.mode, state.x1, state.x2, hi, params))

    states, impacts, state = [init], [], init
    while state.t < t_end - 1e-15:
        nx1, nx2 = reference_rk4(state.mode, state.x1, state.x2, params.dt, params)
        if not (math.isfinite(nx1) and math.isfinite(nx2)):
            raise DivergenceError(f"non-finite state at t={state.t + params.dt}")
        nxt = BlockState(state.mode, nx1, nx2, state.t + params.dt)
        left = state.mode == Mode.LEFT
        if left:
            crossed = state.x1 <= tol and nxt.x1 > tol
        else:
            crossed = state.x1 >= -tol and nxt.x1 < -tol
        if crossed:
            h, cx1, cx2 = locate(state)
            if cx2 >= 0.0 if left else cx2 <= 0.0:
                t_imp = state.t + h
                post = params.r * cx2
                impacts.append(ImpactEvent(t_imp, cx2, post))
                if len(impacts) > max_impacts:
                    raise ZenoError(f"more than {max_impacts} impacts")
                state = BlockState(Mode.RIGHT if left else Mode.LEFT, cx1, post, t_imp)
                states.append(state)
                if abs(post) < 1e-12:
                    return states, impacts, "at_rest"
                continue
        state = nxt
        states.append(state)
    return states, impacts, "completed"


def state_bits(s):
    return s.mode, s.t.hex(), s.x1.hex(), s.x2.hex()


def impact_bits(e):
    return e.t.hex(), e.pre_velocity.hex(), e.post_velocity.hex()


@pytest.mark.parametrize("mode", [Mode.LEFT, Mode.RIGHT])
@pytest.mark.parametrize("restoring", [False, True])
# full steps of dt = 1e-3 and 1e-4, bisection's partial steps, and steps so
# long that a regrouped stage sum shows in the last bits of the result
@pytest.mark.parametrize("h", [1e-3, 1e-4, 3.7e-4, 1e-3 / 1024, 0.0, 0.25, 1.0])
def test_rk4_is_classical_rk4_over_flow_bit_for_bit(mode, restoring, h):
    params = BlockParams(alpha=0.37, dt=1e-3, restoring_sign=restoring)
    rng = np.random.default_rng(7)
    x1s = rng.uniform(-1.2, 1.2, size=300)
    x2s = rng.uniform(-1.0, 1.0, size=300) * 10.0 ** rng.uniform(-12, 0, size=300)
    for x1, x2 in list(zip(x1s.tolist(), x2s.tolist())) + [(0.0, 0.0), (-0.0, 1e-13)]:
        got = rocking_block._rk4(mode == Mode.LEFT, x1, x2, h, params.alpha, restoring)
        want = reference_rk4(mode, x1, x2, h, params)
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("init, params, t_end, status", [
    # verbatim equations, completed
    (BlockState(Mode.LEFT, -0.5, 0.0), BlockParams(alpha=0.3, r=0.9), 30.0, "completed"),
    # restoring sign, runs until it comes to rest
    (BlockState(Mode.LEFT, -0.5142, 0.0),
     BlockParams(alpha=0.3, r=0.9, restoring_sign=True), 60.0, "at_rest"),
    # elastic, fine step
    (BlockState(Mode.LEFT, -0.5, 0.0),
     BlockParams(alpha=0.4, r=1.0, dt=1e-4, restoring_sign=True), 6.0, "completed"),
    # creeping onto the guard, at rest after one impact
    (BlockState(Mode.LEFT, -1e-26, 1e-13), BlockParams(alpha=0.3, r=0.5), 1.0, "at_rest"),
    # starting in the right mode
    (BlockState(Mode.RIGHT, 0.3, -0.2, t=2.0),
     BlockParams(alpha=0.5, r=0.7, restoring_sign=True), 14.0, "at_rest"),
    # starting on vertical and moving away: the block swings back across
    # within the first step, so the bisection localizes an impact there
    (BlockState(Mode.LEFT, 0.0, -1e-6), BlockParams(alpha=0.3, r=0.9), 1.0, "completed"),
])
def test_simulate_matches_the_per_step_reference_bit_for_bit(init, params, t_end, status):
    states, impacts, want_status = reference_simulate(init, params, t_end)
    trace = simulate(init, params, t_end)
    assert want_status == trace.status == status
    assert len(trace.states) == len(states)
    assert [state_bits(s) for s in trace.states] == [state_bits(s) for s in states]
    assert [impact_bits(e) for e in trace.impacts] == [impact_bits(e) for e in impacts]


def test_zeno_guard_raises_as_the_reference_does(monkeypatch):
    monkeypatch.setattr(rocking_block, "MAX_IMPACTS", 5)
    params = BlockParams(alpha=0.3, r=0.5, dt=1e-3, restoring_sign=True)
    init = BlockState(Mode.LEFT, -0.3, 0.0)
    with pytest.raises(ZenoError) as want:
        reference_simulate(init, params, 50.0, max_impacts=5)
    with pytest.raises(ZenoError) as got:
        simulate(init, params, 50.0)
    assert str(got.value) == str(want.value) == "more than 5 impacts"


def test_trace_states_is_a_read_only_sequence(read_only_sequence):
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    init = BlockState(Mode.LEFT, -0.5, 0.0)
    trace = simulate(init, params, 5.0)
    states, _, _ = reference_simulate(init, params, 5.0)
    assert len(states) > 5000
    assert trace.states[0] == init
    read_only_sequence(trace.states, states)


def test_sixty_second_trace_keeps_at_most_40_bytes_per_state():
    # the columns are three doubles and a mode byte per state; a BlockState
    # object per state would keep about 184
    params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
    init = BlockState(Mode.LEFT, -0.5, 0.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = simulate(init, params, 60.0)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(trace.states) > 60_000
    assert kept / len(trace.states) <= 40.0
