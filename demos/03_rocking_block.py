"""Rocking-block walking abstraction: flow, impacts, and energy.

Simulates the block leaning back and forth across vertical. Each crossing
scales the angular velocity by the restitution coefficient and flips the
support edge, so the post-impact speeds contract geometrically.
"""

import tempfile
from pathlib import Path

from gaitforge.rocking_block import (
    BlockParams, BlockState, Mode, energy, simulate,
)

params = BlockParams(alpha=0.3, r=0.9, dt=1e-3)
init = BlockState(Mode.LEFT, x1=-0.5, x2=0.0)
print(f"initial energy: {energy(init, params):.6f}")

trace = simulate(init, params, t_end=25.0)
print(f"simulated {trace.states[-1].t:.1f} s: {len(trace.impacts)} impacts, "
      f"status {trace.status}")

print("\nimpact log (velocity scaled by r = 0.9, support edge flips):")
for event in trace.impacts:
    print(f"  t = {event.t:7.3f}  pre {event.pre_velocity:+.4f} -> "
          f"post {event.post_velocity:+.4f}")

# with the restoring sign the two lean directions mirror each other and an
# elastic block settles into a periodic rock
elastic = BlockParams(alpha=0.4, r=1.0, dt=1e-4, restoring_sign=True)
trace2 = simulate(BlockState(Mode.LEFT, -0.5, 0.0), elastic, t_end=12.0)
times = [e.t for e in trace2.impacts]
intervals = [b - a for a, b in zip(times, times[1:])]
print("\nelastic, restoring-sign inter-impact intervals:")
print("  " + "  ".join(f"{iv:.6f}" for iv in intervals))

with tempfile.TemporaryDirectory() as tmp:
    trace.write_csv(Path(tmp) / "block.csv")
print(f"\nwrote {len(trace.states)} rows of t, mode, x1, x2 and event to a CSV file")
