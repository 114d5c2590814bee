"""Generate one full gait cycle from the bundled coefficient tables.

Walks through the trajectory pipeline: load the per-joint, per-phase
polynomial bank, sample all six joints over the cycle, inspect the
phase-boundary discontinuities, and check the result against the tabulated
joint-angle ranges.
"""

import tempfile
from pathlib import Path

from gaitforge import gait_model as gm

bank = gm.FieldBank.default()
config = gm.GaitModelConfig()  # tc = 0.0167, guard schedule

print("phase schedule (guard preset):")
for phase in gm.GaitPhase:
    lo, hi = config.schedule.interval(phase)
    print(f"  {phase.name:>3}: ({lo:.4f}, {hi:.4f}]")

traj = gm.generate_gait_cycle(bank, config)
print(f"\nsampled {len(traj)} grid points at tc = {config.tc}")

print("\nleft hip angle over the first few samples (degrees):")
for i in range(4):
    print(f"  x = {traj.x[i]:.4f} -> {traj.angles['left_hip'][i]:10.3f}")

print("\nC0 jumps at the phase boundaries (left hip):")
for gap in traj.boundary_report:
    print(f"  {gap.from_phase.name:>3} -> {gap.to_phase.name:<3} at x = {gap.x:.4f}: "
          f"{gap.gaps['left_hip']:.3f} deg")

report = gm.validate_ranges(traj)
print(f"\nrange check: {report.summary()}")

cycle = gm.limit_cycle(traj, "left_knee")
print(f"\nleft knee phase portrait: {len(cycle.points)} points, "
      f"closure gap {cycle.closure_gap:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    traj.write_tsv(Path(tmp) / "cycle.tsv")
print(f"\nwrote {len(traj)} rows of time and six joint angles to a TSV file")
