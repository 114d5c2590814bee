"""Sensor ingestion: digital counts, conditioning, and leg kinematics.

Converts raw potentiometer/force counts to physical units, cleans a noisy
series with zero correction and the repeated moving average, and maps planar
coordinates to joint angles through the two-link leg model.
"""

import numpy as np

from gaitforge.capture import (
    TimeSeries, TwoLinkGeometry, counts_to_angle, counts_to_force,
    fk_two_link, ik_alg1_batch, ik_two_link, smooth_moving_average,
    zero_correct,
)

print("digital-count conversions:")
print(f"  200 counts against a 100-count rest reading -> "
      f"{counts_to_angle(200, 100):.1f} deg")
print(f"  100 force counts -> {counts_to_force(100):.1f} N")

geom = TwoLinkGeometry()  # thigh 5, shank 4
print(f"\ntwo-link leg: l1 = {geom.l1}, l2 = {geom.l2}")
theta1, theta2 = ik_two_link(6.0, 2.0, geom)
print(f"  point (6, 2) -> hip {np.degrees(theta1):.2f} deg, "
      f"knee {np.degrees(theta2):.2f} deg")
elbow, tip = fk_two_link(theta1, theta2, geom)
print(f"  forward kinematics lands back on ({tip[0]:.6f}, {tip[1]:.6f})")
# the same functions take arrays: one call for many points
_, knee = ik_two_link(np.array([6.0, 7.0, 8.0]), np.array([2.0, 1.0, 0.5]), geom)
print(f"  points (6, 2), (7, 1), (8, 0.5) -> knee "
      f"{', '.join(f'{k:.2f}' for k in np.degrees(knee))} deg")

rng = np.random.default_rng(1)
t = np.arange(200) * 0.01
raw = 2.0 + np.sin(2 * np.pi * t) + rng.normal(0, 0.15, len(t))
series = TimeSeries(raw, dt=0.01)
zeroed = zero_correct(series)
smooth = smooth_moving_average(zeroed)
print(f"\nconditioning a noisy capture ({len(series)} samples):")
print(f"  first sample after zero correction: {zeroed.values[0]}")
print(f"  sample-to-sample roughness before/after smoothing: "
      f"{np.std(np.diff(zeroed.values)):.4f} / {np.std(np.diff(smooth.values)):.4f}")
print("  (the filter re-averages until the change between passes dies out,")
print("   so it trades amplitude for smoothness)")

xs = TimeSeries(6.0 + 2.0 * np.sin(2 * np.pi * t), dt=0.01)
ys = TimeSeries(2.0 + np.cos(2 * np.pi * t), dt=0.01)
t1, t2 = ik_alg1_batch(xs, ys, geom)
print(f"\nbatch conversion of {len(xs)} coordinate samples:")
print(f"  knee angle range {np.degrees(t2.values.min()):.1f} .. "
      f"{np.degrees(t2.values.max()):.1f} deg")
print("  (the batch routine normalizes by the batch maximum, so results")
print("   depend on batch composition; use ik_two_link for exact geometry)")
