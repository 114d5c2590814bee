"""Empirical mode decomposition and the six-feature summary.

Splits a two-tone signal into intrinsic mode functions, verifies the parts
sum back to the input, and computes the statistical features used for
push/gait classification plus box-plot quartiles.
"""

import numpy as np

from gaitforge.features import emd_decompose, feature_vector, quartile_stats

t = np.arange(2000) / 1000.0
signal = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 1 * t)

imfs, residue, stop = emd_decompose(signal)
recon = residue + sum(imf.values for imf in imfs)
print(f"decomposed into {len(imfs)} IMFs (stopped on {stop}); reconstruction error "
      f"{np.max(np.abs(signal - recon)):.2e}")

for imf in imfs:
    corr10 = np.corrcoef(imf.values, np.sin(2 * np.pi * 10 * t))[0, 1]
    corr1 = np.corrcoef(imf.values, np.sin(2 * np.pi * 1 * t))[0, 1]
    print(f"  IMF{imf.index}: corr with 10 Hz {corr10:+.3f}, with 1 Hz {corr1:+.3f}")

print("\nfeature vectors (min, max, entropy, log-energy, rms, zcr):")
for imf in imfs:
    fv = feature_vector(imf.values)
    print(f"  IMF{imf.index}: " + " ".join(f"{v:9.3f}" for v in fv))

stats = quartile_stats(imfs[0].values)
print(f"\nIMF0 box plot: q1 {stats.q1:.3f}, median {stats.q2:.3f}, "
      f"q3 {stats.q3:.3f}, IQR {stats.iqr:.3f}, "
      f"{len(stats.suspected_outliers)} suspected outliers")
