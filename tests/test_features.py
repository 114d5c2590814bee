import math
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gaitforge.capture import load_joint_angle_csv, natural_spline

from gaitforge.features import (
    IMF,
    MAX_BINS,
    count_extrema,
    count_zero_crossings,
    emd_decompose,
    envelope_mean,
    feature_vector,
    local_maxima,
    local_minima,
    log_energy,
    quartile_stats,
    rms,
    shannon_entropy,
    zero_crossing_rate,
)


def reconstruction_error(signal, imfs, residue):
    total = residue.copy()
    for imf in imfs:
        total = total + imf.values
    return float(np.max(np.abs(signal - total)))


def assert_imf_invariants(imf):
    h = imf.values
    assert abs(count_extrema(h) - count_zero_crossings(h)) <= 1
    mid = envelope_mean(h)
    if mid is not None:
        amp = h.max() - h.min()
        assert abs(np.mean(mid)) <= 0.05 * amp


# ---------------------------------------------------------------------------
# EMD
# ---------------------------------------------------------------------------

def test_monotone_ramp_yields_no_imfs():
    ramp = np.linspace(0.0, 1.0, 64)
    imfs, residue, _ = emd_decompose(ramp)
    assert imfs == []
    assert np.array_equal(residue, ramp)


def test_two_tone_separation():
    t = np.arange(2000) / 1000.0
    signal = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 1 * t)
    imfs, residue, _ = emd_decompose(signal)
    assert len(imfs) >= 2
    fast = np.sin(2 * np.pi * 10 * t)
    corr = np.corrcoef(imfs[0].values, fast)[0, 1]
    assert corr > 0.95
    assert reconstruction_error(signal, imfs, residue) < 1e-9
    for imf in imfs:
        assert_imf_invariants(imf)


def test_reconstruction_on_random_smooth_signals():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 500
        knots = rng.normal(size=12)
        slow = np.interp(np.linspace(0, 1, n), np.linspace(0, 1, 12), knots)
        signal = slow + 0.4 * np.sin(2 * np.pi * 9 * np.linspace(0, 1, n))
        imfs, residue, _ = emd_decompose(signal)
        assert reconstruction_error(signal, imfs, residue) < 1e-9
        for imf in imfs:
            assert_imf_invariants(imf)


def test_residue_has_little_oscillation_left():
    t = np.linspace(0.0, 1.0, 800)
    signal = np.sin(2 * np.pi * 7 * t) + 3.0 * t
    imfs, residue, _ = emd_decompose(signal)
    assert len(imfs) >= 1
    assert count_extrema(residue) < 2 or len(imfs) == 10


def sorted_knot_spline(idx, vals, n):
    """The mirrored-extrema envelope spline with its knots sorted and
    deduplicated first, and a constant fallback below two knots."""
    t = idx.astype(float)
    k = min(2, len(idx))
    tt = np.concatenate([2 * 0.0 - t[:k][::-1], t, 2 * float(n - 1) - t[-k:][::-1]])
    vv = np.concatenate([vals[:k][::-1], vals, vals[-k:][::-1]])
    tt, keep = np.unique(tt, return_index=True)
    vv = vv[keep]
    if len(tt) < 2:
        return np.full(n, vv[0])
    return natural_spline(tt, vv, np.arange(n, dtype=float))


def two_extremum_walk(rise, fall, rise_again, step):
    # up, down, up: one interior maximum, then one interior minimum
    return np.cumsum([0.0] + [step] * rise + [-step] * fall + [step] * rise_again)


WALKS = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=299).map(
        lambda steps: np.cumsum([0.0] + steps)),
    st.builds(two_extremum_walk, st.integers(1, 99), st.integers(1, 99),
              st.integers(1, 99), st.floats(1e-3, 1.0)),
)


@given(WALKS)
@example(np.array([0.0, 1.0, -1.0, 0.0]))
def test_envelope_knots_need_no_sorting(x):
    # the mirrored knots are already strictly increasing, so sorting and
    # deduplicating them changes no bit of the envelope mean
    maxima, minima = local_maxima(x), local_minima(x)
    mean = envelope_mean(x)
    if len(maxima) == 0 or len(minima) == 0:
        assert mean is None
        return
    n = len(x)
    expected = (sorted_knot_spline(maxima, x[maxima], n)
                + sorted_knot_spline(minima, x[minima], n)) / 2.0
    assert mean.tobytes() == expected.tobytes()


def test_short_signal_rejected():
    with pytest.raises(ValueError):
        emd_decompose(np.array([1.0, 2.0, 3.0]))


def test_max_imfs_cap():
    rng = np.random.default_rng(5)
    signal = rng.normal(size=600)
    imfs, _, _ = emd_decompose(signal, max_imfs=2)
    assert len(imfs) <= 2


def test_stop_names_why_the_decomposition_ended():
    assert emd_decompose(np.linspace(0.0, 1.0, 64)).stop == "no_extrema"
    t = np.arange(2000) / 1000.0
    decomposition = emd_decompose(np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * t), max_imfs=1)
    assert (len(decomposition.imfs), decomposition.stop) == (1, "max_imfs")
    assert decomposition[0] is decomposition.imfs


# The seed-1 alg1 cuts decomposed as `features` does, into at most 6 IMFs:
# the SHA-256 of each IMF's and of the residue's bytes, read before the sift
# loop moved into emd_decompose, and the stop. A change to the stop rule
# changes these on purpose.
ALG1_PINS = {
    (200, "theta1"): (
        [
            "52ef0a81d2d2ab4e8143a057779f5f213d7b03135ec5ec92972b51b3fadd29c3",
            "65aaecfa2e8cd1fcf2bfa6b0d1cca0285ba7ee076a9300e6dad5d8f067cbf9cc",
            "be98df6aa3981916dbbd6d125e5259c0ace13e0d953a59e6f887cacf42dc6b72",
        ],
        "61dc4d9831f99dc6f3d7e548e42cdc0e8e7647dc9f1a5f5aa6587a7c0fbcd4ce",
        "no_extrema",
    ),
    (200, "theta2"): (
        [
            "b8e5061c275829b4ca40a31c7197d44bc7304a973228041c87528b2959e813c5",
            "d8ffb4997e62d652310fa1547c6b00dd5ad3d25049c856f9ad06010798541946",
            "de27cd5948852e86ede87958728b28a631dd66cb053a1ba6d588c3821374b55c",
            "941e1a01ffeff9ebd8151fd41be8725ab12883bb1885451bc9455b3800071b62",
        ],
        "456bde9f857a1b3871c799eaca76b46bbf1233053f6808f9b27fe7a96f758cb8",
        "budget",
    ),
    (5000, "theta1"): (
        [
        ],
        "123513c74685d426abe2d9765fad07729fbd8a0d43f3d3aa2d9e804214e3c5df",
        "budget",
    ),
    (5000, "theta2"): (
        [
            "e4b22c35e4ba79aaa0b8ba62cd08867547de555698e9faa10eb4663ea4967530",
            "2eadaa26580f9a5b45cb026b78868061e0fe23b0473b78899d0819bbbbe60690",
            "98da4a7ec663fc46c1a1e545fd4b7955fb61adb0b927ec4b39167f2758010aed",
            "0cec6a926275aefbd3100f40d8c8c6839d25531c64a5e44b0b0c064b4e7fe16d",
            "b5c9ad6cb933e0fd6cfb0df568df04a487f70508d75d4f3bb6689671f9c659cc",
            "8b2e32f245c8737567e6d6dfeb37ebf51242fb3a1ed3fbc545b12044fb4b8982",
        ],
        "26191381bdb07c673f084443c40cc9e709142ea6a59d52ff472d0a2f65da91df",
        "max_imfs",
    ),
}


@pytest.mark.parametrize("rows, joint", ALG1_PINS)
def test_emd_keeps_its_bits_on_raw_alg1_angles(rows, joint, alg1_cuts):
    imf_digests, residue_digest, stop = ALG1_PINS[rows, joint]
    _, theta1, theta2 = load_joint_angle_csv(alg1_cuts[rows])
    decomposition = emd_decompose(theta1 if joint == "theta1" else theta2, max_imfs=6)
    assert [sha256(imf.values.tobytes()).hexdigest() for imf in decomposition.imfs] == \
        imf_digests
    assert sha256(decomposition.residue.tobytes()).hexdigest() == residue_digest
    assert decomposition.stop == stop


@pytest.mark.parametrize("scale", [1e200, 1e307])
def test_huge_finite_signal_runs_out_of_sifts_without_a_warning(scale):
    # RuntimeWarnings are errors here; the overflowing products keep their
    # sign and a NaN SD never passes the stop test, so the mode never converges
    signal = scale * np.sin(np.arange(400) / 5.0)
    imfs, residue, stop = emd_decompose(signal)
    assert (imfs, stop) == ([], "budget")
    assert np.array_equal(residue, signal)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_alternating_signal_zcr():
    fv = feature_vector(np.array([1.0, -1.0, 1.0, -1.0]))
    assert fv.zcr == 1.0
    assert fv.rms == 1.0
    assert fv.min == -1.0 and fv.max == 1.0


def test_constant_signal_features():
    fv = feature_vector(np.full(20, -3.0))
    assert fv.rms == 3.0
    assert fv.zcr == 0.0
    assert fv.shannon_entropy == 0.0


def test_uniform_histogram_maximizes_entropy():
    values = np.linspace(0.0, 1.0, 16, endpoint=False) + 1.0 / 32.0
    assert shannon_entropy(values, bins=16) == pytest.approx(4.0)


def test_entropy_refuses_more_bins_than_the_limit():
    with pytest.raises(ValueError, match=rf"bins must lie in \[1, {MAX_BINS}\], got {MAX_BINS + 1}"):
        shannon_entropy(np.arange(10.0), bins=MAX_BINS + 1)


@pytest.mark.parametrize("values", [[100.0, 99.99999999999999], [1.0, 1.0000000000000002],
                                    [0.0, 5e-324]])
def test_entropy_of_a_range_a_few_ulps_wide(values):
    # numpy's histogram refuses 16 bins on these ranges
    assert shannon_entropy(values) == 1.0


def test_entropy_bounded_by_log2_bins():
    rng = np.random.default_rng(2)
    values = rng.normal(size=500)
    assert 0.0 <= shannon_entropy(values, bins=16) <= 4.0


def test_log_energy_floor_guard():
    assert log_energy(np.zeros(4)) == pytest.approx(4 * math.log(1e-300))
    assert math.isfinite(log_energy(np.array([0.0, 2.0])))


def test_exact_zeros_do_not_count_as_crossings():
    assert zero_crossing_rate(np.array([1.0, 0.0, -1.0])) == 0.0
    assert zero_crossing_rate(np.array([1.0, -1.0, 1.0])) == 1.0


@given(st.lists(st.floats(-100, 100).map(lambda v: 0.0 if abs(v) < 1e-6 else v),
                min_size=2, max_size=50),
       st.floats(min_value=0.01, max_value=50.0))
@example(values=[100.0, 99.99999999999999], c=1.0)
def test_scale_covariance(values, c):
    x = np.asarray(values)
    assert rms(c * x) == pytest.approx(abs(c) * rms(x), rel=1e-9, abs=1e-12)
    assert zero_crossing_rate(c * x) == zero_crossing_rate(x)
    fv = feature_vector(x) if len(x) else None
    if fv is not None:
        scaled = feature_vector(c * x)
        assert scaled.min == pytest.approx(c * fv.min, rel=1e-9, abs=1e-12)
        assert scaled.max == pytest.approx(c * fv.max, rel=1e-9, abs=1e-12)


def test_empty_signal_rejected():
    with pytest.raises(ValueError):
        feature_vector(np.array([]))


# ---------------------------------------------------------------------------
# quartiles
# ---------------------------------------------------------------------------

def test_quartiles_one_to_eight():
    stats = quartile_stats(np.arange(1.0, 9.0))
    assert stats.q2 == 4.5
    assert stats.q1 == 2.5
    assert stats.q3 == 6.5
    assert stats.iqr == 4.0
    assert stats.outliers == ()


def test_all_equal_data():
    stats = quartile_stats(np.full(10, 7.0))
    assert stats.iqr == 0.0
    assert stats.outliers == ()
    assert stats.suspected_outliers == ()


def test_far_point_is_in_both_outlier_lists():
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0])
    stats = quartile_stats(data)
    assert 8 in stats.outliers
    assert 8 in stats.suspected_outliers


def test_suspected_but_not_outlier():
    # with [1..8, 20] the quartiles give fences at 15 (1.5x) and 22.5 (3x)
    probe = np.append(np.arange(1.0, 9.0), 20.0)
    stats = quartile_stats(probe)
    assert 8 in stats.suspected_outliers
    assert 8 not in stats.outliers


def test_quartiles_need_four_samples():
    with pytest.raises(ValueError):
        quartile_stats(np.array([1.0, 2.0, 3.0]))


def loop_fences(x, q1, q3, iqr):
    """The per-sample loop quartile_stats used to list its outliers with."""
    out, suspect = [], []
    for i, v in enumerate(x):
        if v < q1 - 3.0 * iqr or v > q3 + 3.0 * iqr:
            out.append(i)
        if v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr:
            suspect.append(i)
    return tuple(out), tuple(suspect)


def test_outlier_lists_match_the_per_sample_loop():
    rng = np.random.default_rng(11)
    # [1..8, v] with v on a fence: 15 and 22.5 above (q1 2.5, q3 7.5), -6 and
    # -13.5 below (q1 1.5, q3 6.5)
    samples = [np.append(np.arange(1.0, 9.0), v) for v in (15.0, 22.5, -6.0, -13.5)]
    samples += [rng.standard_cauchy(size=rng.integers(4, 60)) for _ in range(50)]
    for x in samples:
        stats = quartile_stats(x)
        lists = (stats.outliers, stats.suspected_outliers)
        assert lists == loop_fences(x, stats.q1, stats.q3, stats.iqr)
        assert all(type(i) is int for i in lists[0] + lists[1])


def test_quartile_ordering_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        stats = quartile_stats(rng.normal(size=rng.integers(4, 40)))
        assert stats.q1 <= stats.q2 <= stats.q3
        assert stats.iqr == pytest.approx(stats.q3 - stats.q1)
