import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from margauss import core, metrics
from margauss.core import substream
from margauss.metrics import (
    SLICED_DIRECTIONS,
    ks_1d,
    tv_hist_1d,
    w1_1d,
    w1_matching,
    w1_noise_floor,
    w1_sliced,
)
from margauss.gauss import gaussian_tv_exact

MEAN_ABS_NORMAL = math.sqrt(2 / math.pi)  # E|Z|


def test_w1_1d_on_gaussian_data():
    samples = substream(60, 0).normal(100_000)
    est = w1_1d(samples)
    assert est.value <= 0.02
    assert est.value <= 3 * w1_noise_floor(100_000)


def test_w1_1d_recovers_translation():
    samples = substream(61, 0).normal(100_000) + 0.5
    est = w1_1d(samples)
    assert abs(est.value - 0.5) < 3 * est.se_or_bias_note


def test_w1_1d_point_mass():
    est = w1_1d(np.zeros(1_000_000))
    assert abs(est.value - MEAN_ABS_NORMAL) < 1e-3


def test_w1_1d_needs_samples():
    with pytest.raises(ValueError):
        w1_1d(np.zeros(50))


def test_w1_matching_identical_and_translation():
    pts = substream(62, 0).normal((300, 3))
    assert w1_matching(pts, pts).value == 0.0
    shifted = pts.copy()
    shifted[:, 0] += 0.75
    assert w1_matching(pts, shifted).value == pytest.approx(0.75, abs=1e-12)


def test_w1_matching_agrees_with_sorted_pairing_1d():
    a = substream(63, 0).normal(400)
    b = substream(63, 1).normal(400)
    matched = w1_matching(a, b).value
    sorted_pairing = np.abs(np.sort(a) - np.sort(b)).mean()
    assert matched == pytest.approx(sorted_pairing, abs=1e-10)


def test_w1_matching_cap():
    pts = np.zeros((3000, 2))
    with pytest.raises(ValueError):
        w1_matching(pts, pts)


def test_w1_sliced_on_gaussian_data():
    samples = substream(64, 0).normal((100_000, 4))
    est = w1_sliced(samples, substream(64, 1))
    assert est.value <= 0.03


def test_w1_sliced_detects_scaling():
    samples = 2.0 * substream(65, 0).normal((100_000, 3))
    est = w1_sliced(samples, substream(65, 1))
    # Every slice sees N(0, 4) against N(0, 1): W1 = E|2Z| - E|Z| = E|Z|.
    allowance = 3 * est.se_or_bias_note + 2 * w1_noise_floor(est.count)
    assert abs(est.value - MEAN_ABS_NORMAL) < allowance


def test_w1_sliced_below_matching():
    scale = 1.5
    samples = scale * substream(66, 0).normal((1024, 3))
    reference = substream(66, 1).normal((1024, 3))
    sliced = w1_sliced(samples, substream(66, 2))
    matched = w1_matching(samples, reference)
    assert sliced.value <= matched.value + 3 * sliced.se_or_bias_note


def _full_matrix_w1_sliced(samples, directions, stream):
    """w1_sliced with the whole (directions, N) projection matrix, kept as the reference."""
    n, k = samples.shape
    dirs = stream.normal((directions, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    values = dirs @ samples.T
    values.sort(axis=1)
    values -= norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    per_dir = np.abs(values, out=values).mean(axis=1)
    return float(per_dir.mean()), float(per_dir.std(ddof=1) / math.sqrt(directions))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("directions", [SLICED_DIRECTIONS])
def test_w1_sliced_matches_full_matrix_bit_for_bit(k, directions):
    # w1_sliced works in blocks of four directions; each block must equal its
    # rows of the full product.
    samples = substream(75, k).normal((30_001, k))
    est = w1_sliced(samples, substream(68, directions))
    value, se = _full_matrix_w1_sliced(samples, directions, substream(68, directions))
    assert est.value == value and est.se_or_bias_note == se


@pytest.mark.parametrize("k", [2, 3])
def test_w1_sliced_does_not_depend_on_cores(k, monkeypatch):
    # The 16 blocks of four directions split into 1, 2 and 3 ranges (16, 8 + 8
    # and 5 + 5 + 6 blocks); each thread writes its own directions' values.
    samples = substream(76, k).normal((1234, k))
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(core, "_cores", lambda: cores)
        est = w1_sliced(samples, substream(69, k))
        runs.append((est.value, est.se_or_bias_note))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_ks_on_gaussian_data():
    samples = substream(67, 0).normal(100_000)
    est = ks_1d(samples)
    assert est.value <= 1.95 / math.sqrt(100_000) * 1.5


def test_ks_point_mass():
    assert ks_1d(np.zeros(10_000)).value == pytest.approx(0.5, abs=1e-4)


def test_ks_shifted_normal_matches_analytic_sup():
    samples = substream(68, 0).normal(100_000) + 0.2
    est = ks_1d(samples)
    analytic = 2 * norm.cdf(0.1) - 1  # sup at x = 0.1
    assert abs(est.value - analytic) < 3 * est.se_or_bias_note


def test_tv_hist_on_gaussian_data():
    samples = substream(69, 0).normal(1_000_000)
    est = tv_hist_1d(samples)
    assert est.value <= 0.02
    assert "bias" in est.se_or_bias_note


def test_tv_hist_detects_inflated_variance():
    samples = math.sqrt(1.25) * substream(70, 0).normal(1_000_000)
    est = tv_hist_1d(samples)
    exact = gaussian_tv_exact(1.0, math.sqrt(1.25), 1)
    assert abs(est.value - exact) < 0.01


def test_tv_hist_tail_mass_negligible():
    assert norm.cdf(-6) + norm.sf(6) < 1e-8


def test_estimators_vanish_on_quantile_grid():
    n = 100_000
    grid = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert w1_1d(grid).value == 0.0
    assert ks_1d(grid).value <= 0.5 / n + 1e-12
    assert tv_hist_1d(grid).value <= 62.0 / n + 1e-6


def test_metric_ordering_on_identical_data():
    samples = math.sqrt(1.25) * substream(71, 0).normal(200_000)
    ks = ks_1d(samples).value
    tv = tv_hist_1d(samples).value
    bias_allowance = math.sqrt(60 / 200_000)
    assert ks <= tv + bias_allowance


def test_w1_consistency_rate():
    small, large = [], []
    for seed in range(20):
        small.append(w1_1d(substream(72, seed).normal(10_000)).value)
        large.append(w1_1d(substream(73, seed).normal(40_000)).value)
    ratio = np.mean(small) / np.mean(large)
    assert 1.6 <= ratio <= 2.6


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def test_norm_matches_scipy_stats_bit_for_bit():
    # metrics.norm is a numpy port of Cephes ndtri and ndtr; scipy.stats.norm
    # and scipy.special, which wrap the compiled Cephes code, are the references.
    sizes = [*range(100, 4000), 6_000, 7_500, 10_000, 30_000, 100_000, 120_000, 150_000]
    grids = [(np.arange(1, n + 1) - 0.5) / n for n in sizes]
    for lo in range(0, len(grids), 200):  # 200 grids per call: the values are elementwise
        q = np.concatenate(grids[lo : lo + 200])
        assert _same(metrics.norm.ppf(q), ndtri(q)) and _same(metrics.norm.ppf(q), norm.ppf(q))
    q = (np.arange(1, 2_000_001) - 0.5) / 2_000_000
    assert _same(metrics.norm.ppf(q), ndtri(q))
    far = np.array([1e-15, 1e-20, 1e-100, 1e-300, 5e-324])  # x >= 8 in ndtri
    edge = np.array([0.0, 1.0, -0.1, 1.1, np.nan])
    for q in (far, 1.0 - far, edge):
        assert _same(metrics.norm.ppf(q), ndtri(q)) and _same(metrics.norm.ppf(q), norm.ppf(q))

    stream = substream(74, 0)
    draws = stream.normal(1_000_000)
    wide = stream.uniform(1_000_000) * 80.0 - 40.0
    edges = np.histogram_bin_edges([], bins=60, range=(-8.0, 8.0))
    # ndtr switches branch at |x| = 1, sqrt(2) and 8 sqrt(2), and exp(-x^2/2)
    # underflows near |x| = 37.7: 64 steps of b's ulp on each side of each b.
    steps = np.arange(-64, 65)
    boundaries = np.concatenate([
        b + steps * np.spacing(b)
        for b in (1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * metrics._MAXLOG))
    ])
    boundaries = np.concatenate([boundaries, -boundaries])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0])
    for x in (draws, wide, edges, boundaries, special):
        assert _same(metrics.norm.cdf(x), ndtr(x)) and _same(metrics.norm.cdf(x), norm.cdf(x))
        assert _same(metrics.norm.sf(x), ndtr(-x)) and _same(metrics.norm.sf(x), norm.sf(x))
    for x in [*special.tolist(), 0.3, -2.5, 9.0]:
        for value in (x, np.array(x)):  # a Python float and a 0-d array give a scalar
            for ours, ref in ((metrics.norm.cdf, norm.cdf), (metrics.norm.sf, norm.sf),
                              (metrics.norm.ppf, norm.ppf)):
                got = ours(value)
                assert np.ndim(got) == 0 and _same(got, ref(value))


def test_gaussian_quantiles_are_cached_read_only():
    grid = metrics._gaussian_quantiles(1_000)
    assert metrics._gaussian_quantiles(1_000) is grid
    assert np.array_equal(grid, norm.ppf((np.arange(1, 1_001) - 0.5) / 1_000))
    with pytest.raises(ValueError):
        grid[0] = 0.0


def test_w1_estimates_same_bits_from_a_cold_and_a_warm_cache():
    samples = substream(76, 0).normal((6_000, 2))
    runs = []
    for _ in range(2):
        metrics._quantile_grid.cache_clear()
        for _ in range(2):  # cold, then warm
            runs.append((w1_1d(samples[:, 0]), w1_sliced(samples, substream(76, 1))))
    assert all(run == runs[0] for run in runs)


def test_w1_1d_matches_definition_and_shares_batch_quantiles(monkeypatch):
    n = 150_000
    samples = substream(75, 0).normal(n) * 1.1
    batches = samples.reshape(20, -1)
    value = np.abs(np.sort(samples) - norm.ppf((np.arange(1, n + 1) - 0.5) / n)).mean()
    batch_grid = norm.ppf((np.arange(1, n // 20 + 1) - 0.5) / (n // 20))
    batch_vals = [np.abs(np.sort(b) - batch_grid).mean() for b in batches]
    se = np.std(batch_vals, ddof=1) / math.sqrt(20)

    counted = []

    class CountingNorm:
        def ppf(self, q):
            counted.append(q.size)
            return norm.ppf(q)

    monkeypatch.setattr(metrics, "norm", CountingNorm())
    est = w1_1d(samples)
    assert est.value == value and est.se_or_bias_note == se
    assert counted == [n, n // 20]  # the 20 batches share one quantile array


def test_w1_noise_floor_constant():
    # sqrt(2/pi) * integral sqrt(Phi (1 - Phi)) = 1.2884, the constant the
    # README and the benchmark state.
    for count in (1, 10_000, 2_000_000):
        assert w1_noise_floor(count) * math.sqrt(count) == pytest.approx(1.2884, rel=1e-4)
