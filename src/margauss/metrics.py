"""Empirical distance estimators between projected samples and the standard Gaussian.

Every estimator is an artifact decision, not a prescribed procedure; biased
ones carry an explicit note. The sliced estimator is a lower-bound proxy for
the k-dimensional Wasserstein distance, and the exact matching estimator is
capped because its cost grows cubically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

from .core import BATCHES, RandomStream

MATCHING_CAP = 2048

METRIC_LABELS = ("w1-1d", "w1-matching", "w1-sliced", "ks", "tv-hist")

# `w1_sliced` works its directions in blocks of _SLICED_BLOCK, which must divide
# SLICED_DIRECTIONS: OpenBLAS's matrix product gives each block of 4 rows exactly
# the rows of the full (SLICED_DIRECTIONS, N) product.
SLICED_DIRECTIONS = 64
_SLICED_BLOCK = 4

TV_BINS, TV_LO, TV_HI = 60, -8.0, 8.0  # the `tv_hist_1d` histogram: 60 bins on [-8, 8]


class _StandardNormal:
    """N(0,1) ppf, cdf and sf from scipy.special, without loading scipy.stats.

    They are the functions `scipy.stats.norm` evaluates, bit for bit. The
    estimators reach them through the module attribute `norm`.
    """

    ppf = staticmethod(ndtri)
    cdf = staticmethod(ndtr)

    @staticmethod
    def sf(x):
        return ndtr(-x)


norm = _StandardNormal()


@dataclass(frozen=True)
class DistanceEstimate:
    metric: str
    value: float
    se_or_bias_note: Union[float, str]
    count: int
    k: int

    def __post_init__(self):
        if self.metric not in METRIC_LABELS:
            raise ValueError(f"unknown metric label {self.metric!r}")
        if self.value < 0:
            raise ValueError("distance estimates must be nonnegative")


def _as_1d(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2 and samples.shape[1] == 1:
        samples = samples[:, 0]
    if samples.ndim != 1:
        raise ValueError("one-dimensional samples required")
    return samples


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("expected samples of shape (N,) or (N, k)")
    return x


def _gaussian_quantiles(n: int) -> np.ndarray:
    return norm.ppf((np.arange(1, n + 1) - 0.5) / n)


def _check_w1_count(n: int) -> None:
    """The sample minimum of both W1 estimators, `w1_1d` and `w1_sliced`."""
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")


def _quantile_w1(sorted_samples: np.ndarray, quantiles: np.ndarray) -> float:
    return float(np.abs(sorted_samples - quantiles).mean())


def w1_1d(samples: np.ndarray) -> DistanceEstimate:
    """Empirical W1 against N(0,1): mean |x_(i) - Phi^{-1}((i - 1/2)/N)|.

    The standard error comes from BATCHES-way batching; the estimator has an
    upward sampling bias of order N^{-1/2} (see `w1_noise_floor`).
    """
    samples = _as_1d(samples)
    n = len(samples)
    _check_w1_count(n)
    value = _quantile_w1(np.sort(samples), _gaussian_quantiles(n))
    batches = samples[: (n // BATCHES) * BATCHES].reshape(BATCHES, -1)
    batch_quantiles = _gaussian_quantiles(batches.shape[1])  # every batch has the same length
    batch_vals = [_quantile_w1(np.sort(batch), batch_quantiles) for batch in batches]
    se = float(np.std(batch_vals, ddof=1) / math.sqrt(BATCHES))
    return DistanceEstimate(metric="w1-1d", value=value, se_or_bias_note=se, count=n, k=1)


@lru_cache(maxsize=1)
def _w1_floor_constant() -> float:
    from scipy import integrate  # imported here: slow to load

    integral, _ = integrate.quad(lambda x: math.sqrt(norm.cdf(x) * norm.sf(x)), -12, 12)
    return math.sqrt(2.0 / math.pi) * integral


def w1_noise_floor(count: int) -> float:
    """Expected w1_1d value on exact standard-normal data of this size.

    sqrt(2/(pi N)) * integral sqrt(Phi (1 - Phi)); the resolution limit of the
    estimator, useful as a bias allowance when comparing against oracles.
    """
    return _w1_floor_constant() / math.sqrt(count)


def w1_matching(samples_a: np.ndarray, samples_b: np.ndarray) -> DistanceEstimate:
    """Exact minimum-cost perfect matching under Euclidean cost, divided by N."""
    a = _as_points(samples_a)
    b = _as_points(samples_b)
    if a.shape != b.shape:
        raise ValueError(f"sample shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n > MATCHING_CAP:
        raise ValueError(f"matching cost is cubic; capped at N <= {MATCHING_CAP}, got {n}")
    from scipy.optimize import linear_sum_assignment  # imported here: slow to load

    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt(np.sum(diff**2, axis=2))
    rows, cols = linear_sum_assignment(cost)
    value = float(cost[rows, cols].sum() / n)
    return DistanceEstimate(
        metric="w1-matching",
        value=value,
        se_or_bias_note="exact transport on the realized samples",
        count=n,
        k=a.shape[1],
    )


def w1_sliced(samples: np.ndarray, stream: RandomStream) -> DistanceEstimate:
    """Average 1-D W1 to N(0,1) over SLICED_DIRECTIONS uniform random directions.

    A lower-bound proxy for the k-dimensional W1 distance to the standard
    Gaussian (projections are 1-Lipschitz); SE is across directions.
    Directions are projected, sorted and compared four at a time in one
    reused (4, N) buffer: beyond the samples, the working memory is that
    buffer and the N Gaussian quantiles.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("expected samples of shape (N, k)")
    n, k = samples.shape
    _check_w1_count(n)
    dirs = stream.normal((SLICED_DIRECTIONS, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    quantiles = _gaussian_quantiles(n)
    block = np.empty((_SLICED_BLOCK, n))  # each sort runs along a contiguous row
    per_dir = np.empty(SLICED_DIRECTIONS)
    for lo in range(0, SLICED_DIRECTIONS, _SLICED_BLOCK):
        np.matmul(dirs[lo : lo + _SLICED_BLOCK], samples.T, out=block)
        block.sort(axis=1)
        block -= quantiles
        per_dir[lo : lo + _SLICED_BLOCK] = np.abs(block, out=block).mean(axis=1)
    se = float(per_dir.std(ddof=1) / math.sqrt(SLICED_DIRECTIONS))
    return DistanceEstimate(
        metric="w1-sliced", value=float(per_dir.mean()), se_or_bias_note=se, count=n, k=k
    )


def ks_1d(samples: np.ndarray) -> DistanceEstimate:
    """Kolmogorov statistic sup_x |empirical CDF - Phi(x)| at the sample points.

    The reported SE is the binomial standard error of the CDF at the
    maximizing point.
    """
    samples = _as_1d(samples)
    n = len(samples)
    x = np.sort(samples)
    cdf = norm.cdf(x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d_plus, d_minus = upper.max(), lower.max()
    if d_plus >= d_minus:
        at = cdf[int(np.argmax(upper))]
        value = float(d_plus)
    else:
        at = cdf[int(np.argmax(lower))]
        value = float(d_minus)
    se = math.sqrt(max(at * (1.0 - at), 1.0 / (4 * n)) / n)
    return DistanceEstimate(metric="ks", value=value, se_or_bias_note=se, count=n, k=1)


def tv_hist_1d(samples: np.ndarray) -> DistanceEstimate:
    """Histogram total-variation distance to N(0,1), TV_BINS bins on [TV_LO, TV_HI].

    Sum over bins of |empirical - Gaussian| mass plus both tail masses, in
    the density-L1 normalization (so the value is at most 2). Biased upward
    by bin noise O(sqrt(bins/N)) and downward by discretization.
    """
    samples = _as_1d(samples)
    n = len(samples)
    counts, edges = np.histogram(samples, bins=TV_BINS, range=(TV_LO, TV_HI))
    emp = counts / n
    gauss_mass = np.diff(norm.cdf(edges))
    emp_tail = 1.0 - emp.sum()
    gauss_tail = float(norm.cdf(TV_LO) + norm.sf(TV_HI))
    value = float(np.abs(emp - gauss_mass).sum() + emp_tail + gauss_tail)
    bias = math.sqrt(TV_BINS / n)
    note = f"upward bias O(sqrt(bins/N)) ~ {bias:.1e}; downward discretization bias"
    return DistanceEstimate(metric="tv-hist", value=value, se_or_bias_note=note, count=n, k=1)
