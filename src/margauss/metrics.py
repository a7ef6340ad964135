"""Empirical distance estimators between projected samples and the standard Gaussian.

Every estimator is an artifact decision, not a prescribed procedure; biased
ones carry an explicit note. The sliced estimator is a lower-bound proxy for
the k-dimensional Wasserstein distance, and the exact matching estimator is
capped because its cost grows cubically.

Phi and Phi^{-1} are a numpy port of the Cephes code behind scipy.special's
`ndtr` and `ndtri`, bit for bit, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import BATCHES, RandomStream, _split

MATCHING_CAP = 2048

METRIC_LABELS = ("w1-1d", "w1-matching", "w1-sliced", "ks", "tv-hist")

# `w1_sliced` works its directions in blocks of _SLICED_BLOCK, which must divide
# SLICED_DIRECTIONS: OpenBLAS's matrix product gives each block of 4 rows exactly
# the rows of the full (SLICED_DIRECTIONS, N) product.
SLICED_DIRECTIONS = 64
_SLICED_BLOCK = 4

TV_BINS, TV_LO, TV_HI = 60, -8.0, 8.0  # the `tv_hist_1d` histogram: 60 bins on [-8, 8]


# Moshier's Cephes `ndtri.c` and `ndtr.c`, the code behind scipy.special's
# `ndtri` and `ndtr`: the same coefficients, operations in the same order.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes `polevl`: Horner's rule from the leading coefficient down."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes `p1evl`: `polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ratio(x: np.ndarray, y: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """x polevl(y, p) / p1evl(y, q), multiplied and divided in Cephes's order."""
    ans = _polevl(y, p)
    ans *= x
    ans /= _p1evl(y, q)
    return ans


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """`fn` (math.log or math.exp: the C library's, as Cephes calls) on each element.

    numpy's SIMD log and exp round differently from the C library on a few
    inputs in a million, enough to move Phi^{-1} on some quantile grids.
    """
    return np.fromiter(map(fn, memoryview(x)), np.float64, x.size)


def _elementwise(fn):
    """Apply an array function to a scalar or array; a scalar or 0-d input gives a scalar."""

    def wrapped(x):
        x = np.asarray(x, dtype=np.float64)
        out = fn(x.ravel()).reshape(x.shape)
        return out[()] if out.ndim == 0 else out

    return wrapped


@_elementwise
def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Phi^{-1}, as Cephes `ndtri`: -inf at 0, inf at 1, NaN outside [0, 1]."""
    out = np.full_like(y0, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXPM2
    yc = y[central]
    yc -= 0.5
    y2 = yc * yc
    x = _ratio(y2, y2, _NDTRI_P0, _NDTRI_Q0)
    x *= yc
    x += yc
    x *= _S2PI
    out[central] = x

    tail = (y > 0.0) & ~central
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    near = x < 8.0  # y > exp(-32)
    zn, zf = z[near], z[~near]
    x0[near] -= _ratio(zn, zn, _NDTRI_P1, _NDTRI_Q1)
    x0[~near] -= _ratio(zf, zf, _NDTRI_P2, _NDTRI_Q2)
    out[tail] = np.where(upper[tail], x0, -x0)
    return out


def _erfc(z: np.ndarray) -> np.ndarray:
    """erfc at z >= sqrt(1/2), as Cephes `erfc`.

    1 - erf(z) below 1; exp(-z^2) P(z)/Q(z) above, with one rational form
    below 8 and another beyond; 0 once exp(-z^2) underflows.
    """
    out = np.zeros_like(z)
    mid = z < 1.0
    zm = z[mid]
    out[mid] = 1.0 - _ratio(zm, zm * zm, _ERF_T, _ERF_U)
    zz = z * z
    tail = ~mid & (zz <= _MAXLOG)
    for at, p, q in ((tail & (z < 8.0), _ERFC_P, _ERFC_Q), (tail & (z >= 8.0), _ERFC_R, _ERFC_S)):
        zb = z[at]
        ex = _libm(math.exp, -zz[at])
        ex *= _polevl(zb, p)
        ex /= _p1evl(zb, q)
        out[at] = ex
    return out


@_elementwise
def _ndtr(a: np.ndarray) -> np.ndarray:
    """Phi, as Cephes `ndtr`.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < sqrt(1/2), else
    0.5 erfc(|x|) for negative x and 1 - 0.5 erfc(|x|) for positive x.
    """
    x = a * _SQRTH
    z = np.abs(x)
    out = np.full_like(a, np.nan)
    inner = z < _SQRTH
    xi = x[inner]
    y = _ratio(xi, xi * xi, _ERF_T, _ERF_U)
    y *= 0.5
    y += 0.5
    out[inner] = y
    outer = z >= _SQRTH
    xo = x[outer]
    y = _erfc(np.abs(xo))
    y *= 0.5
    out[outer] = np.where(xo > 0, 1.0 - y, y)
    return out


class _StandardNormal:
    """N(0,1) ppf, cdf and sf: Cephes `ndtri` and `ndtr` in numpy.

    Bit for bit the values of `scipy.stats.norm`, which evaluates the same
    Cephes code through scipy.special, without loading scipy. Log and exp
    come from `math`, the C library's, on the elements whose branch needs
    them. The estimators reach these functions through the module attribute
    `norm`.
    """

    ppf = staticmethod(_ndtri)
    cdf = staticmethod(_ndtr)

    @staticmethod
    def sf(x):
        return _ndtr(-np.asarray(x, dtype=np.float64))


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


_GRID_LOCK = threading.Lock()


def _gaussian_quantiles(n: int) -> np.ndarray:
    """Phi^{-1}((i - 1/2)/n) for i = 1..n, read-only, computed once per n.

    The cache is keyed on `norm` as well, so a stand-in for it (a counting
    wrapper, say) computes its own grids. The estimators may be called from
    several threads at once (a sweep runs one group at a time, but a caller
    of the library need not); the lock makes a caller that needs a grid
    another thread is computing wait for it rather than compute it again.
    """
    with _GRID_LOCK:
        return _quantile_grid(norm, n)


@lru_cache(maxsize=8)
def _quantile_grid(normal, n: int) -> np.ndarray:
    grid = normal.ppf((np.arange(1, n + 1) - 0.5) / n)
    grid.flags.writeable = False
    return grid


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
    Directions are projected, sorted and compared four at a time, their
    blocks split over the CPUs (`_split`) with one reused (4, N) buffer per
    thread: beyond the samples, the working memory is those buffers and the
    N Gaussian quantiles.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("expected samples of shape (N, k)")
    n, k = samples.shape
    _check_w1_count(n)
    dirs = stream.normal((SLICED_DIRECTIONS, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    quantiles = _gaussian_quantiles(n)
    per_dir = np.empty(SLICED_DIRECTIONS)

    def run(first: int, last: int) -> None:
        block = np.empty((_SLICED_BLOCK, n))  # each sort runs along a contiguous row
        for lo in range(first, last, _SLICED_BLOCK):
            np.matmul(dirs[lo : lo + _SLICED_BLOCK], samples.T, out=block)
            block.sort(axis=1)
            block -= quantiles
            per_dir[lo : lo + _SLICED_BLOCK] = np.abs(block, out=block).mean(axis=1)

    _split(SLICED_DIRECTIONS, _SLICED_BLOCK, run)
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
