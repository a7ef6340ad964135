"""One-dimensional grid densities, Gaussian mollification, and smoothing checks.

Densities live on a uniform grid wide enough that Gaussian tails are far
below every tolerance in use; convolution is plain quadrature, so the L1
smoothing inequalities can be verified numerically without any analytic
shortcuts on the verified side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_LO = -12.0
GRID_HI = 12.0
GRID_POINTS = 24001

DENSITY_NAMES = ("uniform", "laplace", "gaussian")


def default_grid() -> np.ndarray:
    return np.linspace(GRID_LO, GRID_HI, GRID_POINTS)


@dataclass(frozen=True, eq=False)
class Density1D:
    """Probability density sampled on a uniform grid.

    `smooth` marks continuously differentiable densities; only those are
    accepted by the derivative-based smoothing check.
    """

    grid: np.ndarray
    values: np.ndarray
    smooth: bool = False

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-D arrays")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError("grid must be uniform")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        total = self.integral()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total}, not 1 within 1e-6")

    @property
    def h(self) -> float:
        """The grid spacing."""
        return float(self.grid[1] - self.grid[0])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.h))


def _make(values_fn, smooth: bool, renormalize: bool = False) -> Density1D:
    grid = default_grid()
    values = values_fn(grid)
    if renormalize:
        values = values / np.trapezoid(values, dx=float(grid[1] - grid[0]))
    return Density1D(grid=grid, values=values, smooth=smooth)


def gaussian_density(t: float) -> Density1D:
    """Centered Gaussian with scale t, normalized on the default grid within 1e-8."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    dens = _make(lambda g: np.exp(-g**2 / (2 * t * t)) / (t * math.sqrt(2 * math.pi)), True)
    if abs(dens.integral() - 1.0) > 1e-8:
        raise ValueError("grid too coarse or narrow to hold this Gaussian at 1e-8")
    return dens


def uniform_density() -> Density1D:
    """Isotropic uniform density on [-sqrt(3), sqrt(3)] (variance one).

    Renormalized on the grid: the sampled indicator carries an O(h) trapezoid
    error at the jumps.
    """
    a = math.sqrt(3.0)
    return _make(lambda g: np.where(np.abs(g) <= a, 1.0 / (2 * a), 0.0), False, renormalize=True)


def laplace_density() -> Density1D:
    """Isotropic Laplace density (variance one); not differentiable at 0."""
    b = 1.0 / math.sqrt(2.0)
    return _make(lambda g: np.exp(-np.abs(g) / b) / (2 * b), False, renormalize=True)


def shipped_density(name: str) -> Density1D:
    if name == "uniform":
        return uniform_density()
    if name == "laplace":
        return laplace_density()
    if name == "gaussian":
        return gaussian_density(1.0)
    raise ValueError(f"unknown density {name!r}; choose from {DENSITY_NAMES}")


@dataclass(frozen=True, eq=False)
class SmoothingResult:
    distance: float
    f_smoothed: Density1D


def convolve_l1(f: Density1D, t: float) -> SmoothingResult:
    """Mollify f by the scale-t Gaussian and return ||f * phi_t - f||_1.

    Grid quadrature throughout; requires h <= t/10 so the kernel is resolved.
    """
    from scipy.signal import fftconvolve  # imported here: scipy.signal is slow to load

    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if f.h > t / 10.0 + 1e-15:
        raise ValueError(f"grid spacing {f.h} too coarse for t={t}; need h <= t/10")
    # The kernel spans +-12 t, cut at the grid's length: mode="same" reads no offset beyond it.
    half = int(math.ceil(min(12.0 * t / f.h, len(f.grid) - 1)))
    offsets = np.arange(-half, half + 1) * f.h
    kernel = np.exp(-offsets**2 / (2 * t * t)) / (t * math.sqrt(2 * math.pi)) * f.h
    smoothed_vals = fftconvolve(f.values, kernel, mode="same")
    smoothed_vals = np.clip(smoothed_vals, 0.0, None)
    distance = float(np.trapezoid(np.abs(smoothed_vals - f.values), dx=f.h))
    smoothed = Density1D(grid=f.grid, values=smoothed_vals, smooth=True)
    return SmoothingResult(distance=distance, f_smoothed=smoothed)


@dataclass(frozen=True)
class DerivativeSmoothingResult:
    lhs: float
    rhs: float


def ledoux_check(f: Density1D, t: float) -> DerivativeSmoothingResult:
    """Heat-semigroup smoothing check: ||f * phi_t - f||_1 <= sqrt(2) t ||f'||_1.

    Requires a continuously differentiable density; ||f'||_1 is computed by
    central differences.
    """
    if not f.smooth:
        raise ValueError("derivative-based check requires a smooth density")
    lhs = convolve_l1(f, t).distance
    deriv = np.gradient(f.values, f.h)
    rhs = math.sqrt(2.0) * t * float(np.trapezoid(np.abs(deriv), dx=f.h))
    return DerivativeSmoothingResult(lhs=lhs, rhs=rhs)


def gaussian_tv_exact(s1: float, s2: float, dim: int) -> float:
    """Exact L1 distance between centered isotropic Gaussians of scales s1, s2.

    The densities cross on a single sphere; the distance reduces to the
    chi-square mass between the crossing radius in units of either scale.
    """
    # Imported here: scipy.integrate and scipy.stats are slow to load.
    from scipy.integrate import quad
    from scipy.stats import chi2

    if not (s1 > 0 and s2 > 0):
        raise ValueError("scales must be positive")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if s1 == s2:
        return 0.0
    lo, hi = sorted((s1, s2))
    # (2 pi a^2)^(-n/2) exp(-r^2/2a^2) matches for both scales at r*.
    r2 = 2.0 * dim * math.log(hi / lo) * (lo * lo * hi * hi) / (hi * hi - lo * lo)
    upper, lower = r2 / lo**2, r2 / hi**2
    if upper < 1.5 * lower:
        # Close scales: the two cdf values cancel, so integrate the density instead.
        mass = quad(chi2.pdf, lower, upper, args=(dim,), epsabs=0.0, epsrel=1e-10)[0]
    else:
        mass = chi2.cdf(upper, dim) - chi2.cdf(lower, dim)
    return float(2.0 * mass)
