import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from margauss.gauss import (
    Density1D,
    convolve_l1,
    default_grid,
    gaussian_density,
    gaussian_tv_exact,
    laplace_density,
    ledoux_check,
    shipped_density,
    uniform_density,
)

SMOOTHING_TS = (0.02, 0.05, 0.1, 0.2, 0.5)


def test_gaussian_density_peak_values():
    assert gaussian_density(1.0).values.max() == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert gaussian_density(0.5).values.max() == pytest.approx(2 / math.sqrt(2 * math.pi))


@pytest.mark.parametrize("t", [0.05, 0.1, 1.0])
def test_gaussian_density_normalized(t):
    assert gaussian_density(t).integral() == pytest.approx(1.0, abs=1e-8)


def test_gaussian_density_rejects_bad_t():
    with pytest.raises(ValueError):
        gaussian_density(0.0)
    with pytest.raises(ValueError):
        gaussian_density(-1.0)


def test_density_validation():
    grid = default_grid()
    with pytest.raises(ValueError):
        Density1D(grid=grid, values=np.full_like(grid, 0.5))
    with pytest.raises(ValueError):
        Density1D(grid=grid, values=-np.ones_like(grid) / 24)


def test_shipped_densities_normalized_and_bounded():
    for name in ("uniform", "laplace", "gaussian"):
        dens = shipped_density(name)
        assert dens.integral() == pytest.approx(1.0, abs=1e-6)
        assert dens.values.max() <= 1.0  # isotropic log-concave mode bound
    with pytest.raises(ValueError):
        shipped_density("cauchy")


def test_convolution_matches_exact_gaussian_distance():
    result = convolve_l1(gaussian_density(1.0), 0.5)
    exact = gaussian_tv_exact(1.0, math.sqrt(1.25), 1)
    assert abs(result.distance - exact) < 1e-4


def test_uniform_smoothing_bound_at_t01():
    result = convolve_l1(uniform_density(), 0.1)
    assert result.distance <= 2 * math.sqrt(2) * 0.1


def test_smoothed_density_is_valid_and_smooth():
    result = convolve_l1(uniform_density(), 0.1)
    assert result.f_smoothed.smooth
    assert result.f_smoothed.integral() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", ["uniform", "laplace", "gaussian"])
def test_smoothing_bound_over_t_grid(name):
    dens = shipped_density(name)
    for t in SMOOTHING_TS:
        assert convolve_l1(dens, t).distance <= 2 * math.sqrt(2) * t + 1e-3


@pytest.mark.parametrize("name", ["uniform", "laplace", "gaussian"])
def test_smoothing_distance_monotone_in_t(name):
    dens = shipped_density(name)
    distances = [convolve_l1(dens, t).distance for t in (0.01,) + SMOOTHING_TS]
    assert all(a < b for a, b in zip(distances, distances[1:]))


def test_resolution_guard():
    with pytest.raises(ValueError):
        convolve_l1(gaussian_density(1.0), 0.005)  # default h = 1e-3 > t/10


def test_ledoux_gaussian():
    dens = gaussian_density(1.0)
    check = ledoux_check(dens, 0.1)
    # ||f'||_1 = 2 f(0) for a unimodal density.
    assert check.rhs == pytest.approx(math.sqrt(2) * 0.1 * math.sqrt(2 / math.pi), rel=1e-4)
    assert check.lhs <= check.rhs + 1e-3


@pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
def test_ledoux_ratio_below_one(t):
    check = ledoux_check(gaussian_density(1.0), t)
    assert check.lhs / check.rhs <= 1.0


def test_ledoux_rejects_non_smooth():
    with pytest.raises(ValueError):
        ledoux_check(uniform_density(), 0.1)
    with pytest.raises(ValueError):
        ledoux_check(laplace_density(), 0.1)


def test_ledoux_on_mollified_laplace():
    mollified = convolve_l1(laplace_density(), 0.05).f_smoothed
    check = ledoux_check(mollified, 0.1)
    assert check.lhs <= check.rhs + 1e-3
    # ||f'||_1 <= 2 for near-isotropic log-concave densities.
    assert check.rhs / (math.sqrt(2) * 0.1) <= 2.0


def test_gaussian_tv_exact_basics():
    assert gaussian_tv_exact(1.0, 1.0, 5) == 0.0
    val = gaussian_tv_exact(1.0, math.sqrt(1.25), 1)
    assert val < math.sqrt(2) * 0.5
    val10 = gaussian_tv_exact(1.0, math.sqrt(1.01), 10)
    assert val10 < math.sqrt(20) * 0.1


def test_gaussian_tv_exact_against_quadrature():
    s2 = math.sqrt(1.25)
    direct, _ = integrate.quad(
        lambda x: abs(norm.pdf(x) - norm.pdf(x, scale=s2)), -30, 30, limit=200
    )
    assert gaussian_tv_exact(1.0, s2, 1) == pytest.approx(direct, abs=1e-8)


def test_gaussian_tv_exact_radial_quadrature_dim10():
    dim, s2 = 10, math.sqrt(1.01)
    # Radial integral: surface measure of S^9 times r^9 |f1 - f2|(r).
    sphere_area = 2 * math.pi ** (dim / 2) / math.gamma(dim / 2)

    def integrand(r):
        f1 = (2 * math.pi) ** (-dim / 2) * math.exp(-r * r / 2)
        f2 = (2 * math.pi * s2 * s2) ** (-dim / 2) * math.exp(-r * r / (2 * s2 * s2))
        return r ** (dim - 1) * abs(f1 - f2)

    direct = sphere_area * integrate.quad(integrand, 0, 40, limit=400)[0]
    assert gaussian_tv_exact(1.0, s2, dim) == pytest.approx(direct, abs=1e-8)


@given(st.floats(min_value=0.01, max_value=3.0), st.floats(min_value=0.01, max_value=3.0))
def test_gaussian_tv_exact_bounded_and_symmetric(s1, s2):
    val = gaussian_tv_exact(s1, s2, 3)
    assert 0.0 <= val <= 2.0
    assert val == pytest.approx(gaussian_tv_exact(s2, s1, 3), abs=1e-12)


@pytest.mark.parametrize("s1,s2", [(3.0, 2.9999999999999996), (1.0, 1.0000000000000002)])
def test_gaussian_tv_exact_nonnegative_for_nearly_equal_scales(s1, s2):
    # Scales one ulp apart; the difference of chi-square cdf values went negative here.
    for dim in (1, 3, 10):
        assert 0.0 <= gaussian_tv_exact(s1, s2, dim) < 1e-14
        assert gaussian_tv_exact(s1, s2, dim) == gaussian_tv_exact(s2, s1, dim)


def test_gaussian_tv_exact_monotone_in_scale_gap():
    values = [gaussian_tv_exact(1.0, 1.0 + gap, 4) for gap in (0.0, 0.1, 0.3, 0.7, 1.5)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_gaussian_tv_exact_validation():
    with pytest.raises(ValueError):
        gaussian_tv_exact(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        gaussian_tv_exact(1.0, 1.0, 0)
