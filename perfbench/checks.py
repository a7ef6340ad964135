"""Checks of margauss's outputs that need no stored copy of an earlier output.

Each check returns a list of problems; an empty list means the output passed.
The references (the W1 noise floor of the quantile estimator, its spread, and
the exact W1 of the scaled Irwin-Hall law) are computed here by quadrature,
not by calling margauss.
"""

from __future__ import annotations

import csv
import io
import math
import re
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.stats import norm

PAIR_TOLERANCE = 1e-10

# Number of standard deviations of the W1 estimator allowed in the reference
# checks. Its law is skewed to the right; 5 sd stays far beyond every value
# seen on exact Gaussian data.
SPREAD_SDS = 5.0

# Kolmogorov bound on sqrt(N) * KS for exact Gaussian data: P(sqrt(N) D > x)
# ~ 2 exp(-2 x^2), 1.6e-6 at x = 2.65. At the 0.999 quantile 1.95 the check,
# which runs on two rows of every sliced-lowdim run, would flag a correct
# program about once in 23 sets of 22 runs.
KS_SCALED_LIMIT = 2.65

BOUND_COLUMNS = ("l4_sum", "simplex_quartic", "bound_d1_thm", "bound_dtv_thm",
                 "bound_d1_cor", "bound_dtv_cor")
DISTANCE_COLUMNS = ("emp_w1", "emp_w1_se", "emp_ks", "emp_tv")

_GRID = np.linspace(-8.0, 8.0, 801)


@lru_cache(maxsize=None)
def w1_floor_and_sd() -> tuple[float, float]:
    """sqrt(N) times the mean and the sd of W1(empirical, N(0,1)) on Gaussian data.

    Large-N limit: sqrt(N) W1 -> int |B(Phi(x))| dx for a Brownian bridge B.
    The mean is sqrt(2/pi) int sqrt(Phi(1 - Phi)); the variance integrates
    Cov(|B(s)|, |B(t)|) = (2/pi) sd_s sd_t (sqrt(1 - r^2) + r asin r - 1).
    """
    x = _GRID
    s = norm.cdf(x)
    sd = np.sqrt(s * (1.0 - s))
    mean = math.sqrt(2.0 / math.pi) * integrate.simpson(sd, x=x)
    sd_st = np.outer(sd, sd)
    cov = np.minimum.outer(s, s) - np.outer(s, s)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(np.where(sd_st > 0, cov / sd_st, 0.0), -1.0, 1.0)
    c = (2.0 / math.pi) * sd_st * (np.sqrt(1.0 - r * r) + r * np.arcsin(r) - 1.0)
    var = integrate.simpson(integrate.simpson(c, x=x, axis=1), x=x)
    return float(mean), math.sqrt(var)


@lru_cache(maxsize=None)
def w1_irwin_hall(m: int) -> float:
    """Exact W1 between sqrt(3/m) * (sum of m iid uniforms on [-1, 1]) and N(0, 1).

    This is the Walsh-frame k = 1 marginal of the product-uniform body when n
    is a power of two (m = n). F_W - Phi comes from Gil-Pelaez inversion of
    (phi_W(t) - exp(-t^2/2)) / t, which has no cancellation near the centre.
    """
    a = math.sqrt(3.0 / m)
    t = np.linspace(0.0, 16.0, 801)
    with np.errstate(invalid="ignore", divide="ignore"):
        g = (np.sinc(a * t / math.pi) ** m - np.exp(-0.5 * t * t)) / t
    g[0] = 0.0
    delta_f = integrate.simpson(np.sin(np.outer(_GRID, t)) * g, x=t, axis=1) / math.pi
    return float(integrate.simpson(np.abs(delta_f), x=_GRID))


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _number(row: dict, column: str) -> float | None:
    cell = row.get(column, "")
    return None if cell in ("", None) else float(cell)


def check_sweep(rows: list[dict], expected_keys: list[tuple], samples: int,
                metrics: tuple[str, ...]) -> list[str]:
    """Rows match the config; every bound and distance is finite and >= 0; bound order."""
    problems = []
    keys = [(r["body"], int(r["n"]), int(r["k"]), r["frame"], int(r["seed"])) for r in rows]
    if sorted(keys) != sorted(expected_keys):
        problems.append(f"rows {sorted(keys)} differ from the config's {sorted(expected_keys)}")
    for row, key in zip(rows, keys):
        if int(row["N"]) != samples:
            problems.append(f"{key}: N = {row['N']}, configured {samples}")
        required = {"l4_sum", "bound_d1_thm", "bound_dtv_thm", "bound_d1_cor", "bound_dtv_cor"}
        if row["body"] == "simplex":
            required.add("simplex_quartic")
        if "w1" in metrics:
            required |= {"emp_w1", "emp_w1_se"}
        if key[2] == 1:
            required |= {f"emp_{m}" for m in metrics if m != "w1"}
        for column in BOUND_COLUMNS + DISTANCE_COLUMNS:
            value = _number(row, column)
            if value is None:
                if column in required:
                    problems.append(f"{key}: {column} is missing")
            elif not (math.isfinite(value) and value >= 0.0):
                problems.append(f"{key}: {column} = {value} is not finite and non-negative")
        w1, thm, cor = (_number(row, c) for c in ("emp_w1", "bound_d1_thm", "bound_d1_cor"))
        if w1 is not None and thm is not None and not w1 < thm:
            problems.append(f"{key}: emp_w1 {w1} is not below bound_d1_thm {thm}")
        if cor is not None and thm is not None and not cor <= thm:
            problems.append(f"{key}: bound_d1_cor {cor} exceeds bound_d1_thm {thm}")
    return problems


def check_gaussian_rows(rows: list[dict]) -> list[str]:
    """product-gaussian marginals are exactly N(0, I_k) for any orthonormal frame.

    emp_w1 (1-D, or sliced over directions) must lie within SPREAD_SDS sd of
    the estimator's expected value on Gaussian data; emp_ks (k = 1) below the
    Kolmogorov limit.
    """
    problems = []
    mean, sd = w1_floor_and_sd()
    for row in rows:
        if row["body"] != "product-gaussian":
            continue
        key = (row["body"], row["n"], row["k"])
        root_n = math.sqrt(int(row["N"]))
        w1 = _number(row, "emp_w1")
        if w1 is not None and abs(w1 - mean / root_n) > SPREAD_SDS * sd / root_n:
            problems.append(f"{key}: emp_w1 {w1} is off the Gaussian floor {mean / root_n:.3e} "
                            f"by more than {SPREAD_SDS:g} sd ({sd / root_n:.2e})")
        ks = _number(row, "emp_ks")
        if ks is not None and not ks < KS_SCALED_LIMIT / root_n:
            problems.append(f"{key}: emp_ks {ks} is not below {KS_SCALED_LIMIT}/sqrt(N)")
    return problems


def check_irwin_hall_rows(rows: list[dict]) -> list[str]:
    """|emp_w1 - W1_exact| <= floor + SPREAD_SDS sd on Walsh k = 1 product-uniform rows.

    By the triangle inequality the gap is at most W1(empirical, true law),
    whose mean is about the Gaussian floor when the law is near Gaussian.
    """
    problems = []
    mean, sd = w1_floor_and_sd()
    for row in rows:
        n, k = int(row["n"]), int(row["k"])
        if (row["body"], row["frame"], k) != ("product-uniform", "walsh", 1) or n & (n - 1):
            continue
        w1 = _number(row, "emp_w1")
        root_n = math.sqrt(int(row["N"]))
        exact = w1_irwin_hall(n)
        allowed = (mean + SPREAD_SDS * sd) / root_n
        if w1 is None or abs(w1 - exact) > allowed:
            problems.append(f"n={n}: emp_w1 {w1} is further than {allowed:.2e} "
                            f"from the exact Irwin-Hall W1 {exact:.3e}")
    return problems


_RESIDUAL = re.compile(r"^(linearity_residual|second_moment_residual)=(\S+)$", re.M)


def check_verify_output(stdout: str, code) -> list[str]:
    """Both worst-case pair residuals are printed and below PAIR_TOLERANCE."""
    found = dict(_RESIDUAL.findall(stdout))
    problems = []
    for name in ("linearity_residual", "second_moment_residual"):
        if name not in found:
            problems.append(f"{name} not printed")
            continue
        value = float(found[name])
        if not (math.isfinite(value) and 0.0 <= value < PAIR_TOLERANCE):
            problems.append(f"{name} = {value} is not below {PAIR_TOLERANCE:g}")
    if code != 0:
        problems.append(f"verify pair exited with {code}")
    return problems
