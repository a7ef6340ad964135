"""End-to-end acceptance checks, one criterion per test, at stated tolerances.

Each check prints a [PASS]/[FAIL] line (visible with pytest -s or on failure)
before asserting, so a full run doubles as a readable report.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from margauss.bodies import (
    BodySpec,
    blocks,
    klartag_variance_check,
    regular_simplex,
    sample_body,
    simplex_moment_check,
)
from margauss.core import substream
from margauss.frames import (
    coordinate_frame,
    frame_functionals,
    haar_frame,
    sylvester_hadamard,
    walsh_frame,
)
from margauss.gauss import convolve_l1, gaussian_density, gaussian_tv_exact, shipped_density
from margauss.harness import ExperimentConfig, emit_csv, fit_decay, run_experiment
from margauss.metrics import ks_1d, w1_1d, w1_matching
from margauss.stein import PairSpec, conditional_checks, estimate_pair_terms

STEIN_TOL = 1e-10
GEOM_TOL = 1e-10

SWEEP_CONFIG = ExperimentConfig(
    bodies=("product-uniform",),
    ns=(16, 64, 256, 1024),
    ks=(1,),
    frames=("walsh",),
    samples=100_000,
    seeds=(20260811,),
    metrics=("w1",),
)


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed {detail}"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rows = run_experiment(SWEEP_CONFIG)
    path = tmp_path_factory.mktemp("acceptance") / "sweep.csv"
    emit_csv(rows, path)
    return rows, path


@pytest.fixture(scope="module")
def decay_sweep():
    return run_experiment(replace(SWEEP_CONFIG, samples=2_000_000))


def test_criterion_1_exact_stein_conditions():
    worst = 0.0
    for kind in ("product-uniform", "simplex"):
        for n in (4, 16, 64):
            for k in (1, 3):
                body = BodySpec(kind, n)
                frame = haar_frame(n, k, substream(101, n * 10 + k))
                spec = PairSpec(body=body, frame=frame)
                # The check reads blocks as the pass does: the simplex's in vertex coordinates.
                stream = substream(102, n * 10 + k)
                pts = np.concatenate([rows.copy() for _, rows in blocks(body, stream, 0, 100)])
                for x in pts:
                    res = conditional_checks(x, spec)
                    worst = max(worst, res.linearity_residual, res.second_moment_residual)
    check("criterion 1: exact pair conditions", worst < STEIN_TOL, f"max residual {worst:.2e}")


def test_criterion_2_simplex_geometry():
    worst = 0.0
    worst_sum = 0.0
    for n in range(2, 101):
        geom = regular_simplex(n)
        v = geom.vertices
        worst_sum = max(worst_sum, float(np.max(np.abs(v.sum(axis=0)))))
        gram = v @ v.T
        target = np.full((n + 1, n + 1), -1.0 / n)
        np.fill_diagonal(target, 1.0)
        worst = max(worst, float(np.max(np.abs(gram - target))))
        x = substream(103, n).normal(n)
        tight = (v * (v @ x)[:, None]).sum(axis=0) - (n + 1) / n * x
        worst = max(worst, float(np.max(np.abs(tight))))
        _, _, u = geom.unordered_edge_matrix()
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0))))
        recon = 2.0 * (u * (u @ x)[:, None]).sum(axis=0) - (n + 1) * x
        worst = max(worst, float(np.max(np.abs(recon))))
    ok = worst < GEOM_TOL and worst_sum < 1e-12
    check("criterion 2: simplex geometry identities",
          ok, f"max residual {worst:.2e}, vertex sum {worst_sum:.2e}")


def test_criterion_3_simplex_moments():
    report = simplex_moment_check(10, 200_000, substream(104, 0))
    ok = all(abs(r.mc_estimate - r.exact) < 3 * r.se for r in report.rows)
    third_ok = report.third_abs_estimate < report.third_abs_bound + 3 * report.third_abs_se
    detail = ", ".join(
        f"{r.pair_class} {r.mc_estimate:.5f} vs {r.exact:.5f}" for r in report.rows
    )
    check("criterion 3: simplex edge moments", ok and third_ok, detail)


def test_criterion_4_variance_concentration():
    n = 16
    ok = True
    worst_z = 0.0
    for trial in range(20):
        a = substream(105, trial).normal(n)
        gauss = klartag_variance_check(
            BodySpec("product-gaussian", n), a, 100_000, substream(106, trial)
        )
        z = abs(gauss.lhs_est - 2.0 * np.sum(a**2)) / gauss.lhs_se
        worst_z = max(worst_z, z)
        ok &= z < 3 and gauss.lhs_est <= gauss.rhs
        for kind in ("product-uniform", "product-laplace"):
            other = klartag_variance_check(BodySpec(kind, n), a, 100_000, substream(107, trial))
            ok &= other.lhs_est <= other.rhs + 3 * other.lhs_se
    check("criterion 4: quadratic-form variance bound", ok, f"worst gaussian z {worst_z:.2f}")


def test_criterion_5_smoothing():
    ok = True
    for name in ("uniform", "laplace", "gaussian"):
        dens = shipped_density(name)
        for t in (0.02, 0.05, 0.1, 0.2, 0.5):
            ok &= convolve_l1(dens, t).distance <= 2 * math.sqrt(2) * t + 1e-3
    worst_gap = 0.0
    for t in (0.02, 0.05, 0.1, 0.2, 0.5):
        conv = convolve_l1(gaussian_density(1.0), t).distance
        exact = gaussian_tv_exact(1.0, math.sqrt(1 + t * t), 1)
        worst_gap = max(worst_gap, abs(conv - exact))
    ok &= worst_gap < 1e-4
    for dim in (1, 10):
        for t in (0.1, 0.5):
            ok &= gaussian_tv_exact(1.0, math.sqrt(1 + t * t), dim) < math.sqrt(2 * dim) * t
    check("criterion 5: L1 smoothing inequalities", ok, f"gaussian gap {worst_gap:.1e}")


def test_criterion_6_hadamard_and_frames():
    ok = True
    for m in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        h = sylvester_hadamard(m)
        ok &= np.array_equal(h @ h.T, m * np.eye(m, dtype=np.int64))
    constructors = [
        walsh_frame(100, 3),
        haar_frame(50, 5, substream(108, 0)),
        coordinate_frame(10, 4),
    ]
    for frame in constructors:
        gram = frame.rows @ frame.rows.T
        ok &= float(np.max(np.abs(gram - np.eye(frame.k)))) < 1e-10
    worst = 0.0
    for n, k in ((16, 2), (64, 1), (100, 3), (256, 8)):
        m = 1 << (n.bit_length() - 1)
        l4 = frame_functionals(walsh_frame(n, k)).l4_sum
        worst = max(worst, abs(l4 - k / math.sqrt(m)))
    ok &= worst < 1e-13
    check("criterion 6: Hadamard exactness and frame orthonormality",
          ok, f"worst walsh l4 gap {worst:.1e}")


def test_criterion_7_proof_chain_inequalities():
    ok = True
    details = []
    for n in (32, 64):
        for k in (1, 2):
            spec = PairSpec(
                body=BodySpec("product-uniform", n), frame=walsh_frame(n, k)
            )
            stats = estimate_pair_terms(
                spec, 100_000, substream(109, n + k), substream(109, 1000 + n + k)
            )
            fun = spec.functionals
            ok &= stats.term_E <= 8 * math.sqrt(2) * fun.l4_sum + 3 * stats.term_E_se
            ok &= stats.term_M3 <= (12 * math.sqrt(2) / n) * fun.l3_sum**1.5 + 3 * stats.term_M3_se

            sspec = PairSpec(
                body=BodySpec("simplex", n), frame=haar_frame(n, k, substream(110, n + k))
            )
            sstats = estimate_pair_terms(
                sspec, 100_000, substream(111, n + k), substream(111, 1000 + n + k)
            )
            q = sspec.functionals.simplex_quartic
            ok &= sstats.term_E <= 8 * math.sqrt(2) * q + 3 * sstats.term_E_se
            ok &= sstats.term_M3 <= (96 * math.sqrt(k) / (n + 1)) * q + 3 * sstats.term_M3_se
            details.append(f"n={n} k={k} ok={ok}")
    check("criterion 7: proof-chain term inequalities", ok, "; ".join(details))


def test_criterion_8a_bound_dominance(sweep):
    rows, _ = sweep
    ok = len(rows) == 4 and all(r.emp_w1 < 14.0 * r.n**-0.25 for r in rows)
    detail = ", ".join(f"n={r.n}: {r.emp_w1:.4f} < {14.0 * r.n ** -0.25:.3f}" for r in rows)
    check("criterion 8a: empirical W1 below the closed-form envelope", ok, detail)


def test_criterion_8b_decay_slope(decay_sweep):
    # The quantile W1 estimator has a sampling floor of 1.28/sqrt(N)
    # (w1_noise_floor): 4.1e-3 at N = 10^5, which masks every point of the
    # true 1/n decay (4.8e-3 at n = 16, 7.4e-5 at n = 1024). At N = 2e6 the
    # floor is 9.1e-4, below the true W1 at n = 16 and n = 64, so the fit
    # resolves a decay; the points at n >= 256 still sit on the floor.
    rows = decay_sweep
    fit = fit_decay(rows)
    check("criterion 8b: fitted log-log decay slope <= -0.25", fit.slope <= -0.25,
          f"slope {fit.slope:.3f}")


def test_criterion_8c_small_error_at_n1024(sweep):
    rows, _ = sweep
    value = next(r.emp_w1 for r in rows if r.n == 1024)
    check("criterion 8c: emp_w1 at n=1024 below 0.05", value <= 0.05, f"value {value:.4f}")


def test_criterion_9_metric_self_tests():
    shifted = substream(112, 0).normal(100_000) + 0.5
    w1 = w1_1d(shifted)
    ok = abs(w1.value - 0.5) < 3 * w1.se_or_bias_note

    pts = substream(113, 0).normal((400, 2))
    ok &= w1_matching(pts, pts).value == 0.0
    a = substream(114, 0).normal(400)
    b = substream(114, 1).normal(400)
    ok &= abs(w1_matching(a, b).value - np.abs(np.sort(a) - np.sort(b)).mean()) < 1e-10

    ks = ks_1d(substream(115, 0).normal(100_000) + 0.2)
    analytic = 2 * norm.cdf(0.1) - 1  # 0.0797, quoted as 0.0793 at lower precision
    ok &= abs(ks.value - 0.0793) < 3 * ks.se_or_bias_note
    ok &= abs(ks.value - analytic) < 3 * ks.se_or_bias_note
    check("criterion 9: distance estimator self-tests", ok,
          f"w1 shift {w1.value:.4f}, ks {ks.value:.4f}")


def test_criterion_10_byte_identical_artifacts(sweep, tmp_path):
    _, first_path = sweep
    rerun_path = tmp_path / "sweep_rerun.csv"
    emit_csv(run_experiment(SWEEP_CONFIG), rerun_path)
    identical = first_path.read_bytes() == rerun_path.read_bytes()
    check("criterion 10: byte-identical CSV artifacts on rerun", identical)
