import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy import integrate

from margauss import bodies, core, stein
from margauss.bodies import BodySpec, parse_body_kind, regular_simplex, sample_body
from margauss.core import ConstantsConfig, batch_mean_se, substream
from margauss.frames import (
    Frame,
    coordinate_frame,
    frame_functionals,
    haar_frame,
    project,
    walsh_frame,
)
from margauss.stein import (
    BoundReport,
    PairSpec,
    PairStatistics,
    conditional_checks,
    corollary_bounds,
    estimate_pair_terms,
    reflect_pair,
    row_pass,
    theorem_bounds,
    transpose_pair,
    _edge_vertices,
)

RESIDUAL_TOL = 1e-10


def make_spec(kind, n, k, seed=0, frame_kind="haar"):
    body = BodySpec(kind, n)
    if frame_kind == "walsh":
        frame = walsh_frame(n, k)
    else:
        frame = haar_frame(n, k, substream(seed, 777))
    return PairSpec(body=body, frame=frame)


def test_reflect_pair_hand_example():
    frame = Frame(np.array([[1.0, 1.0]]) / math.sqrt(2.0))
    w, wp = reflect_pair(np.array([1.0, 2.0]), 0, frame)
    assert (wp - w)[0] == pytest.approx(-math.sqrt(2.0), abs=1e-14)


def test_reflect_pair_fixes_zero_coordinate():
    frame = walsh_frame(4, 2)
    x = np.array([0.0, 1.0, 2.0, 3.0])
    w, wp = reflect_pair(x, 0, frame)
    assert np.allclose(w, wp)
    with pytest.raises(ValueError):
        reflect_pair(x, 4, frame)


def test_reflect_pair_exchangeable_moments():
    # Swapped mixed moments agree distributionally for a product body.
    frame = walsh_frame(16, 1)
    body = BodySpec("product-uniform", 16)
    pts = sample_body(body, substream(40, 0), 100_000).points
    idx = substream(40, 1).integers(0, 16, len(pts))
    w = pts @ frame.rows[0]
    wp = w - 2.0 * frame.rows[0][idx] * pts[np.arange(len(pts)), idx]
    fwd = w * wp**2
    bwd = wp * w**2
    diff = fwd - bwd
    m = (len(diff) // 20) * 20
    batch = diff[:m].reshape(20, -1).mean(axis=1)
    assert abs(batch.mean()) < 3 * batch.std(ddof=1) / math.sqrt(20)


def test_transpose_pair_orthogonal_point_fixed():
    geom = regular_simplex(4)
    frame = haar_frame(4, 2, substream(41, 0))
    u = geom.edge_direction(0, 1)
    x = substream(41, 1).normal(4)
    x -= (x @ u) * u
    w, wp = transpose_pair(x, 0, 1, geom, frame)
    assert np.max(np.abs(w - wp)) < 1e-12


def test_transpose_pair_triangle_vertex_fixed():
    geom = regular_simplex(2)
    frame = Frame(np.array([[1.0, 0.0]]))
    x = geom.scale * geom.vertices[0]
    w, wp = transpose_pair(x, 1, 2, geom, frame)
    assert np.max(np.abs(w - wp)) < 1e-12
    with pytest.raises(ValueError):
        transpose_pair(x, 1, 1, geom, frame)


def test_transposition_is_isometry():
    spec = BodySpec("simplex", 6)
    geom = spec.geom
    x = sample_body(spec, substream(42, 0), 1).points[0]
    u = geom.edge_direction(2, 5)
    x_prime = x - 2.0 * (x @ u) * u
    assert abs(np.linalg.norm(x_prime) - np.linalg.norm(x)) < 1e-12
    # The reflected point stays inside the simplex.
    inner = x_prime @ geom.vertices.T / geom.scale
    coords = (inner + 1.0 / 6) * 6 / 7
    assert coords.min() >= -1e-12


def test_pair_spec_validation():
    body = BodySpec("product-uniform", 8)
    frame = walsh_frame(8, 2)
    spec = PairSpec(body=body, frame=frame)
    assert spec.lam == pytest.approx(0.25)
    assert spec.body.geom is None
    with pytest.raises(ValueError):
        PairSpec(body=BodySpec("product-uniform", 9), frame=frame)
    simplex_spec = PairSpec(body=BodySpec("simplex", 8), frame=frame)
    assert simplex_spec.body.geom is simplex_spec.body.geom
    assert simplex_spec.body.geom.n == 8


@pytest.mark.parametrize("kind", ["product-uniform", "simplex"])
@pytest.mark.parametrize("n,k", [(16, 3), (8, 2), (8, 6)])  # (8, 6): k*k > 2 (n + 1)
def test_conditional_checks_exact(kind, n, k):
    spec = make_spec(kind, n, k, seed=n * 7 + k)
    pts = sample_body(spec.body, substream(43, n + k), 25).points
    for x in pts:
        res = conditional_checks(x, spec)
        assert res.linearity_residual < RESIDUAL_TOL
        assert res.second_moment_residual < RESIDUAL_TOL


@pytest.mark.parametrize("kind", ["product-uniform", "simplex"])
def test_checks_and_pair_terms_share_one_closed_form(kind, monkeypatch):
    # Shifting the closed form's sums s by eps moves every E_ij by 4 eps / n:
    # the check must report that as its residual, and the sweep's term_E must
    # move with it, so the check covers the code behind bound_*_cor.
    n, k, eps = 16, 2, 1e-3
    spec = make_spec(kind, n, k, seed=63)
    pts = sample_body(spec.body, substream(64, n), 25).points

    def term_e():
        return estimate_pair_terms(spec, 10_000, substream(65, n), substream(65, 1000)).term_E

    before = term_e()
    closed_form = stein._moment_sums

    def shifted(*args, **kwargs):
        s = closed_form(*args, **kwargs)
        s += eps
        return s

    monkeypatch.setattr(stein, "_moment_sums", shifted)
    res = conditional_checks(pts, spec)
    assert res.linearity_residual < RESIDUAL_TOL
    assert res.second_moment_residual == pytest.approx(4.0 * eps / n, rel=1e-9)
    assert abs(term_e() - before) > 1e-6 * before


def test_conditional_checks_zero_point():
    spec = make_spec("product-uniform", 16, 3)
    res = conditional_checks(np.zeros(16), spec)
    assert res.linearity_residual == 0.0
    assert res.second_moment_residual == 0.0


def explicit_moments(spec, x):
    """E[W' - W | x] and E[(W' - W)(W' - W)^T | x], from one coupling move at a time.

    The moves are `reflect_pair` at every coordinate index, or `transpose_pair`
    at every unordered simplex edge a < b.
    """
    n = spec.n
    if spec.body.kind == "simplex":
        geom = spec.body.geom
        moves = [transpose_pair(x, a, b, geom, spec.frame)
                 for a in range(n + 1) for b in range(a + 1, n + 1)]
    else:
        moves = [reflect_pair(x, i, spec.frame) for i in range(n)]
    d = np.array([w_prime - w for w, w_prime in moves])
    return d.mean(axis=0), d.T @ d / len(d)


def ordered_pair_moments(spec, pts):
    """The simplex moments summed over every ordered vertex pair (a, b), a != b."""
    n, k, alpha = spec.n, spec.k, spec.alpha
    c2 = n / (2.0 * (n + 1))
    gamma = pts @ spec.body.geom.vertices.T
    lin_sum, sec_sum = np.zeros((len(pts), k)), np.zeros((len(pts), k, k))
    for a in range(n + 1):
        dg = gamma[:, a, None] - gamma  # b = a adds 0
        da = alpha[:, a, None] - alpha
        lin_sum += dg @ da.T
        sec_sum += np.einsum("cb,ib,jb->cij", dg**2, da, da)
    ordered = n * (n + 1.0)
    return -2.0 * c2 * lin_sum / ordered, 4.0 * c2**2 * sec_sum / ordered


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [5, 8, 16])
@pytest.mark.parametrize("kind", ["product-uniform", "simplex"])
def test_enumerated_moments_match_explicit_moves(kind, n, k):
    # The enumerated side of the check, against one coupling move at a time;
    # for the simplex, each transposition once equals every ordered pair.
    spec = make_spec(kind, n, k, seed=10 * n + k)
    pts = sample_body(spec.body, substream(50, 10 * n + k), 4).points
    gamma = pts @ spec.body.geom.vertices.T if kind == "simplex" else None
    gamma_before = None if gamma is None else gamma.copy()
    lin, sec = stein._enumerated_moments(spec, pts, gamma)
    assert lin.shape == (4, k) and sec.shape == (4, k, k)
    if gamma is not None:  # conditional_checks squares this gamma for the closed form next
        assert np.array_equal(gamma, gamma_before)
    for c, x in enumerate(pts):
        lin_x, sec_x = explicit_moments(spec, x)
        np.testing.assert_allclose(lin[c], lin_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sec[c], sec_x, rtol=0, atol=1e-12)
    if kind == "simplex":
        lin_ordered, sec_ordered = ordered_pair_moments(spec, pts)
        np.testing.assert_allclose(lin, lin_ordered, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sec, sec_ordered, rtol=0, atol=1e-12)


def test_simplex_check_visits_each_vertex_pair_once(monkeypatch):
    # One check lists the n(n+1)/2 unordered transpositions, not the n(n+1)
    # ordered ones: a count of the pairs each vertex adds, not a timing.
    n = 16
    spec = make_spec("simplex", n, 2, seed=3)
    pts = sample_body(spec.body, substream(51, n), 5).points
    vertex_sums, widths = stein._vertex_sums, []

    def counted(dg, da, lin_sum, sec_sum):
        assert dg.shape == (5, da.shape[1])
        widths.append(dg.shape[1])
        return vertex_sums(dg, da, lin_sum, sec_sum)

    monkeypatch.setattr(stein, "_vertex_sums", counted)
    res = conditional_checks(pts, spec)
    assert res.linearity_residual < RESIDUAL_TOL and res.second_moment_residual < RESIDUAL_TOL
    assert sum(widths) == n * (n + 1) // 2 and len(widths) == n


BATCH_BODIES = ["product-uniform", "lp-ball(1.5)", "simplex"]


def batch_spec_and_points(label, k, n=16, count=25):
    body = parse_body_kind(label, n)
    spec = PairSpec(body=body, frame=haar_frame(n, k, substream(45, 7)))
    pts = sample_body(body, substream(46, n), count).points
    return spec, pts


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("label", BATCH_BODIES)
def test_batched_checks_report_the_worst_point(label, k, monkeypatch):
    spec, pts = batch_spec_and_points(label, k)
    res = conditional_checks(pts, spec)
    assert res.linearity_residual < RESIDUAL_TOL
    assert res.second_moment_residual < RESIDUAL_TOL

    # A wrong lambda leaves |delta lambda| |W_ci| at each point and index; the
    # batch must report the largest, here on the last point.
    worst = int(np.argmax(np.max(np.abs(project(spec.frame, pts)), axis=1)))
    pts[[worst, -1]] = pts[[-1, worst]]
    w_max = float(np.max(np.abs(project(spec.frame, pts[-1]))))
    true_lam = spec.lam
    monkeypatch.setattr(PairSpec, "lam", property(lambda self: true_lam + 0.5))
    res = conditional_checks(pts, spec)
    assert res.linearity_residual == pytest.approx(0.5 * w_max, rel=1e-9)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("label", BATCH_BODIES)
def test_batched_checks_edge_cases(label, k):
    spec, pts = batch_spec_and_points(label, k)
    empty = conditional_checks(pts[:0], spec)
    assert empty.linearity_residual == 0.0 and empty.second_moment_residual == 0.0
    assert conditional_checks(pts[3], spec) == conditional_checks(pts[3:4], spec)
    with pytest.raises(ValueError, match="one point"):
        conditional_checks(pts.ravel()[:32], spec)  # two points' worth, flattened
    pts[12] = np.nan  # a point in the middle of the batch
    res = conditional_checks(pts, spec)
    assert math.isnan(res.linearity_residual) and math.isnan(res.second_moment_residual)


def test_term_e_coordinate_frame_quadrature_oracle():
    # E_11 = (4/n)(X_1^2 - 1) for the first coordinate frame, so the
    # normalized term is 2 E|Z^2 - 1|; oracle by quadrature.
    oracle, _ = integrate.quad(
        lambda z: abs(z * z - 1) * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), -12, 12
    )
    assert oracle == pytest.approx(4 * math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-9)
    spec = PairSpec(body=BodySpec("product-gaussian", 16), frame=coordinate_frame(16, 1))
    stats = estimate_pair_terms(spec, 100_000, substream(44, 0), substream(44, 1000))
    assert abs(stats.term_E - 2.0 * oracle) < 3 * stats.term_E_se


def test_estimate_pair_terms_requires_enough_samples():
    spec = make_spec("product-uniform", 16, 1)
    with pytest.raises(ValueError):
        estimate_pair_terms(spec, 100, substream(1, 0), substream(1, 1000))


def test_condvar_proxy_only_for_k1():
    stats = estimate_pair_terms(
        make_spec("product-uniform", 16, 2), 20_000, substream(45, 0), substream(45, 1000)
    )
    assert stats.condvar_proxy is None
    stats1 = estimate_pair_terms(
        make_spec("product-uniform", 16, 1), 20_000, substream(45, 1), substream(45, 1001)
    )
    assert stats1.condvar_proxy is not None and stats1.condvar_proxy > 0


@pytest.mark.parametrize("n,k", [(32, 1), (32, 2)])
def test_proof_chain_product(n, k):
    spec = make_spec("product-uniform", n, k, frame_kind="walsh")
    stats = estimate_pair_terms(spec, 50_000, substream(46, n + k), substream(46, 1000 + n + k))
    fun = frame_functionals(spec.frame)
    assert stats.term_E <= 8 * math.sqrt(2) * fun.l4_sum + 3 * stats.term_E_se
    m3_bound = (12 * math.sqrt(2) / n) * fun.l3_sum**1.5
    assert stats.term_M3 <= m3_bound + 3 * stats.term_M3_se


@pytest.mark.parametrize("n,k", [(32, 1), (32, 2)])
def test_proof_chain_simplex(n, k):
    spec = make_spec("simplex", n, k, seed=n + k)
    stats = estimate_pair_terms(spec, 50_000, substream(47, n + k), substream(47, 1000 + n + k))
    fun = frame_functionals(spec.frame, spec.alpha)
    q = fun.simplex_quartic
    assert stats.term_E <= 8 * math.sqrt(2) * q + 3 * stats.term_E_se
    m3_bound = (96 * math.sqrt(k) / (n + 1)) * q
    assert stats.term_M3 <= m3_bound + 3 * stats.term_M3_se


def test_theorem_bound_values():
    assert theorem_bounds(frame_functionals(walsh_frame(256, 2)), 2).d1_bound == pytest.approx(7.0)
    assert theorem_bounds(frame_functionals(walsh_frame(64, 1)), 1).d1_bound == pytest.approx(
        14 * 64**-0.25)
    geom = regular_simplex(2)
    frame = Frame(np.array([[1.0, 0.0]]))
    fun = frame_functionals(frame, geom.vertex_products(frame.rows))
    report = theorem_bounds(fun, 1, theorem="thm3")
    cubic = fun.simplex_cubic
    assert report.dtv_bound == pytest.approx(math.sqrt(cubic))
    with pytest.raises(ValueError):
        theorem_bounds(frame_functionals(walsh_frame(4, 2)), 2, theorem="thm3")
    with pytest.raises(ValueError):
        theorem_bounds(frame_functionals(Frame(np.eye(2)), geom.vertex_products(np.eye(2))), 2,
                       theorem="thm3")


def test_theorem_bounds_scale_with_constants():
    constants = ConstantsConfig(C_tv_multi=3.0)
    base = theorem_bounds(frame_functionals(walsh_frame(64, 2)), 2)
    scaled = theorem_bounds(frame_functionals(walsh_frame(64, 2)), 2, constants=constants)
    assert scaled.dtv_bound == pytest.approx(3.0 * base.dtv_bound)
    assert scaled.d1_bound == pytest.approx(base.d1_bound)


def synthetic_stats(term_e, term_m3, k, n, condvar=None):
    return PairStatistics(
        term_E=term_e,
        term_E_se=0.0,
        term_M3=term_m3,
        term_M3_se=0.0,
        condvar_proxy=condvar,
        condvar_proxy_se=None if condvar is None else 0.0,
        count=10_000,
        k=k,
        n=n,
        lam=2.0 / n,
    )


def test_corollary_formula_substitution():
    a, b, n = 0.3, 0.02, 50
    lam = 2.0 / n
    stats = synthetic_stats(a, b, 1, n)
    report = corollary_bounds(stats)
    assert report.d1_bound == pytest.approx(a + math.sqrt(2 * b / (3 * lam)))
    assert report.dtv_bound == pytest.approx((a + b / lam) ** (1 / 3))


def test_corollary_tv_univ_formula_and_guards():
    n = 50
    lam = 2.0 / n
    stats = synthetic_stats(0.3, 0.02, 1, n, condvar=0.0004)
    report = corollary_bounds(stats, source="cor-tv-univ")
    assert report.dtv_bound == pytest.approx(math.sqrt(0.0004) / lam + 2 * math.sqrt(0.02 / lam))
    stats2 = synthetic_stats(0.3, 0.02, 2, n)
    with pytest.raises(ValueError):
        corollary_bounds(stats2, source="cor-tv-univ")
    with pytest.raises(ValueError):
        corollary_bounds(stats, source="prop-stein")


def test_prop_cm_d2_formula():
    n = 40
    lam = 2.0 / n
    stats = synthetic_stats(0.5, 0.01, 2, n)
    report = corollary_bounds(stats, source="prop-cm-d2")
    assert report.d2_bound == pytest.approx(0.5 + math.sqrt(2 * math.pi) / (24 * lam) * 0.01)


def test_gaussian_sanity_bound_positive():
    spec = PairSpec(
        body=BodySpec("product-gaussian", 32), frame=haar_frame(32, 2, substream(48, 0))
    )
    stats = estimate_pair_terms(spec, 20_000, substream(48, 1), substream(48, 1001))
    report = corollary_bounds(stats)
    assert np.isfinite(report.d1_bound) and report.d1_bound > 0


@pytest.mark.parametrize("kind,frame_kind", [("product-uniform", "walsh"), ("simplex", "haar")])
def test_corollary_below_theorem_d1(kind, frame_kind):
    spec = make_spec(kind, 64, 2, seed=5, frame_kind=frame_kind)
    stats = estimate_pair_terms(spec, 50_000, substream(49, 0), substream(49, 1000))
    cor = corollary_bounds(stats)
    vertex_products = spec.alpha if kind == "simplex" else None
    thm = theorem_bounds(frame_functionals(spec.frame, vertex_products), spec.k)
    assert cor.d1_bound <= thm.d1_bound * (1 + 3 * stats.term_E_se / max(stats.term_E, 1e-12))


def test_tv_univ_bound_decreases_with_dimension():
    values = []
    ses = []
    for n in (50, 100, 200):
        spec = make_spec("simplex", n, 1, seed=n)
        stats = estimate_pair_terms(spec, 20_000, substream(50, n), substream(50, 1000 + n))
        report = corollary_bounds(stats, source="cor-tv-univ")
        values.append(report.dtv_bound)
        ses.append(stats.term_M3_se + (stats.condvar_proxy_se or 0.0))
    assert values[1] < values[0] + 3 * (ses[0] + ses[1])
    assert values[2] < values[1] + 3 * (ses[1] + ses[2])


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport(source="thm9")
    with pytest.raises(ValueError):
        BoundReport(source="thm1", d1_bound=-1.0)
    with pytest.raises(ValueError):
        BoundReport(source="prop-stein")


def edge_reference(spec, stream, indices, count):
    """term_E, term_M3 and condvar_proxy by enumerating every edge u_ab."""
    n, k = spec.n, spec.k
    _, _, u = spec.body.geom.unordered_edge_matrix()
    t = spec.frame.rows @ u.T
    pts = sample_body(spec.body, stream, count).points
    sq = (pts @ u.T) ** 2
    s = 2.0 * np.einsum("cp,ip,jp->cij", sq, t, t).reshape(count, k * k)
    e = (4.0 / n) * (s / (n + 1.0) - np.eye(k).ravel())
    idx = indices.integers(0, u.shape[0], count)
    cubes = 8.0 * sq[np.arange(count), idx] ** 1.5 * np.sqrt(np.sum(t**2, axis=0))[idx] ** 3
    cond = (4.0 / (n * (n + 1.0))) * s[:, 0] if k == 1 else None
    frob = np.sqrt(np.sum(e**2, axis=1))
    return frob, cubes, cond


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in (2, 3, 7, 16, 64) for k in (1, 2, 3) if k <= n]
)
def test_vertex_coordinate_edge_sums_match_enumeration(n, k):
    spec = PairSpec(body=BodySpec("simplex", n), frame=haar_frame(n, k, substream(51, n + k)))
    geom, rows, alpha = spec.body.geom, spec.frame.rows, spec.alpha
    i_idx, j_idx, u = geom.unordered_edge_matrix()
    t = rows @ u.T
    x = substream(52, n + k).normal((20, n)) * 3.0
    gamma = x @ geom.vertices.T
    enum = 2.0 * np.einsum("cp,ip,jp->cij", (x @ u.T) ** 2, t, t).reshape(20, k * k) / (n + 1)
    closed = stein._moment_sums(spec, gamma**2, x @ rows.T, np.sum(x**2, axis=1))
    assert np.max(np.abs(closed - enum)) <= 1e-12 * np.max(np.abs(enum))

    index = substream(53, n + k).integers(0, len(i_idx), 200)
    a, b = _edge_vertices(index, n + 1)
    assert np.array_equal(a, i_idx[index]) and np.array_equal(b, j_idx[index])
    c = math.sqrt(n / (2.0 * (n + 1)))
    point = np.arange(200) % 20
    cube_vertex = (
        np.abs(c * (gamma[point, a] - gamma[point, b])) ** 3
        * np.sqrt(np.sum((c * (alpha[:, a] - alpha[:, b])) ** 2, axis=0)) ** 3
    )
    cube_edges = np.abs(np.sum(x[point] * u[index], axis=1)) ** 3 * np.sqrt(
        np.sum(t[:, index] ** 2, axis=0)
    ) ** 3
    assert np.max(np.abs(cube_vertex - cube_edges)) <= 1e-12 * np.max(cube_edges)


@pytest.mark.parametrize("n,k", [(7, 1), (16, 3), (64, 2)])
def test_simplex_pair_terms_match_edge_enumeration(n, k):
    spec = make_spec("simplex", n, k, seed=n + 3 * k)
    count = 10_000
    stats = estimate_pair_terms(spec, count, substream(54, n + k), substream(54, 1000 + n + k))
    frob, cubes, cond = edge_reference(
        spec, substream(54, n + k), substream(54, 1000 + n + k), count
    )
    lam = spec.lam
    assert stats.term_E == pytest.approx(frob.mean() / lam, rel=1e-12)
    assert stats.term_M3 == pytest.approx(cubes.mean(), rel=1e-12)
    if k == 1:
        batch_vars = cond.reshape(20, -1).var(axis=1, ddof=1)  # as in batch_var_se
        assert stats.condvar_proxy == pytest.approx(batch_vars.mean(), rel=1e-12)


@pytest.mark.parametrize("n,k", [(16, 1), (300, 3)])
def test_simplex_projected_sample_matches_points(n, k, monkeypatch):
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 1_700 * (n + 1))  # three blocks
    spec = make_spec("simplex", n, k, seed=55)
    w, stats = row_pass(spec, 5_000, substream(56, n))
    pts = sample_body(spec.body, substream(56, n), 5_000).points
    assert stats is None
    assert np.max(np.abs(w - project(spec.frame, pts))) <= 1e-12


@pytest.mark.parametrize(
    "kind", ["product-uniform", "product-gaussian", "product-laplace", "simplex"]
)
@pytest.mark.parametrize("k", [1, 3])
def test_row_pass_tiles_leave_results_unchanged(kind, k, monkeypatch):
    # Blocks of 4, 12 and 4 000 points; 10 000 points end inside the last
    # block of 12 and of 4 000. At n = 7 the k = 3 sums (k*k = 9 wide) outgrow
    # a point, so the pass reduces blocks of 12 and 4 000 in smaller tiles.
    # Each pass gives W and term_E of all its points at once.
    n, count = 7, 10_000
    spec = make_spec(kind, n, k, seed=57)
    simplex = kind == "simplex"
    for block in (4, 12, 4_000):
        monkeypatch.setattr(bodies, "_BLOCK_BUDGET", block * (n + simplex))
        assert spec.body.block == block
        w, stats = row_pass(spec, count, substream(58, n + k), substream(58, 1000 + n + k))
        # The indices have their own stream, so W is the same without the pair terms.
        assert np.array_equal(row_pass(spec, count, substream(58, n + k))[0], w)
        pts = sample_body(spec.body, substream(58, n + k), count).points
        w_ref = project(spec.frame, pts)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        norm2 = np.sum(pts**2, axis=1) if simplex else None
        sq = (pts @ spec.body.geom.vertices.T) ** 2 if simplex else pts**2
        e = (4.0 / n) * (stein._moment_sums(spec, sq, w_ref, norm2) - np.eye(k).ravel())
        term_e = batch_mean_se(np.sqrt(np.sum(e**2, axis=1)))[0] / spec.lam
        assert stats.term_E == pytest.approx(term_e, rel=1e-12)


@pytest.mark.parametrize("kind", ["product-uniform", "product-laplace"])
@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("k", [1, 2])
def test_row_pass_values_do_not_depend_on_worker_count(kind, n, k, monkeypatch):
    spec = make_spec(kind, n, k, seed=59)
    block = spec.body.block
    # Off the block grid; and a row of two blocks, fewer than three workers.
    cases = [(max(3 * block, 10_000) + 37, True), (max(3 * block, 10_000) + 37, False),
             (block + 5, False)]
    results = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(core, "_cores", lambda: cores)
        runs = []
        for count, with_indices in cases:
            indices = substream(60, 1000 + n + k) if with_indices else None
            runs.append(row_pass(spec, count, substream(60, n + k), indices))
        results.append(runs)
    for runs in results[1:]:
        for (w, stats), (w1, stats1) in zip(runs, results[0]):
            assert np.array_equal(w, w1)
            assert stats == stats1


def test_row_pass_worker_error_reaches_the_caller(monkeypatch):
    def fail_off_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return draw(*args, **kwargs)

    draw = bodies._draw_block
    monkeypatch.setattr(core, "_cores", lambda: 2)
    monkeypatch.setattr(bodies, "_draw_block", fail_off_main_thread)
    spec = make_spec("product-uniform", 1024, 1, seed=61)
    with pytest.raises(RuntimeError, match="worker failed"):
        row_pass(spec, 1_000, substream(62, 0))
