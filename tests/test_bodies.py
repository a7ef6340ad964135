import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from margauss import bodies
from margauss.bodies import (
    BodySpec,
    SampleBatch,
    isotropy_report,
    klartag_variance_check,
    lp_ball_coordinate_variance,
    parse_body_kind,
    regular_simplex,
    sample_body,
    simplex_moment_check,
    third_abs_moment_check,
)
from margauss.core import batch_mean_se, substream

UNIFORM_ABS_THIRD = 9.0 / (4.0 * math.sqrt(3.0))
LAPLACE_ABS_THIRD = 3.0 / math.sqrt(2.0)
GAUSSIAN_ABS_THIRD = 2.0 * math.sqrt(2.0 / math.pi)


def barycentric(geom, points):
    """Invert x = scale * sum c_i v_i for flat simplex samples."""
    inner = points @ geom.vertices.T / geom.scale
    return (inner + 1.0 / geom.n) * geom.n / (geom.n + 1.0)


def test_body_spec_validation():
    with pytest.raises(ValueError):
        BodySpec("cube", 4)
    with pytest.raises(ValueError):
        BodySpec("lp-ball", 4)
    with pytest.raises(ValueError):
        BodySpec("lp-ball", 4, p=0.5)
    with pytest.raises(ValueError):
        BodySpec("product-uniform", 4, p=2.0)
    assert parse_body_kind("lp-ball(1.5)", 8).p == 1.5
    for text in ("lp-ball(inf)", "lp-ball(infinity)"):
        with pytest.raises(ValueError, match="product-uniform"):
            parse_body_kind(text, 8)
    assert parse_body_kind("simplex", 8).kind == "simplex"


def test_triangle_geometry():
    geom = regular_simplex(2)
    gram = geom.vertices @ geom.vertices.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-12)


@given(st.integers(min_value=2, max_value=200))
def test_simplex_geometry_invariants(n):
    geom = regular_simplex(n)
    v = geom.vertices
    assert np.max(np.abs(v.sum(axis=0))) < 1e-12
    gram = v @ v.T
    target = np.full((n + 1, n + 1), -1.0 / n)
    np.fill_diagonal(target, 1.0)
    assert np.max(np.abs(gram - target)) < 1e-10
    assert geom.scale == pytest.approx(math.sqrt(n * (n + 2)))
    x = substream(n, 0).normal(n)
    recon = (v * (v @ x)[:, None]).sum(axis=0)
    assert np.max(np.abs(recon - (n + 1) / n * x)) < 1e-10


def test_tight_frame_factor_n10():
    geom = regular_simplex(10)
    v = geom.vertices
    for i in range(20):
        x = substream(100 + i, 0).normal(10)
        recon = (v * (v @ x)[:, None]).sum(axis=0)
        assert np.max(np.abs(recon - 1.1 * x)) < 1e-10


def test_regular_simplex_rejects_small_n():
    with pytest.raises(ValueError):
        regular_simplex(1)


def test_edge_direction_unit_and_antisymmetric():
    geom = regular_simplex(6)
    for i in range(7):
        for j in range(7):
            if i == j:
                continue
            u = geom.edge_direction(i, j)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert np.array_equal(geom.edge_direction(j, i), -u)
    with pytest.raises(ValueError):
        geom.edge_direction(2, 2)


def test_edge_reconstruction_identity():
    geom = regular_simplex(6)
    i_idx, j_idx, u = geom.unordered_edge_matrix()
    x = substream(10, 0).normal(6)
    # Ordered sum is twice the unordered one.
    recon = 2.0 * (u * (u @ x)[:, None]).sum(axis=0)
    assert np.max(np.abs(recon - (6 + 1) * x)) < 1e-10


def test_product_uniform_isotropy():
    pts = sample_body(BodySpec("product-uniform", 3), substream(21, 0), 1_000_000).points
    cov = pts.T @ pts / len(pts)
    assert np.max(np.abs(cov - np.eye(3))) < 0.01


def test_simplex_isotropy():
    batch = sample_body(BodySpec("simplex", 10), substream(22, 0), 200_000)
    report = isotropy_report(batch)
    assert report.passed
    norm2_est, norm2_se = batch_mean_se(np.sum(batch.points**2, axis=1))
    assert abs(norm2_est - 10.0) < 3 * norm2_se


def test_simplex_samples_stay_in_body():
    spec = BodySpec("simplex", 8)
    geom = spec.geom
    batch = sample_body(spec, substream(23, 0), 10_000)
    norms = np.linalg.norm(batch.points, axis=1)
    assert norms.max() <= geom.scale * (1 + 1e-12)
    coords = barycentric(geom, batch.points)
    assert coords.min() >= -1e-12
    assert np.max(np.abs(coords.sum(axis=1) - 1.0)) < 1e-10


def test_lp_ball_variance_formulas():
    assert lp_ball_coordinate_variance(20, 1.0) == pytest.approx(2.0 / (21 * 22), rel=1e-12)
    assert lp_ball_coordinate_variance(20, 2.0) == pytest.approx(1.0 / 22, rel=1e-12)


def test_lp_ball_variance_is_the_gammaln_expression():
    for p in (1.0, 1.5, 2.0, 3.0):
        for n in (2, 16, 256, 1024):
            expected = math.exp(
                gammaln(3.0 / p) - gammaln(1.0 / p) - gammaln((n + 2.0) / p + 1.0)
                + gammaln(n / p + 1.0)
            )
            assert lp_ball_coordinate_variance(n, p) == expected


def test_lp_ball_unit_coordinate_variance():
    pts = sample_body(BodySpec("lp-ball", 20, p=1.0), substream(24, 0), 200_000).points
    per_coord_sq = pts**2
    est, se = batch_mean_se(per_coord_sq.mean(axis=1))
    assert abs(est - 1.0) < 3 * se


def test_lp_ball_samples_inside_scaled_ball():
    n, p = 10, 1.5
    pts = sample_body(BodySpec("lp-ball", n, p=p), substream(25, 0), 50_000).points
    radius = 1.0 / math.sqrt(lp_ball_coordinate_variance(n, p))
    norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
    assert norms.max() <= radius * (1 + 1e-12)


def test_isotropy_negative_control():
    raw = substream(26, 0).uniform((100_000, 4)) * 2.0 - 1.0  # variance 1/3, unscaled
    batch = SampleBatch(body=BodySpec("product-uniform", 4), points=raw, seed=26, stream_id=0)
    assert not isotropy_report(batch).passed


@pytest.mark.parametrize("scale", [2.0 * math.sqrt(3.0), 1.0])  # isotropic, then too narrow
def test_isotropy_report_matches_the_product_loop(scale):
    # The reference forms each coordinate's products x_i x_j and their sd in turn.
    raw = substream(28, 0).uniform((4_000, 24)) - 0.5
    batch = SampleBatch(body=BodySpec("product-uniform", 24), points=raw * scale, seed=28,
                        stream_id=0)
    pts, count, n = batch.points, batch.count, batch.points.shape[1]
    mean = pts.mean(axis=0)
    mean_z = np.abs(mean) / (pts.std(axis=0, ddof=1) / math.sqrt(count))
    prod_sd = np.array([(pts * pts[:, i][:, None]).std(axis=0, ddof=1) for i in range(n)])
    cov_dev = np.abs(pts.T @ pts / count - np.eye(n))
    cov_z = cov_dev / (prod_sd / math.sqrt(count))
    norm2 = np.sum(pts**2, axis=1)
    norm2_se = norm2.std(ddof=1) / math.sqrt(count)
    max_z = max(mean_z.max(), cov_z.max(), abs(norm2.mean() - n) / norm2_se)
    report = isotropy_report(batch)
    expected = {"max_mean_dev": np.abs(mean).max(), "max_mean_z": mean_z.max(),
                "max_cov_dev": cov_dev.max(), "max_cov_z": cov_z.max(),
                "norm2_mean": norm2.mean(), "norm2_se": norm2_se}
    for field, value in expected.items():
        assert getattr(report, field) == pytest.approx(value, rel=1e-12, abs=0), field
    assert report.passed == bool(max_z <= 4.0) == (scale > 1.0)


def test_klartag_variance_gaussian_matches_analytic():
    spec = BodySpec("product-gaussian", 16)
    a = substream(27, 0).normal(16)
    check = klartag_variance_check(spec, a, 100_000, substream(27, 1))
    assert abs(check.lhs_est - 2.0 * np.sum(a**2)) < 3 * check.lhs_se
    assert check.lhs_est <= check.rhs


def test_klartag_variance_uniform_flat_coefficients():
    n = 16
    spec = BodySpec("product-uniform", n)
    a = np.ones(n) / math.sqrt(n)
    check = klartag_variance_check(spec, a, 100_000, substream(28, 0))
    # Var(X^2) = E X^4 - 1 = 9/5 - 1 for the variance-one uniform coordinate.
    assert abs(check.lhs_est - 0.8) < 3 * check.lhs_se
    assert check.rhs == pytest.approx(32.0)


def test_klartag_variance_zero_coefficients():
    spec = BodySpec("product-laplace", 8)
    check = klartag_variance_check(spec, np.zeros(8), 20_000, substream(29, 0))
    assert check.lhs_est == 0.0
    assert check.rhs == 0.0


def test_klartag_variance_bound_20_random_sequences():
    for kind in ("product-uniform", "product-laplace", "product-gaussian"):
        spec = BodySpec(kind, 12)
        for trial in range(20):
            a = substream(30, trial).normal(12)
            check = klartag_variance_check(spec, a, 20_000, substream(31, trial))
            assert check.lhs_est <= check.rhs + 3 * check.lhs_se


def test_klartag_variance_rejects_simplex():
    with pytest.raises(ValueError):
        klartag_variance_check(BodySpec("simplex", 8), np.zeros(8), 20_000, substream(1, 0))


def test_simplex_moment_classes():
    report = simplex_moment_check(10, 200_000, substream(32, 0))
    by_class = {row.pair_class: row for row in report.rows}
    assert by_class["disjoint"].exact == pytest.approx(66 / 91)
    assert by_class["overlap-1"].exact == pytest.approx(3 * 66 / 91)
    assert by_class["overlap-2"].exact == pytest.approx(6 * 66 / 91)
    for row in report.rows:
        assert abs(row.mc_estimate - row.exact) < 3 * row.se
    assert report.third_abs_bound == pytest.approx(3 * math.sqrt(2))
    assert report.third_abs_estimate < report.third_abs_bound + 3 * report.third_abs_se


def test_simplex_moment_check_preconditions():
    with pytest.raises(ValueError):
        simplex_moment_check(3, 200_000, substream(1, 0))
    with pytest.raises(ValueError):
        simplex_moment_check(10, 1_000, substream(1, 0))


@pytest.mark.parametrize(
    "kind,oracle",
    [
        ("product-laplace", LAPLACE_ABS_THIRD),
        ("product-uniform", UNIFORM_ABS_THIRD),
        ("product-gaussian", GAUSSIAN_ABS_THIRD),
    ],
)
def test_third_abs_moments(kind, oracle):
    n = 4
    report = third_abs_moment_check(BodySpec(kind, n), 200_000, substream(33, 0))
    pooled = report.estimates.mean()
    pooled_se = report.ses.mean() / math.sqrt(n)
    assert abs(pooled - oracle) < 3 * pooled_se
    assert pooled <= report.bound + 3 * pooled_se
    assert report.bound == pytest.approx(3 * math.sqrt(2) / 2)


def test_unconditionality_symmetry():
    spec = BodySpec("lp-ball", 6, p=1.0)
    pts = sample_body(spec, substream(34, 0), 100_000).points
    flipped = pts.copy()
    flipped[:, 0] *= -1.0
    # Even moments are invariant under the flip; odd first moments vanish.
    assert np.allclose((flipped**2).mean(axis=0), (pts**2).mean(axis=0))
    assert np.allclose((flipped**4).mean(axis=0), (pts**4).mean(axis=0))
    mean_est, mean_se = batch_mean_se(pts[:, 0])
    assert abs(mean_est) < 3 * mean_se


def test_sample_body_count_validation():
    with pytest.raises(ValueError):
        sample_body(BodySpec("product-uniform", 3), substream(1, 0), 0)


def test_laplace_draw_is_chunk_invariant(monkeypatch):
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 600)  # blocks of 100 points at n = 6
    spec = BodySpec("product-laplace", 6)
    whole = sample_body(spec, substream(36, 0), 1_000).points
    stream = substream(36, 0)
    parts = [pts.copy() for lo, hi in ((0, 300), (300, 1_000))
             for _, pts in bodies.blocks(spec, stream, lo, hi)]
    assert np.array_equal(np.concatenate(parts), whole)


def _rows(spec, stream, lo, hi):
    """Draws lo..hi of `stream` by `bodies.blocks`, gathered in order."""
    return np.concatenate([pts.copy() for _, pts in bodies.blocks(spec, stream, lo, hi)])


@pytest.mark.parametrize(
    "kind", ["product-uniform", "product-gaussian", "product-laplace", "lp-ball(1.5)", "simplex"]
)
def test_points_depend_on_their_position_alone(kind, monkeypatch):
    # Blocks of 8 points at n = 8 (n + 1 = 9 coordinates for the simplex). A
    # draw that ends inside a block, or starts at a later block, gives the
    # points of one draw of them all.
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 80)
    spec = parse_body_kind(kind, 8)
    assert spec.block == 8
    whole = _rows(spec, substream(40, 2), 0, 37)  # the simplex's vertex coordinates
    points = sample_body(spec, substream(40, 2), 37).points
    assert np.array_equal(sample_body(spec, substream(40, 2), 5).points, points[:5])
    assert np.array_equal(bodies.to_points(spec, whole), points)
    starts = [start for start, _ in bodies.blocks(spec, substream(40, 2), 24, 37)]
    assert starts == [24, 32]
    assert np.array_equal(_rows(spec, substream(40, 2), 24, 37), whole[24:])
    # Draws from the stream itself change no block.
    stream = substream(40, 2)
    stream.uniform(3)
    assert np.array_equal(_rows(spec, stream, 8, 16), whole[8:16])
    assert np.array_equal(_rows(spec, stream, 24, 37), whole[24:])


def test_blocks_reject_an_offset_start(monkeypatch):
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 80)  # blocks of 8 points at n = 8
    with pytest.raises(ValueError, match="multiple of the block 8"):
        next(bodies.blocks(BodySpec("product-uniform", 8), substream(41, 0), 4, 16))
    for lo, hi in ((8, 8), (16, 8), (0, 0), (0, -3)):
        assert list(bodies.blocks(BodySpec("simplex", 8), substream(41, 0), lo, hi)) == []


def cartesian_simplex_points(spec, stream, count):
    """The first `count` uniform simplex points of `stream`, made in Cartesian coordinates:
    block b's Dirichlet weights w, normalized exponentials from stream.block(b), give
    x = scale * (w @ V). A reference that shares no step with `simplex_vertex_coords`."""
    geom, block, pts = spec.geom, spec.block, []
    for b in range(-(-count // block)):
        w = stream.block(b).exponential((block, spec.n + 1))
        w /= w.sum(axis=1, keepdims=True)
        pts.append(geom.scale * (w @ geom.vertices))
    return np.concatenate(pts)[:count]


@pytest.mark.parametrize("n", [2, 8, 64])
def test_vertex_coords_are_the_sampled_points_in_vertex_coordinates(n, monkeypatch):
    # The sweep's simplex pass reads gamma_a = <v_a, x>; these must be the
    # coordinates of uniform simplex points x, block by block, and `to_points`
    # must give the points back.
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 40 * (n + 1))  # blocks of 40 points
    spec = BodySpec("simplex", n)
    assert spec.block == 40
    count = 3 * spec.block + 7
    x = cartesian_simplex_points(spec, substream(42, n), count)
    gamma = [(start, g.copy()) for start, g in bodies.blocks(spec, substream(42, n), 0, count)]
    assert [start for start, _ in gamma] == [0, 40, 80, 120]
    gamma = np.concatenate([g for _, g in gamma])
    assert gamma.shape == (count, n + 1)
    assert np.max(np.abs(gamma - x @ spec.geom.vertices.T)) < 1e-12
    assert np.max(np.abs(bodies.to_points(spec, gamma) - x)) < 1e-12
    assert np.max(np.abs(sample_body(spec, substream(42, n), count).points - x)) < 1e-12


def test_only_bodies_applies_the_block_rule():
    # `bodies.blocks` is the one owner of the rule "block b from stream.block(b)":
    # a loop elsewhere that builds block streams itself would re-derive it.
    src = Path(bodies.__file__).parent
    calls, named = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if "first_block" in text:
            named.append(path.name)
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "block"
                    and not (isinstance(node.func.value, ast.Name)
                             and node.func.value.id in ("np", "numpy"))):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls and all(call.startswith("bodies.py:") for call in calls), calls
    assert named == []


def test_only_bodies_reads_the_simplex_vertices():
    # The simplex is drawn, and read by every pass, in vertex coordinates alone;
    # `bodies` owns the vertices and the one draw, so no other module reads them
    # and the Cartesian draw's names are gone.
    src = Path(bodies.__file__).parent
    reads, names = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "vertices"
                    and path.name != "bodies.py"):
                reads.append(f"{path.name}:{node.lineno}")
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "arg", None) or getattr(node, "name", None))
            if name in ("vertex_coords", "_simplex_weights"):
                names.append(f"{path.name}:{node.lineno}")
    assert not reads and not names, (reads, names)


@pytest.mark.parametrize("n, block", [(1, 131_072), (16, 8_192), (1023, 128), (1024, 128),
                                      (40_000, 4)])
def test_block_size_follows_the_body_alone(n, block):
    assert BodySpec("product-gaussian", n).block == block
    assert BodySpec("lp-ball", n, 1.5).block == block
    # The simplex holds n + 1 vertex coordinates per point.
    assert BodySpec("simplex", n + 1).block == max(4, 131_072 // (n + 2) // 4 * 4)


class _FixedUniforms:
    """A stream whose blocks draw fixed uniforms in order: a block of s values
    takes the next s of `values`, and zeros past their end."""

    seed = stream_id = 0

    def __init__(self, values, b=0):
        self.values, self.b = np.array(values, dtype=np.float64), b

    def block(self, b):
        return _FixedUniforms(self.values, b)

    def uniform(self, size=None, out=None):
        chunk = self.values[self.b * out.size:(self.b + 1) * out.size]
        out[...] = 0.0
        out.reshape(-1)[: len(chunk)] = chunk
        return out


def test_laplace_draw_finite_at_uniform_extremes():
    # u = 0 and u = 1/2 give v = 0; u = 1 - 2^-53, the largest uniform, gives v = 1 - 2^-52.
    u = [0.0, 0.5, 1.0 - 2.0**-53]
    pts = sample_body(BodySpec("product-laplace", 3), _FixedUniforms(u), 1).points[0]
    assert np.all(np.isfinite(pts))
    assert pts[0] == 0.0 and pts[1] == 0.0
    assert pts[2] == pytest.approx(52.0 * math.log(2.0) / math.sqrt(2.0), rel=1e-15)


def _masked_laplace(u):
    """The product-laplace inverse CDF in its masked form, kept as the reference."""
    negative = u < 0.5
    u = 2.0 * u
    np.subtract(u, 1.0, out=u, where=~negative)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= -math.sqrt(2.0)
    np.negative(u, out=u, where=negative)
    return u


def test_laplace_draw_matches_masked_inverse_cdf_bit_for_bit():
    edges = [0.0, 0.5, np.nextafter(0.5, 0.0), 1.0 - 2.0**-53]
    u = np.concatenate([substream(37, 0).uniform(1_000_000), edges])
    pts = sample_body(BodySpec("product-laplace", 1), _FixedUniforms(u), len(u)).points[:, 0]
    # Equal bit patterns: the same values and the same sign of zero (-0.0 at u = 0).
    assert np.array_equal(pts.view(np.uint64), _masked_laplace(u).view(np.uint64))
    assert np.signbit(pts[-4]) and not np.signbit(pts[-3])


def test_uniform_draw_matches_three_step_form_bit_for_bit():
    # (u - 1/2) * (2 sqrt 3) rounds once, as (2u - 1) sqrt 3 does: u - 1/2 and 2u - 1
    # are exact for every double in [0, 1), and so is 2 fl(sqrt 3).
    edges = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    u = np.concatenate([substream(39, 0).uniform(1_000_000), edges])
    reference = (2.0 * u - 1.0) * math.sqrt(3.0)
    pts = sample_body(BodySpec("product-uniform", 1), _FixedUniforms(u), len(u)).points[:, 0]
    assert np.array_equal(pts.view(np.uint64), reference.view(np.uint64))
    drawn = sample_body(BodySpec("product-uniform", 8), substream(39, 1), 1_000).points
    reference = (2.0 * substream(39, 1).block(0).uniform((1_000, 8)) - 1.0) * math.sqrt(3.0)
    assert np.array_equal(drawn.view(np.uint64), reference.view(np.uint64))
