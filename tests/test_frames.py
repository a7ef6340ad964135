import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from margauss.bodies import SimplexGeometry
from margauss.core import batch_mean_se, substream
from margauss.frames import (
    Frame,
    coordinate_frame,
    frame_functionals,
    haar_frame,
    project,
    sylvester_hadamard,
    walsh_frame,
)
from margauss.stein import theorem_bounds

TRIANGLE = SimplexGeometry(
    n=2,
    vertices=np.array([[0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]]),
    scale=math.sqrt(2 * 4),
)


def test_sylvester_base_cases():
    assert sylvester_hadamard(1).tolist() == [[1]]
    assert sylvester_hadamard(2).tolist() == [[1, 1], [1, -1]]


def test_sylvester_orthogonality_exact():
    for m in [1, 2, 4, 8, 16, 32, 64, 128, 256]:
        h = sylvester_hadamard(m)
        assert h.dtype == np.int64
        assert np.array_equal(h @ h.T, m * np.eye(m, dtype=np.int64))


@given(st.integers(min_value=2, max_value=1000))
def test_sylvester_rejects_non_powers(m):
    if m & (m - 1) != 0:
        with pytest.raises(ValueError):
            sylvester_hadamard(m)


def test_walsh_frame_rows_n4():
    f = walsh_frame(4, 2)
    assert np.allclose(f.rows[0], [0.5, 0.5, 0.5, 0.5])
    assert np.allclose(f.rows[1], [0.5, -0.5, 0.5, -0.5])


def test_walsh_frame_row_l4_norm():
    f = walsh_frame(64, 4)
    per_row = np.sqrt(np.sum(f.rows**4, axis=1))
    assert np.allclose(per_row, 0.125, atol=1e-15)


def test_walsh_frame_padding():
    f = walsh_frame(100, 3)
    assert np.count_nonzero(f.rows[:, 64:]) == 0
    assert frame_functionals(f).l4_sum == pytest.approx(3 / 8, abs=1e-13)


def test_walsh_frame_flat_entries():
    f = walsh_frame(100, 3)
    nonzero = f.rows[:, :64]
    assert np.all(np.abs(nonzero) == 1.0 / np.sqrt(64))


def test_walsh_frame_k_over_m_names_m():
    with pytest.raises(ValueError, match="m = 64"):
        walsh_frame(100, 65)


def test_haar_frame_orthonormal():
    f = haar_frame(50, 5, substream(1, 0))
    gram = f.rows @ f.rows.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def test_haar_frame_is_the_gram_schmidt_frame_of_its_draw():
    # Gram-Schmidt on the rows g_i gives <theta_i, g_j> = 0 for j < i and
    # <theta_i, g_i> > 0: R is upper triangular with a positive diagonal.
    n, k = 40, 6
    g = substream(5, 0).normal((k, n))
    r = haar_frame(n, k, substream(5, 0)).rows @ g.T
    assert np.max(np.abs(np.tril(r, -1))) < 1e-12
    assert np.all(np.diagonal(r) > 0)


class _Stream:
    """Hands out fixed Gaussian draws in turn, for the rank check."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def normal(self, size):
        return self.draws.pop(0)


def test_haar_frame_redraws_a_rank_deficient_draw():
    deficient = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    good = substream(6, 0).normal((2, 3))
    f = haar_frame(3, 2, _Stream(deficient, good))
    assert np.max(np.abs(f.rows @ f.rows.T - np.eye(2))) < 1e-12
    with pytest.raises(RuntimeError, match="rank-deficient"):
        haar_frame(3, 2, _Stream(deficient, deficient))


def test_haar_frame_2x2_is_orthogonal():
    f = haar_frame(2, 2, substream(2, 0))
    assert abs(abs(np.linalg.det(f.rows)) - 1.0) < 1e-10


def test_haar_row_l4_matches_sphere_oracle():
    # Oracle: the same functional on raw normalized Gaussian vectors, which
    # are uniform on the sphere by construction.
    n, draws = 1000, 200
    haar_vals = np.array(
        [
            frame_functionals(haar_frame(n, 1, substream(3, i))).l4_sum
            for i in range(draws)
        ]
    )
    g = substream(4, 0).normal((2000, n))
    sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
    sphere_vals = np.sqrt(np.sum(sphere**4, axis=1))
    se = math.hypot(
        haar_vals.std(ddof=1) / math.sqrt(draws),
        sphere_vals.std(ddof=1) / math.sqrt(len(sphere_vals)),
    )
    assert abs(haar_vals.mean() - sphere_vals.mean()) < 3 * se
    # Fourth-power sum itself concentrates at 3/(n+2).
    est, se4 = batch_mean_se(np.sum(sphere**4, axis=1))
    assert abs(est - 3.0 / (n + 2)) < 3 * se4


def test_coordinate_frame_functionals():
    f = coordinate_frame(5, 2)
    assert frame_functionals(f).l4_sum == pytest.approx(2.0)
    gram = f.rows @ f.rows.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-15


def test_coordinate_frame_bound_is_vacuous():
    report = theorem_bounds(frame_functionals(coordinate_frame(5, 1)), 1)
    assert report.d1_bound == pytest.approx(14.0)


def test_project_examples():
    f = coordinate_frame(5, 2)
    assert np.allclose(project(f, np.array([3.0, 4.0, 5.0, 0.0, 0.0])), [3.0, 4.0])
    w = project(walsh_frame(4, 2), np.ones(4))
    assert np.allclose(w, [2.0, 0.0], atol=1e-14)
    assert np.allclose(project(f, np.zeros(5)), 0.0)
    with pytest.raises(ValueError):
        project(f, np.zeros(4))


def test_project_batches():
    f = walsh_frame(8, 3)
    batch = substream(5, 0).normal((10, 8))
    w = project(f, batch)
    assert w.shape == (10, 3)
    assert np.allclose(w[0], project(f, batch[0]))


def test_frame_functionals_walsh_and_triangle():
    assert frame_functionals(walsh_frame(64, 2)).l4_sum == pytest.approx(0.25, abs=1e-14)
    theta = Frame(np.array([[1.0, 0.0]]), kind="custom")
    fun = frame_functionals(theta, TRIANGLE.vertex_products(theta.rows))
    assert fun.simplex_cubic == pytest.approx(2 * (math.sqrt(3) / 2) ** 3, abs=1e-12)
    assert fun.simplex_cubic == pytest.approx(1.29904, abs=1e-5)


def test_frame_functionals_simplex_cubic_requires_k1():
    f = walsh_frame(2, 2)
    fun = frame_functionals(f, TRIANGLE.vertex_products(f.rows))
    assert fun.simplex_cubic is None
    assert fun.simplex_quartic is not None
    with pytest.raises(ValueError, match="vertex products"):
        frame_functionals(f, TRIANGLE.vertex_products(f.rows)[:1])


def test_frame_validation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Frame(np.array([[0.5, 0.0]]))


def test_norm_chain_on_100_random_frames():
    for seed in range(100):
        stream = substream(seed, 0)
        n = int(stream.integers(2, 40))
        k = int(stream.integers(1, min(n, 6) + 1))
        f = haar_frame(n, k, stream)
        for row in f.rows:
            l3_cubed = np.sum(np.abs(row) ** 3)
            l4_squared = np.sqrt(np.sum(row**4))
            assert l3_cubed <= l4_squared + 1e-12
            assert l4_squared <= 1.0 + 1e-12
        l4_sum = frame_functionals(f).l4_sum
        assert k / math.sqrt(n) - 1e-12 <= l4_sum <= k + 1e-12


def test_l4_sum_equality_cases():
    n = 64
    assert frame_functionals(walsh_frame(n, 3)).l4_sum == pytest.approx(3 / math.sqrt(n))
    assert frame_functionals(coordinate_frame(n, 3)).l4_sum == pytest.approx(3.0)
