"""Exchangeable-pair constructions and the Gaussian-approximation bound formulas.

Two couplings are implemented for a marginal W = (theta_i . X)_i:

* reflection of X in a uniformly chosen coordinate hyperplane, for
  1-unconditional bodies;
* transposition of two uniformly chosen simplex vertices (reflection in the
  hyperplane through the remaining ones), for the simplex body.

Both satisfy the linearity condition E[W' - W | X] = -lambda W exactly with
lambda = 2/n, with conditional second moments 2 lambda delta_ij + E_ij(X) in
closed form. The size of E_ij and of E|W' - W|^3 drives every bound.

The simplex is evaluated in vertex coordinates, never by listing its
n(n+1)/2 edges u_ab = c (v_a - v_b), c^2 = n/(2(n+1)). With gamma_a = <v_a, x>,
alpha_ia = <theta_i, v_a> and r = ((n+1)/n)^2, the identities sum_a gamma_a = 0,
sum_a alpha_ia = 0 and the tight frame sum_a <y, v_a> v_a = ((n+1)/n) y give

    sum_{a<b} <theta_i, u_ab><theta_j, u_ab> (u_ab . x)^2
        = (c^4/2) [2(n+1) sum_a alpha_ia alpha_ja gamma_a^2 + 2r delta_ij |x|^2 + 4r W_i W_j],

so E_ij costs O(n k^2) per point instead of O(n^2 k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bodies import (
    BodySpec,
    SimplexGeometry,
    regular_simplex,
    sample_body,
    simplex_vertex_coords,
    vertex_projection,
)
from .core import ConstantsConfig, RandomStream, batch_mean_se, batch_var_se
from .frames import Frame, frame_functionals, project

BOUND_SOURCES = (
    "thm1",
    "thm2",
    "thm3",
    "cor-wass-tv",
    "cor-tv-univ",
    "prop-cm-d2",
)

# Sample-chunk element budget for the closed-form estimators (memory guard).
_CHUNK_BUDGET = 12_500_000


@dataclass(frozen=True)
class PairSpec:
    """One exchangeable-pair configuration: body, frame, and coupling rate."""

    body: BodySpec
    frame: Frame
    geom: Optional[SimplexGeometry] = None
    lam: float = 0.0

    def __post_init__(self):
        if self.frame.n != self.body.n:
            raise ValueError(
                f"frame dimension {self.frame.n} != body dimension {self.body.n}"
            )
        if self.body.kind == "simplex":
            geom = self.geom if self.geom is not None else regular_simplex(self.body.n)
            if geom.n != self.body.n:
                raise ValueError("geometry dimension mismatch")
            object.__setattr__(self, "geom", geom)
        elif self.geom is not None:
            raise ValueError("geometry is only meaningful for the simplex body")
        lam = 2.0 / self.body.n
        if self.lam not in (0.0, lam):
            raise ValueError(f"lambda must equal 2/n = {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return self.frame.k

    @property
    def n(self) -> int:
        return self.body.n


def reflect_pair(x: np.ndarray, index: int, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-hyperplane reflection coupling: W'_i = W_i - 2 theta_i^I x_I."""
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= index < frame.n:
        raise ValueError(f"index {index} out of range 0..{frame.n - 1}")
    w = project(frame, x)
    return w, w - 2.0 * frame.rows[:, index] * x[index]


def transpose_pair(
    x: np.ndarray, i: int, j: int, geom: SimplexGeometry, frame: Frame
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-transposition coupling: W'_i = W_i - 2 x^{IJ} <theta_i, u_IJ>."""
    if i == j:
        raise ValueError("transposition requires two distinct vertices")
    x = np.asarray(x, dtype=np.float64)
    u = geom.edge_direction(i, j)
    w = project(frame, x)
    return w, w - 2.0 * float(x @ u) * (frame.rows @ u)


@dataclass(frozen=True)
class ConditionalResiduals:
    linearity_residual: float
    second_moment_residual: float


def conditional_checks(x: np.ndarray, spec: PairSpec) -> ConditionalResiduals:
    """Verify the conditional identities by exhaustive symmetry enumeration.

    Averages the increment (and its outer square) exactly over all n
    reflection indices, or all ordered vertex transpositions, and compares
    against -lambda W and 2 lambda I + E_ij(x) from the closed forms. The
    transpositions are enumerated in vertex coordinates; the simplex closed
    form is the edge-sum identity of the module docstring.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = spec.frame.rows
    k, n = rows.shape
    lam = spec.lam
    w = project(spec.frame, x)
    eye = np.eye(k)
    if spec.body.kind == "simplex":
        v = spec.geom.vertices
        gamma = v @ x
        alpha = rows @ v.T
        c2 = n / (2.0 * (n + 1.0))
        # u_ab . x = c dg[a, b] and <theta_i, u_ab> = c da[i, a, b]; a = b adds 0.
        # Blocks of vertices a keep da, (k, block * (n+1)), within the budget.
        lin_sum = np.zeros(k)
        sec_sum = np.zeros((k, k))
        block = max(1, _CHUNK_BUDGET // (k * (n + 1)))
        for lo in range(0, n + 1, block):
            dg = (gamma[lo : lo + block, None] - gamma[None, :]).ravel()
            da = (alpha[:, lo : lo + block, None] - alpha[:, None, :]).reshape(k, -1)
            lin_sum += da @ dg
            sec_sum += (da * dg**2) @ da.T
        ordered = n * (n + 1.0)
        lin_enum = -2.0 * c2 * lin_sum / ordered
        sec_enum = 4.0 * c2**2 * sec_sum / ordered
        s = _edge_sums(gamma[None, :], alpha, np.array([x @ x]), w[None, :])
        e_closed = (4.0 / n) * (s.reshape(k, k) / (n + 1) - eye)
    else:
        d = -2.0 * rows * x[None, :]  # increment for each reflection index
        lin_enum = d.mean(axis=1)
        sec_enum = (d @ d.T) / n
        e_closed = (4.0 / n) * ((rows * x**2) @ rows.T - eye)
    lin_res = float(np.max(np.abs(lin_enum + lam * w)))
    sec_res = float(np.max(np.abs(sec_enum - (2.0 * lam * eye + e_closed))))
    return ConditionalResiduals(linearity_residual=lin_res, second_moment_residual=sec_res)


def _edge_sums(
    gamma: np.ndarray, alpha: np.ndarray, norm2: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Ordered-transposition sums sum_{a != b} <theta_i, u_ab><theta_j, u_ab> (u_ab . x)^2.

    gamma (c, n+1) holds <v_a, x> for c points, alpha (k, n+1) holds
    <theta_i, v_a>, norm2 (c,) is |x|^2 and w (c, k) is W. Returns (c, k*k),
    twice the unordered sum of the module docstring's identity.
    """
    k, m = alpha.shape
    n = m - 1
    c4 = (n / (2.0 * m)) ** 2
    r = (m / n) ** 2
    products = (alpha[:, None, :] * alpha[None, :, :]).reshape(k * k, m)
    return c4 * (
        2.0 * m * ((gamma**2) @ products.T)
        + 2.0 * r * norm2[:, None] * np.eye(k).ravel()
        + 4.0 * r * (w[:, :, None] * w[:, None, :]).reshape(-1, k * k)
    )


def _edge_vertices(index: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices of np.triu_indices(m, k=1) to their vertex pairs (a, b)."""
    a = np.arange(m - 1)
    starts = a * m - a * (a + 1) // 2  # linear index of the pair (a, a + 1)
    row = np.searchsorted(starts, index, side="right") - 1
    return row, index - starts[row] + row + 1


@dataclass(frozen=True)
class PairStatistics:
    """Monte-Carlo estimates of the pair terms feeding the semi-empirical bounds.

    term_E estimates (1/lambda) E sqrt(sum_ij E_ij^2) from the per-sample
    closed form (no symmetry-index noise); term_M3 estimates E|W' - W|^3 with
    one sampled symmetry index per draw; condvar_proxy (k = 1 only) is the
    variance of the exact conditional second moment given X, an upper bound
    for the W-conditioned quantity by conditional Jensen.
    """

    term_E: float
    term_E_se: float
    term_M3: float
    term_M3_se: float
    condvar_proxy: Optional[float]
    condvar_proxy_se: Optional[float]
    count: int
    k: int
    n: int
    lam: float


def row_pass(
    spec: PairSpec, count: int, stream: RandomStream, pair_terms: bool = True
) -> tuple[np.ndarray, Optional[PairStatistics]]:
    """One chunked pass over `count` body draws: W (count, k) and, optionally, the pair terms.

    Each chunk projects its points into W and, with `pair_terms`, then draws
    one symmetry index per point and feeds the pair-term accumulators, so the
    empirical distances and the semi-empirical bounds share every draw.
    Memory is O(chunk * n + count * k).

    The simplex is evaluated in vertex coordinates: Dirichlet weights w give
    gamma = <v_a, x> = scale ((n+1)/n w_a - 1/n), E_ij comes from the edge-sum
    identity of the module docstring, and the sampled edge (a, b) of the cube
    term has u_ab . x = c (gamma_a - gamma_b) and <theta_i, u_ab> =
    c (alpha_ia - alpha_ib). Neither the points nor the edges are formed, so
    a draw costs O(n k^2) instead of O(n^2 k).
    """
    if pair_terms and count < 10_000:
        raise ValueError(f"need count >= 10^4, got {count}")
    rows = spec.frame.rows
    k, n = rows.shape
    lam = spec.lam
    eye_flat = np.eye(k).ravel()

    simplex = spec.body.kind == "simplex"
    if simplex:
        alpha = rows @ spec.geom.vertices.T  # (k, n+1)
        edge_coef = math.sqrt(n / (2.0 * (n + 1.0)))
        width = max(n + 1, k * k)  # gamma and the (c, k*k) edge-sum temporaries
    else:
        coord_products = (rows[:, None, :] * rows[None, :, :]).reshape(k * k, n)
        coord_norm3 = np.sqrt(np.sum(rows**2, axis=0)) ** 3
        width = n

    w = np.empty((count, k))
    frob = np.empty(count)
    cubes = np.empty(count)
    cond_second = np.empty(count) if k == 1 else None

    chunk = max(256, _CHUNK_BUDGET // width)
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        part = slice(done, done + c)
        if simplex:
            gamma = simplex_vertex_coords(spec.geom, stream, c)
            w[part] = vertex_projection(gamma, alpha)
        else:
            pts = sample_body(spec.body, stream, c).points
            w[part] = project(spec.frame, pts)
        if not pair_terms:
            continue
        if simplex:
            norm2 = (n / (n + 1.0)) * np.einsum("ca,ca->c", gamma, gamma)
            s = _edge_sums(gamma, alpha, norm2, w[part])  # (c, k*k), ordered-pair sums
            e = (4.0 / n) * (s / (n + 1.0) - eye_flat)
            a, b = _edge_vertices(stream.integers(0, n * (n + 1) // 2, c), n + 1)
            edge_x = edge_coef * (gamma[np.arange(c), a] - gamma[np.arange(c), b])
            edge_t = edge_coef * (alpha[:, a] - alpha[:, b])  # (k, c)
            cubes[part] = 8.0 * np.abs(edge_x) ** 3 * np.sqrt(np.sum(edge_t**2, axis=0)) ** 3
            if cond_second is not None:
                cond_second[part] = (4.0 / (n * (n + 1.0))) * s[:, 0]
        else:
            sq = pts**2
            s = sq @ coord_products.T
            e = (4.0 / n) * (s - eye_flat)
            idx = stream.integers(0, n, c)
            cubes[part] = 8.0 * np.abs(pts[np.arange(c), idx]) ** 3 * coord_norm3[idx]
            if cond_second is not None:
                cond_second[part] = (4.0 / n) * s[:, 0]
        frob[part] = np.sqrt(np.sum(e**2, axis=1))
    if not pair_terms:
        return w, None

    frob_mean, frob_se = batch_mean_se(frob)
    m3_mean, m3_se = batch_mean_se(cubes)
    if cond_second is not None:
        condvar, condvar_se = batch_var_se(cond_second)
    else:
        condvar = condvar_se = None
    return w, PairStatistics(
        term_E=frob_mean / lam,
        term_E_se=frob_se / lam,
        term_M3=m3_mean,
        term_M3_se=m3_se,
        condvar_proxy=condvar,
        condvar_proxy_se=condvar_se,
        count=count,
        k=k,
        n=n,
        lam=lam,
    )


def estimate_pair_terms(spec: PairSpec, count: int, stream: RandomStream) -> PairStatistics:
    """Estimate the pair terms from `count` body samples on one stream (see `row_pass`)."""
    return row_pass(spec, count, stream)[1]


@dataclass(frozen=True)
class BoundReport:
    """Values of one closed-form or semi-empirical bound."""

    source: str
    d1_bound: Optional[float] = None
    dtv_bound: Optional[float] = None
    d2_bound: Optional[float] = None
    constants_used: ConstantsConfig = ConstantsConfig()

    def __post_init__(self):
        if self.source not in BOUND_SOURCES:
            raise ValueError(f"unknown bound source {self.source!r}")
        for value in (self.d1_bound, self.dtv_bound, self.d2_bound):
            if value is not None and value < 0:
                raise ValueError("bounds must be nonnegative")


def theorem_bounds(
    frame: Frame,
    geom: Optional[SimplexGeometry] = None,
    constants: Optional[ConstantsConfig] = None,
    theorem: Optional[str] = None,
) -> BoundReport:
    """Closed-form bounds from the frame functionals alone.

    thm1 covers 1-unconditional bodies (no geometry), thm2 the simplex, and
    thm3 the sharper k = 1 simplex total-variation bound. When `theorem` is
    None it is selected from the presence of a geometry.
    """
    constants = constants or ConstantsConfig()
    if theorem is None:
        theorem = "thm1" if geom is None else "thm2"
    k = frame.k
    fun = frame_functionals(frame, geom)
    if theorem == "thm1":
        return BoundReport(
            source="thm1",
            d1_bound=14.0 * math.sqrt(k * fun.l4_sum),
            dtv_bound=constants.C_tv_multi * k ** (5.0 / 6.0) * fun.l4_sum ** (1.0 / 3.0),
            constants_used=constants,
        )
    if geom is None:
        raise ValueError(f"{theorem} requires a simplex geometry")
    if theorem == "thm2":
        q = fun.simplex_quartic
        return BoundReport(
            source="thm2",
            d1_bound=20.0 * math.sqrt(k * q),
            dtv_bound=constants.C_tv_multi * k ** (5.0 / 6.0) * q ** (1.0 / 3.0),
            constants_used=constants,
        )
    if theorem == "thm3":
        if k != 1:
            raise ValueError("thm3 applies to one-dimensional marginals only")
        return BoundReport(
            source="thm3",
            dtv_bound=constants.C_tv_simplex1d * math.sqrt(fun.simplex_cubic),
            constants_used=constants,
        )
    raise ValueError(f"unknown theorem {theorem!r}")


def corollary_bounds(
    stats: PairStatistics,
    k: int,
    lam: float,
    constants: Optional[ConstantsConfig] = None,
    source: str = "cor-wass-tv",
) -> BoundReport:
    """Semi-empirical bounds assembled from estimated pair terms.

    cor-wass-tv gives d1 and (for log-concave W) C times the cubed-root
    total-variation combination; cor-tv-univ is the k = 1 total-variation
    bound using the X-conditioned variance proxy, reported as an upper bound
    on the W-conditioned quantity; prop-cm-d2 is the smooth-metric bound with
    unit test-function norms.
    """
    constants = constants or ConstantsConfig()
    if k != stats.k or lam != stats.lam:
        raise ValueError("k or lambda inconsistent with the supplied statistics")
    if source == "cor-wass-tv":
        d1 = stats.term_E + k**0.25 * math.sqrt(2.0 * stats.term_M3 / (3.0 * lam))
        dtv = constants.C_tv_multi * (
            k * stats.term_E + k**2 * stats.term_M3 / lam
        ) ** (1.0 / 3.0)
        return BoundReport(source=source, d1_bound=d1, dtv_bound=dtv, constants_used=constants)
    if source == "cor-tv-univ":
        if k != 1:
            raise ValueError("cor-tv-univ applies to one-dimensional marginals only")
        if stats.condvar_proxy is None:
            raise ValueError("cor-tv-univ needs the conditional-variance proxy")
        dtv = math.sqrt(stats.condvar_proxy) / lam + 2.0 * math.sqrt(stats.term_M3 / lam)
        return BoundReport(source=source, dtv_bound=dtv, constants_used=constants)
    if source == "prop-cm-d2":
        d2 = stats.term_E + math.sqrt(2.0 * math.pi) / (24.0 * lam) * stats.term_M3
        return BoundReport(source=source, d2_bound=d2, constants_used=constants)
    raise ValueError(f"no bound formula is emitted for source {source!r}")
