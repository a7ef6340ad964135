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
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bodies import (
    BodySpec,
    SimplexGeometry,
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

# Elements of one row-pass tile or vertex block (1 MiB of float64), sized to stay in L2 cache.
_TILE_BUDGET = 131_072


@dataclass(frozen=True)
class PairSpec:
    """One exchangeable-pair configuration: a body and a frame of the same dimension."""

    body: BodySpec
    frame: Frame

    def __post_init__(self):
        if self.frame.n != self.body.n:
            raise ValueError(
                f"frame dimension {self.frame.n} != body dimension {self.body.n}"
            )

    @property
    def lam(self) -> float:
        """The coupling rate of both pairs, 2/n."""
        return 2.0 / self.body.n

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


def check_tile(spec: PairSpec) -> int:
    """Points `conditional_checks` works on at a time, sized from `_TILE_BUDGET`.

    For a product body a tile's (c, k, n) reflection increments fit in the
    budget. For the simplex a tile's (c, k*k) sums fit, and each of its points
    has room for at least one block of vertices a, n + 1 transpositions each.
    """
    k, n = spec.frame.rows.shape
    if spec.body.kind == "simplex":
        return max(1, min(_TILE_BUDGET // (n + 1), _TILE_BUDGET // (k * k)))
    return max(1, _TILE_BUDGET // (k * n))


def conditional_checks(x: np.ndarray, spec: PairSpec) -> ConditionalResiduals:
    """Verify the conditional identities at one point (n,) or a batch (c, n).

    Averages the increment (and its outer square) exactly over all n
    reflection indices, or all ordered vertex transpositions, and compares
    against -lambda W and 2 lambda I + E_ij(x) from the closed forms. The
    transpositions are enumerated in vertex coordinates; the simplex closed
    form is the edge-sum identity of the module docstring.

    Each residual is the worst over the batch: the largest entry of any
    point, NaN if any point gives NaN, and 0 for a batch of no points. The
    batch is worked through in tiles of `check_tile(spec)` points; for the
    simplex, each tile also runs over blocks of vertices a. Tiles and blocks
    are sized from `_TILE_BUDGET`, so the memory used beyond x does not grow
    with the batch.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = spec.frame.rows
    k, n = rows.shape
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"x must be one point ({n},) or a batch (c, {n}), got shape {x.shape}")
    lam = spec.lam
    eye = np.eye(k)
    lin_res = sec_res = np.float64(0.0)
    tile = check_tile(spec)
    simplex = spec.body.kind == "simplex"
    if simplex:
        v = spec.body.geom.vertices
        alpha = rows @ v.T
        m = n + 1
        c2 = n / (2.0 * m)
        ordered = n * (n + 1.0)
        # Blocks of `block` vertices a keep the (c, block * m) increments and the
        # (k*k, block * m) products within the tile budget, unless k*k*m alone
        # exceeds it, as in _edge_sums.
        pairs = max(1, _TILE_BUDGET // m)
    else:
        # (c, k, n) reflection increments, then the rows scaled by x^2 for the
        # closed form: one buffer reused by both and by every tile
        scratch = np.empty((min(len(pts), tile), k, n))
    for lo in range(0, len(pts), tile):
        xt = pts[lo : lo + tile]
        c = len(xt)
        w = project(spec.frame, xt)
        if simplex:
            gamma = xt @ v.T
            # u_ab . x = sqrt(c2) dg[a, b] and <theta_i, u_ab> = sqrt(c2) da[i, a, b];
            # a = b adds 0.
            lin_sum = np.zeros((c, k))
            sec_sum = np.zeros((c, k * k))
            block = max(1, pairs // max(c, k * k))
            for a in range(0, m, block):
                dg = (gamma[:, a : a + block, None] - gamma[:, None, :]).reshape(c, -1)
                da = (alpha[:, a : a + block, None] - alpha[:, None, :]).reshape(k, -1)
                lin_sum += dg @ da.T
                products = (da[:, None, :] * da[None, :, :]).reshape(k * k, -1)
                sec_sum += np.square(dg, out=dg) @ products.T
            lin_enum = -2.0 * c2 * lin_sum / ordered
            sec_enum = (4.0 * c2**2 / ordered) * sec_sum.reshape(c, k, k)
            s = _edge_sums(gamma, alpha, np.einsum("cn,cn->c", xt, xt), w)
            e_closed = (4.0 / n) * (s.reshape(c, k, k) / m - eye)
        else:
            d = np.multiply(-2.0 * rows, xt[:, None, :], out=scratch[:c])
            lin_enum = d.mean(axis=2)
            sec_enum = (d @ d.transpose(0, 2, 1)) / n
            scaled = np.multiply(rows, np.square(xt)[:, None, :], out=scratch[:c])
            e_sums = scaled.reshape(c * k, n) @ rows.T
            e_closed = (4.0 / n) * (e_sums.reshape(c, k, k) - eye)
        lin_res = np.maximum(lin_res, np.max(np.abs(lin_enum + lam * w)))
        sec_res = np.maximum(sec_res, np.max(np.abs(sec_enum - (2.0 * lam * eye + e_closed))))
    return ConditionalResiduals(
        linearity_residual=float(lin_res), second_moment_residual=float(sec_res)
    )


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


def _cores() -> int:
    """CPUs this process may run on: the most threads a row pass starts."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    spec: PairSpec, count: int, stream: RandomStream, indices: Optional[RandomStream] = None
) -> tuple[np.ndarray, Optional[PairStatistics]]:
    """One pass over `count` body draws: W (count, k) and, with `indices`, the pair terms.

    With an `indices` stream the row first draws one symmetry index per point
    from it (a reflection coordinate, or an edge of the simplex), so `stream`
    carries the points alone and W does not depend on whether the pair terms
    are computed. The points are drawn in tiles of about `_TILE_BUDGET`
    elements, a multiple of 4 rows, into one reused buffer; each tile is
    scaled, projected into W and reduced to its coordinate or edge sums, cube
    terms and conditional second moments while it is still in cache. Product
    tiles read the stream exactly as one draw of all `count` points would;
    lp-ball draws take three arrays, so their values depend on the tile size.
    When the body reads one uniform per coordinate (product-uniform and
    product-laplace), the tiles are split into one contiguous range per CPU,
    each drawn on its own thread from a view of `stream` jumped ahead to its
    first row; every value is that of one serial pass. The pass is the only
    reader of `stream` and leaves it at no defined position. Memory is
    O(tile * width * threads + count * k), width = max(n, k*k).

    The simplex is evaluated in vertex coordinates: Dirichlet weights w give
    gamma = <v_a, x> = scale ((n+1)/n w_a - 1/n), E_ij comes from the edge-sum
    identity of the module docstring, and the sampled edge (a, b) of the cube
    term has u_ab . x = c (gamma_a - gamma_b) and <theta_i, u_ab> =
    c (alpha_ia - alpha_ib). Neither the points nor the edges are formed, so
    a draw costs O(n k^2) instead of O(n^2 k).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pair_terms = indices is not None
    if pair_terms and count < 10_000:
        raise ValueError(f"need count >= 10^4, got {count}")
    rows = spec.frame.rows
    k, n = rows.shape
    lam = spec.lam
    eye_flat = np.eye(k).ravel()

    simplex = spec.body.kind == "simplex"
    if simplex:
        alpha = rows @ spec.body.geom.vertices.T  # (k, n+1)
        edge_coef = math.sqrt(n / (2.0 * (n + 1.0)))
        m = n + 1  # gamma holds one coordinate per vertex
    else:
        coord_products = (rows[:, None, :] * rows[None, :, :]).reshape(k * k, n)
        coord_norm3 = np.sqrt(np.sum(rows**2, axis=0)) ** 3
        m = n
    width = max(m, k * k)  # the body buffer and the (tile, k*k) pair-term sums
    # Tiles hold a multiple of 4 rows: BLAS matrix-vector kernels take rows in
    # groups of four and round an operand's last 1-3 rows differently, so
    # aligned tiles give k = 1 the bits of one single-threaded product over
    # all the rows.
    tile = min(count, max(4, _TILE_BUDGET // width // 4 * 4))

    w = np.empty((count, k))
    if pair_terms:
        if simplex:
            a, b = _edge_vertices(indices.integers(0, n * (n + 1) // 2, count), n + 1)
        else:
            idx = indices.integers(0, n, count)
        frob = np.empty(count)
        cubes = np.empty(count)
        cond_second = np.empty(count) if k == 1 else None

    def tiles(lo: int, hi: int, stream: RandomStream) -> None:
        """Draw rows lo..hi tile by tile and write their W and pair terms."""
        body = np.empty((tile, m))  # the tile's points, or gamma for the simplex
        sums = np.empty((tile, k * k)) if pair_terms else None
        for start in range(lo, hi, tile):
            t = min(tile, hi - start)
            part = slice(start, start + t)
            pts = body[:t]
            if simplex:
                simplex_vertex_coords(spec.body.geom, stream, t, out=pts)
                w[part] = vertex_projection(pts, alpha)
            else:
                sample_body(spec.body, stream, t, out=pts)
                w[part] = project(spec.frame, pts)
            if not pair_terms:
                continue
            s, r = sums[:t], np.arange(t)
            if simplex:  # ordered-pair edge sums
                norm2 = (n / (n + 1.0)) * np.einsum("ca,ca->c", pts, pts)
                s[...] = _edge_sums(pts, alpha, norm2, w[part])
                ta, tb = a[part], b[part]
                edge_x = edge_coef * (pts[r, ta] - pts[r, tb])
                edge_t = edge_coef * (alpha[:, ta] - alpha[:, tb])  # (k, t)
                cubes[part] = 8.0 * np.abs(edge_x) ** 3 * np.sqrt(np.sum(edge_t**2, axis=0)) ** 3
                if cond_second is not None:
                    cond_second[part] = (4.0 / (n * (n + 1.0))) * s[:, 0]
                s /= n + 1.0
            else:
                ti = idx[part]
                cubes[part] = 8.0 * np.abs(pts[r, ti]) ** 3 * coord_norm3[ti]
                np.matmul(np.square(pts, out=pts), coord_products.T, out=s)
                if cond_second is not None:
                    cond_second[part] = (4.0 / n) * s[:, 0]
            e = s  # E_ij = (4/n) (s - delta_ij), formed in place
            e -= eye_flat
            e *= 4.0 / n
            frob[part] = np.sqrt(np.sum(np.square(e, out=e), axis=1))

    # Rows split into one contiguous range of whole tiles per worker, so each
    # tile, and every product in it, is the one a serial pass computes. A
    # worker draws its rows from a view of `stream` jumped to their first
    # element, which only a body reading one uniform per coordinate allows.
    n_tiles = -(-count // tile)
    workers = min(_cores(), n_tiles) if spec.body.one_uniform_per_coordinate else 1
    bounds = [tile * (n_tiles * i // workers) for i in range(workers)] + [count]
    if workers == 1:
        tiles(0, count, stream)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [
                pool.submit(tiles, lo, hi, stream.ahead(lo * n))
                for lo, hi in zip(bounds[1:-1], bounds[2:])
            ]
            tiles(0, bounds[1], stream)
            for future in futures:
                future.result()
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


def estimate_pair_terms(
    spec: PairSpec, count: int, stream: RandomStream, indices: RandomStream
) -> PairStatistics:
    """Estimate the pair terms from `count` body samples on `stream` (see `row_pass`)."""
    return row_pass(spec, count, stream, indices)[1]


@dataclass(frozen=True)
class BoundReport:
    """Values of one closed-form or semi-empirical bound."""

    source: str
    d1_bound: Optional[float] = None
    dtv_bound: Optional[float] = None
    d2_bound: Optional[float] = None

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
        )
    if geom is None:
        raise ValueError(f"{theorem} requires a simplex geometry")
    if theorem == "thm2":
        q = fun.simplex_quartic
        return BoundReport(
            source="thm2",
            d1_bound=20.0 * math.sqrt(k * q),
            dtv_bound=constants.C_tv_multi * k ** (5.0 / 6.0) * q ** (1.0 / 3.0),
        )
    if theorem == "thm3":
        if k != 1:
            raise ValueError("thm3 applies to one-dimensional marginals only")
        return BoundReport(
            source="thm3", dtv_bound=constants.C_tv_simplex1d * math.sqrt(fun.simplex_cubic)
        )
    raise ValueError(f"unknown theorem {theorem!r}")


def corollary_bounds(
    stats: PairStatistics,
    constants: Optional[ConstantsConfig] = None,
    source: str = "cor-wass-tv",
) -> BoundReport:
    """Semi-empirical bounds assembled from estimated pair terms.

    cor-wass-tv gives d1 and (for log-concave W) C times the cubed-root
    total-variation combination; cor-tv-univ is the k = 1 total-variation
    bound using the X-conditioned variance proxy, reported as an upper bound
    on the W-conditioned quantity; prop-cm-d2 is the smooth-metric bound with
    unit test-function norms. k and lambda are those of the statistics.
    """
    constants = constants or ConstantsConfig()
    k, lam = stats.k, stats.lam
    if source == "cor-wass-tv":
        d1 = stats.term_E + k**0.25 * math.sqrt(2.0 * stats.term_M3 / (3.0 * lam))
        dtv = constants.C_tv_multi * (
            k * stats.term_E + k**2 * stats.term_M3 / lam
        ) ** (1.0 / 3.0)
        return BoundReport(source=source, d1_bound=d1, dtv_bound=dtv)
    if source == "cor-tv-univ":
        if k != 1:
            raise ValueError("cor-tv-univ applies to one-dimensional marginals only")
        if stats.condvar_proxy is None:
            raise ValueError("cor-tv-univ needs the conditional-variance proxy")
        dtv = math.sqrt(stats.condvar_proxy) / lam + 2.0 * math.sqrt(stats.term_M3 / lam)
        return BoundReport(source=source, dtv_bound=dtv)
    if source == "prop-cm-d2":
        d2 = stats.term_E + math.sqrt(2.0 * math.pi) / (24.0 * lam) * stats.term_M3
        return BoundReport(source=source, d2_bound=d2)
    raise ValueError(f"no bound formula is emitted for source {source!r}")
