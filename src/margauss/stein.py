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

so E_ij costs O(n k^2) per point instead of O(n^2 k). `group_pass` and `conditional_checks`
share each step to E_ij: W (`PairSpec.project`), the simplex's |x|^2 (`_vertex_norm2`), the
sums s (`_moment_sums`) and E = (4/n)(s - I) (`_e_from_sums`). Only `conditional_checks` lists
the moves, to check them: every reflection, and each transposition once (a < b), since both
summands are even in (a, b).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .bodies import BodySpec, SimplexGeometry, blocks
from .core import ConstantsConfig, RandomStream, _split, batch_mean_se, batch_var_se
from .frames import Frame, FrameFunctionals, project

BOUND_SOURCES = (
    "thm1",
    "thm2",
    "thm3",
    "cor-wass-tv",
    "cor-tv-univ",
    "prop-cm-d2",
)

# Draws a row needs before its pair terms, and so its semi-empirical bounds, are estimated.
PAIR_TERM_MIN_COUNT = 10_000


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

    @cached_property
    def alpha(self) -> np.ndarray:
        """theta (k, n) for a product body; alpha_ia = <theta_i, v_a> (k, n+1) for the simplex."""
        rows = self.frame.rows
        return self.body.geom.vertex_products(rows) if self.body.kind == "simplex" else rows

    @cached_property
    def products(self) -> np.ndarray:
        """alpha_i * alpha_j for every (i, j), (k*k, m): the weights of `_moment_sums`."""
        alpha = self.alpha
        return (alpha[:, None, :] * alpha[None, :, :]).reshape(self.k * self.k, -1)

    def project(self, coords: np.ndarray) -> np.ndarray:
        """W (c, k) of a block as a pass reads it: a product body's points, or the simplex's
        gamma (c, n+1), where sum_a <x, v_a> v_a = ((n+1)/n) x gives W = n/(n+1) gamma alpha^T."""
        if self.body.kind == "simplex":
            return (self.n / (self.n + 1.0)) * (coords @ self.alpha.T)
        return project(self.frame, coords)


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
    """Verify the conditional identities at one point (n,) or a batch (c, n).

    Averages the increment (and its outer square) exactly over all n
    reflection indices, or all vertex transpositions, and compares against
    -lambda W and 2 lambda I + E_ij(x), with W and E_ij from the steps of `group_pass`,
    run on the block the pass would read: x, or the simplex's gamma = x V^T. The
    enumeration (`_enumerated_moments`) visits each transposition once. x is not changed.

    Each residual is the worst over the batch: the largest entry of any
    point, NaN if any point gives NaN, and 0 for a batch of no points. The
    whole batch is checked in one pass; beyond x and the (k*k, m)
    `spec.products`, memory is O(c k n) for a product body and
    O(c (n + k*k)) for the simplex, so `check_pairs` passes a block in tiles.
    """
    x = np.asarray(x, dtype=np.float64)
    k, n = spec.k, spec.n
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"x must be one point ({n},) or a batch (c, {n}), got shape {x.shape}")
    simplex = spec.body.kind == "simplex"
    coords = pts @ spec.body.geom.vertices.T if simplex else pts  # read by both sides
    w = spec.project(coords)
    lin_enum, sec_enum = _enumerated_moments(spec, coords)
    norm2 = _vertex_norm2(coords) if simplex else None
    # Squared as the pass squares its block, but a product body's coords are x itself.
    sq = np.square(coords, out=coords if simplex else None)
    e_closed = _e_from_sums(spec, _moment_sums(spec, sq, w, norm2)).reshape(len(pts), k, k)
    lin_res = np.max(np.abs(lin_enum + spec.lam * w), initial=0.0)
    sec_res = np.max(np.abs(sec_enum - (2.0 * spec.lam * np.eye(k) + e_closed)), initial=0.0)
    return ConditionalResiduals(float(lin_res), float(sec_res))


def _enumerated_moments(spec: PairSpec, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[W' - W | x] (c, k) and E[(W' - W)_i (W' - W)_j | x] (c, k, k), by listing every move.

    `coords` is the block as the pass reads it, and is not changed. A product
    body's coords are the points, and its n reflections are formed at once as
    (k, c, n) increments. The simplex's are the vertex coordinates gamma = x V^T
    (c, n+1), and it lists each transposition (a, b), a < b, once, one vertex a
    at a time (`_vertex_sums`): both summands are even in (a, b), so the sums
    over ordered pairs are twice these.
    """
    rows = spec.frame.rows
    k, n = rows.shape
    if spec.body.kind != "simplex":
        d = (-2.0 * rows)[:, None, :] * coords
        return np.einsum("icn->ci", d) / n, np.einsum("icn,jcn->cij", d, d) / n
    alpha, gamma, c = spec.alpha, coords, len(coords)
    c2 = n / (2.0 * (n + 1))
    ordered = n * (n + 1.0)
    # Edge (a, b): u_ab . x = sqrt(c2) (gamma_a - gamma_b), <theta_i, u_ab> likewise from alpha.
    lin_sum = np.zeros((c, k))
    sec_sum = np.zeros((c, k * k))
    for a in range(n):
        _vertex_sums(gamma[:, a, None] - gamma[:, a + 1:], alpha[:, a, None] - alpha[:, a + 1:],
                     lin_sum, sec_sum)
    return -4.0 * c2 * lin_sum / ordered, (8.0 * c2**2 / ordered) * sec_sum.reshape(c, k, k)


def _vertex_sums(dg: np.ndarray, da: np.ndarray, lin_sum: np.ndarray, sec_sum: np.ndarray):
    """Add one vertex's transpositions to lin_sum (c, k) and sec_sum (c, k*k).

    dg (c, t) and da (k, t) are its differences to the t vertices after it;
    dg is squared in place.
    """
    k = len(da)
    lin_sum += dg @ da.T
    products = (da[:, None, :] * da[None, :, :]).reshape(k * k, -1)
    sec_sum += np.square(dg, out=dg) @ products.T


def check_pairs(spec: PairSpec, count: int, stream: RandomStream) -> ConditionalResiduals:
    """`conditional_checks` on the first `count` points of `stream`, a block at a time.

    The blocks (`bodies.blocks`) are split over the CPUs (`_split`), each
    range drawn into one buffer of its own; each block is checked in tiles
    that fit in its 1 MiB: a product tile's (c, k, n) reflection increments, a
    simplex tile's (c, n+1) gamma and one vertex's (c, n+1) differences, and
    its (c, k*k) sums. A residual is the worst over all points, NaN if any
    point gives NaN.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    k, n, m, block = spec.k, spec.n, spec.body.m, spec.body.block
    width = max(2 * m, k * k) if spec.body.kind == "simplex" else k * n
    tile = max(1, block * m // width)
    spec.products  # built, like spec.alpha, before any worker thread starts

    def check(lo: int, hi: int) -> list:
        residuals = []
        for _, pts in blocks(spec.body, stream, lo, hi):
            for first in range(0, len(pts), tile):
                residuals.append(astuple(conditional_checks(pts[first:first + tile], spec)))
        return residuals

    worst = np.max(np.concatenate(_split(count, block, check)), axis=0)
    return ConditionalResiduals(float(worst[0]), float(worst[1]))


def _moment_sums(spec: PairSpec, sq: np.ndarray, w: np.ndarray, norm2=None, out=None):
    """The sums s (c, k*k) of c points, with E_ij(x) = (4/n) (s_ij - delta_ij), into `out`.

    sq (c, m) holds x_l^2 for a product body, where s_ij = sum_l theta_il theta_jl x_l^2.
    For the simplex it holds gamma_a^2, and s is the module docstring's edge sum over
    ordered pairs divided by n + 1, which also needs W (c, k) and norm2 = |x|^2 (c,).
    """
    s = np.matmul(sq, spec.products.T, out=out)
    if spec.body.kind == "simplex":
        k, n, m = spec.k, spec.n, spec.body.m
        r = (m / n) ** 2
        s *= 2.0 * m
        s[:, :: k + 1] += 2.0 * r * norm2[:, None]
        s += 4.0 * r * (w[:, :, None] * w[:, None, :]).reshape(-1, k * k)
        s *= (n / (2.0 * m)) ** 2
        s /= m
    return s


def _vertex_norm2(gamma: np.ndarray) -> np.ndarray:
    """|x|^2 (c,) of simplex points from their gamma (c, n+1): n/(n+1) |gamma|^2."""
    n = gamma.shape[1] - 1
    return (n / (n + 1.0)) * np.einsum("ca,ca->c", gamma, gamma)


def _e_from_sums(spec: PairSpec, s: np.ndarray) -> np.ndarray:
    """E_ij = (4/n) (s_ij - delta_ij) of the sums s (c, k*k) of `_moment_sums`, formed in s."""
    s[:, :: spec.k + 1] -= 1.0
    s *= 4.0 / spec.n
    return s


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


class _RowTerms:
    """W and, with an indices stream, the per-point pair terms of one spec in a `group_pass`.

    With an indices stream the row first draws one symmetry index per point from
    it: a reflection coordinate, or an edge of the simplex.
    """

    def __init__(self, spec: PairSpec, count: int, indices: Optional[RandomStream]):
        self.spec = spec
        self.w = np.empty((count, spec.k))
        self.pairs = indices is not None
        spec.alpha  # read, like spec.products, before any worker thread starts
        if not self.pairs:
            return
        spec.products
        n = spec.n
        if spec.body.kind == "simplex":
            self.a, self.b = _edge_vertices(indices.integers(0, n * (n + 1) // 2, count), n + 1)
        else:
            self.idx = indices.integers(0, n, count)
            self.coord_norm3 = np.sqrt(np.sum(spec.frame.rows**2, axis=0)) ** 3
        self.frob = np.empty(count)
        self.cubes = np.empty(count)
        self.cond_second = np.empty(count) if spec.k == 1 else None

    def project_block(self, pts: np.ndarray, part: slice) -> None:
        """Write W of a block and, with pair terms, its cube terms; pts is still unsquared."""
        spec = self.spec
        self.w[part] = spec.project(pts)
        if not self.pairs:
            return
        r = np.arange(len(pts))
        if spec.body.kind == "simplex":
            n, alpha = spec.n, spec.alpha
            edge_coef = math.sqrt(n / (2.0 * (n + 1.0)))
            ta, tb = self.a[part], self.b[part]
            edge_x = edge_coef * (pts[r, ta] - pts[r, tb])
            edge_t = edge_coef * (alpha[:, ta] - alpha[:, tb])  # (k, t)
            self.cubes[part] = 8.0 * np.abs(edge_x) ** 3 * np.sqrt(np.sum(edge_t**2, axis=0)) ** 3
        else:
            ti = self.idx[part]
            self.cubes[part] = 8.0 * np.abs(pts[r, ti]) ** 3 * self.coord_norm3[ti]

    def reduce_block(self, sq: np.ndarray, start: int, norm2, out: np.ndarray) -> None:
        """E_ij of a block's squares (rows start..), reduced t rows at a time in `out` (t, k*k)."""
        for lo in range(0, len(sq), len(out)):
            hi = min(lo + len(out), len(sq))
            part = slice(start + lo, start + hi)
            e = _moment_sums(self.spec, sq[lo:hi], self.w[part],
                             None if norm2 is None else norm2[lo:hi], out=out[: hi - lo])
            if self.cond_second is not None:
                self.cond_second[part] = (4.0 / self.spec.n) * e[:, 0]
            e = _e_from_sums(self.spec, e)
            self.frob[part] = np.sqrt(np.sum(np.square(e, out=e), axis=1))

    def result(self) -> tuple[np.ndarray, Optional[PairStatistics]]:
        if not self.pairs:
            return self.w, None
        spec = self.spec
        frob_mean, frob_se = batch_mean_se(self.frob)
        m3_mean, m3_se = batch_mean_se(self.cubes)
        cond = self.cond_second
        condvar, condvar_se = (None, None) if cond is None else batch_var_se(cond)
        return self.w, PairStatistics(
            term_E=frob_mean / spec.lam,
            term_E_se=frob_se / spec.lam,
            term_M3=m3_mean,
            term_M3_se=m3_se,
            condvar_proxy=condvar,
            condvar_proxy_se=condvar_se,
            count=len(self.w),
            k=spec.k,
            n=spec.n,
            lam=spec.lam,
        )


def group_pass(
    specs: list[PairSpec],
    count: int,
    stream: RandomStream,
    indices: list[Optional[RandomStream]],
) -> list[tuple[np.ndarray, Optional[PairStatistics]]]:
    """One pass over `count` draws of one body, shared by specs of several frames.

    Returns W (count, k) for each spec and, where its entry of `indices` is a
    stream, its pair terms. Every spec has the body of the first. The body's
    blocks (`bodies.blocks`) are split over the CPUs (`_split`), each range
    drawn into one buffer of its own; a sweep runs one group pass at a time,
    so these are all the threads that draw. `stream` carries the points
    alone. While a block is in cache, each spec projects it into its W and
    takes its cube terms; then the block is squared in place once, and each
    spec reduces it to E_ij (`_moment_sums`, `_e_from_sums`) in tiles whose (t, k*k) sums
    fit in 1 MiB. So a spec's values depend on its body, frame, `count` and streams alone.
    Memory is one block and its sums per thread plus, for each spec,
    O(count * k + k*k * m) and with pair terms four (count,) arrays.

    The simplex is evaluated in vertex coordinates: Dirichlet weights w give
    gamma = <v_a, x> = scale ((n+1)/n w_a - 1/n), E_ij from the edge-sum
    identity of the module docstring, and the sampled edge (a, b) of the cube
    term has u_ab . x = c (gamma_a - gamma_b) and <theta_i, u_ab> =
    c (alpha_ia - alpha_ib). Neither the points nor the edges are formed, so
    a draw costs O(n k^2) instead of O(n^2 k).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    body = specs[0].body
    if any(spec.body != body for spec in specs):
        raise ValueError("the specs of a group pass must share one body")
    if any(ix is not None for ix in indices) and count < PAIR_TERM_MIN_COUNT:
        raise ValueError(f"need count >= 10^4, got {count}")
    rows = [_RowTerms(spec, count, ix) for spec, ix in zip(specs, indices, strict=True)]
    pairs = [row for row in rows if row.pairs]
    simplex = body.kind == "simplex"
    m, block = body.m, body.block  # gamma holds one coordinate per simplex vertex
    # Blocks and tiles hold a multiple of 4 rows: BLAS matrix-vector kernels
    # take rows in groups of four and round an operand's last 1-3 rows
    # differently, so a row's bits do not depend on where a tile starts.
    tiles = {k: min(block, max(4, block * m // k**2 // 4 * 4)) for k in {r.spec.k for r in pairs}}

    def run(lo: int, hi: int) -> None:
        """Draw the blocks of rows lo..hi and write every spec's W and pair terms."""
        sums = {k: np.empty((t, k * k)) for k, t in tiles.items()}
        # A block's points, or gamma for the simplex; the next block overwrites them.
        for start, pts in blocks(body, stream, lo, hi, vertex_coords=simplex):
            for row in rows:
                row.project_block(pts, slice(start, start + len(pts)))
            if not pairs:
                continue
            norm2 = _vertex_norm2(pts) if simplex else None
            np.square(pts, out=pts)
            for row in pairs:
                row.reduce_block(pts, start, norm2, sums[row.spec.k])

    _split(count, block, run)
    return [row.result() for row in rows]


def row_pass(
    spec: PairSpec, count: int, stream: RandomStream, indices: Optional[RandomStream] = None
) -> tuple[np.ndarray, Optional[PairStatistics]]:
    """`group_pass` with one spec: W (count, k) and, with `indices`, the pair terms."""
    return group_pass([spec], count, stream, [indices])[0]


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
    fun: FrameFunctionals,
    k: int,
    constants: Optional[ConstantsConfig] = None,
    theorem: Optional[str] = None,
) -> BoundReport:
    """Closed-form bounds of a k-dimensional marginal from its frame functionals alone.

    thm1 covers 1-unconditional bodies, thm2 the simplex, and thm3 the sharper
    k = 1 simplex total-variation bound. When `theorem` is None it is thm2 if
    `fun` holds the simplex functionals, thm1 otherwise.
    """
    constants = constants or ConstantsConfig()
    if theorem is None:
        theorem = "thm1" if fun.simplex_quartic is None else "thm2"
    if theorem == "thm1":
        return BoundReport(
            source="thm1",
            d1_bound=14.0 * math.sqrt(k * fun.l4_sum),
            dtv_bound=constants.C_tv_multi * k ** (5.0 / 6.0) * fun.l4_sum ** (1.0 / 3.0),
        )
    if fun.simplex_quartic is None:
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
