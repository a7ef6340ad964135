"""Samplers for isotropic log-concave bodies and their exact moment identities.

Every body kind is normalized to mean zero and identity covariance. The
product and lp-ball kinds are 1-unconditional; the simplex kind carries the
symmetries of a centered regular simplex instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import BATCHES, RandomStream, batch_mean_se, batch_var_se

PRODUCT_KINDS = ("product-uniform", "product-laplace", "product-gaussian")
BODY_KINDS = PRODUCT_KINDS + ("lp-ball", "simplex")

GEOM_TOL = 1e-10
# Elements of one draw block (1 MiB of float64), sized to stay in L2 cache.
_BLOCK_BUDGET = 131_072


@dataclass(frozen=True)
class BodySpec:
    """Declarative description of an isotropic log-concave distribution."""

    kind: str
    n: int
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in BODY_KINDS:
            raise ValueError(f"unknown body kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.kind == "lp-ball":
            if self.p is None:
                raise ValueError("lp-ball requires p")
            if not 1 <= self.p < math.inf:
                raise ValueError(f"lp-ball needs 1 <= p < inf, got {self.p} "
                                 "(the p = inf ball is product-uniform)")
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for lp-ball, got kind {self.kind!r}")
        if self.kind == "simplex" and self.n < 2:
            raise ValueError("simplex body requires n >= 2")

    @property
    def unconditional(self) -> bool:
        return self.kind != "simplex"

    @property
    def m(self) -> int:
        """Coordinates per point: n, or one per vertex, n + 1, for the simplex."""
        return self.n + 1 if self.kind == "simplex" else self.n

    @property
    def block(self) -> int:
        """Points per draw block (`blocks`): 1 MiB of their `m` coordinates."""
        return max(4, _BLOCK_BUDGET // self.m // 4 * 4)

    @cached_property
    def geom(self) -> Optional["SimplexGeometry"]:
        """The regular simplex of the simplex kind, built once per spec; None otherwise."""
        return regular_simplex(self.n) if self.kind == "simplex" else None

    def label(self) -> str:
        if self.kind == "lp-ball":
            return f"lp-ball({self.p:g})"
        return self.kind


def parse_body_kind(text: str, n: int) -> BodySpec:
    """Parse a body label such as 'simplex' or 'lp-ball(1.5)'."""
    text = text.strip()
    if text.startswith("lp-ball"):
        inner = text[len("lp-ball"):]
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"cannot parse body kind {text!r}")
        return BodySpec("lp-ball", n, float(inner[1:-1]))
    return BodySpec(text, n)


@dataclass(frozen=True, eq=False)
class SimplexGeometry:
    """Unit vertices of a centered regular simplex plus its isotropic scale.

    The n+1 vertices satisfy sum_i v_i = 0, <v_i, v_j> = -1/n for i != j,
    and the tight-frame identity sum_i <x, v_i> v_i = ((n+1)/n) x.
    """

    n: int
    vertices: np.ndarray  # (n+1, n), unit rows
    scale: float

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.shape != (self.n + 1, self.n):
            raise ValueError(f"vertices must be ({self.n + 1}, {self.n}), got {v.shape}")
        gram = v @ v.T
        target = np.full((self.n + 1, self.n + 1), -1.0 / self.n)
        np.fill_diagonal(target, 1.0)
        if np.max(np.abs(gram - target)) >= GEOM_TOL:
            raise ValueError("vertices do not form a unit regular simplex to 1e-10")
        object.__setattr__(self, "vertices", v)

    def edge_direction(self, i: int, j: int) -> np.ndarray:
        """Unit vector u_ij proportional to v_i - v_j (0-based vertex indices)."""
        if i == j:
            raise ValueError("edge direction requires i != j")
        for idx in (i, j):
            if not 0 <= idx <= self.n:
                raise ValueError(f"vertex index {idx} out of range 0..{self.n}")
        coef = math.sqrt(self.n / (2.0 * (self.n + 1)))
        return coef * (self.vertices[i] - self.vertices[j])

    def vertex_products(self, rows: np.ndarray) -> np.ndarray:
        """<theta_i, v_a>, (k, n+1), for frame rows (k, n), by einsum's own loop.

        A threaded BLAS product splits each sum between threads, so its bits
        would depend on the BLAS thread count.
        """
        return np.einsum("kn,an->ka", rows, self.vertices, optimize=False)

    def unordered_edge_matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All u_ij with i < j, stacked as a (n(n+1)/2, n) matrix.

        Returns (i_idx, j_idx, U). Ordered-pair sums are twice the unordered
        sums for any integrand even under the i <-> j swap.
        """
        i_idx, j_idx = np.triu_indices(self.n + 1, k=1)
        coef = math.sqrt(self.n / (2.0 * (self.n + 1)))
        u = coef * (self.vertices[i_idx] - self.vertices[j_idx])
        return i_idx, j_idx, u


def regular_simplex(n: int) -> SimplexGeometry:
    """Centered regular simplex with unit vertices in R^n.

    The vertices are e_i - centroid in R^(n+1), rescaled to unit norm and
    expressed in the Helmert orthonormal basis of the hyperplane orthogonal
    to (1,...,1).
    """
    if n < 2:
        raise ValueError(f"simplex geometry requires n >= 2, got {n}")
    helmert = np.zeros((n, n + 1))
    for j in range(1, n + 1):
        c = 1.0 / math.sqrt(j * (j + 1))
        helmert[j - 1, :j] = c
        helmert[j - 1, j] = -j * c
    vertices = math.sqrt((n + 1) / n) * helmert.T
    return SimplexGeometry(n=n, vertices=vertices, scale=math.sqrt(n * (n + 2)))


def lp_ball_coordinate_variance(n: int, p: float) -> float:
    """Coordinate variance of the uniform distribution on the unit lp ball.

    Gamma-ratio closed form from the independent-normalization representation;
    reduces to 2/((n+1)(n+2)) at p=1 and 1/(n+2) at p=2.
    """
    from scipy.special import gammaln  # imported here: scipy.special is slow to load

    return math.exp(
        gammaln(3.0 / p) - gammaln(1.0 / p) - gammaln((n + 2.0) / p + 1.0) + gammaln(n / p + 1.0)
    )


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """N iid draws from one body, with seed provenance."""

    body: BodySpec
    points: np.ndarray  # (N, n)
    seed: int
    stream_id: int

    @property
    def count(self) -> int:
        return self.points.shape[0]


def sample_body(spec: BodySpec, stream: RandomStream, count: int) -> SampleBatch:
    """The first `count` iid points of `stream` (draws 0..count of `blocks`), in one array."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.empty((count, spec.n))
    for start, pts in blocks(spec, stream, 0, count):
        out[start:start + len(pts)] = pts
    return SampleBatch(body=spec, points=out, seed=stream.seed, stream_id=stream.stream_id)


def blocks(spec: BodySpec, stream: RandomStream, lo: int, hi: int, vertex_coords: bool = False):
    """Yield (start, points) for draws lo..hi of `stream`, one block at a time.

    The one block rule: every draw of a body is made in blocks of `spec.block`
    points, block b drawn whole from its own stream `stream.block(b)`. So a
    point depends only on the stream and its position there, never on the
    count, the thread or the pieces of a draw. `lo` is a multiple of the
    block; `points` holds the block's first min(block, hi - start) rows, in
    one buffer that is reused, so it is valid until the next block is drawn.
    With `vertex_coords` (simplex only) the rows are the points' vertex
    coordinates (`simplex_vertex_coords`), (rows, n + 1).
    """
    block = spec.block
    if lo % block:
        raise ValueError(f"lo must be a multiple of the block {block}, got {lo}")
    if vertex_coords and spec.kind != "simplex":
        raise ValueError(f"vertex coordinates need the simplex, got {spec.kind!r}")
    buf = np.empty((block, spec.m if vertex_coords else spec.n))
    for start in range(lo, hi, block):
        if vertex_coords:
            simplex_vertex_coords(spec.geom, stream.block(start // block), buf)
        else:
            _draw_block(spec, stream.block(start // block), buf)
        yield start, buf[: hi - start]  # the last block may be used in part


def _draw_block(spec: BodySpec, stream: RandomStream, out: np.ndarray) -> None:
    """Write one block of points, drawn from the block's own stream, into `out`."""
    if spec.kind == "product-uniform":
        stream.uniform(out=out)
        out -= 0.5  # exact on [0, 1), as is 2 fl(sqrt 3): one rounding, as in (2u - 1) sqrt 3
        out *= 2.0 * math.sqrt(3.0)
    elif spec.kind == "product-gaussian":
        stream.normal(out=out)
    elif spec.kind == "product-laplace":
        _laplace_from_uniform(stream.uniform(out=out))
    elif spec.kind == "lp-ball":
        out[...] = _sample_lp_ball(spec.n, spec.p, stream, len(out))
    else:
        np.matmul(_simplex_weights(spec.n, stream, len(out)), spec.geom.vertices, out=out)
        out *= spec.geom.scale


def _laplace_from_uniform(u: np.ndarray) -> np.ndarray:
    """Turn uniforms on [0, 1) into unit-variance Laplace values, in place, by inverse CDF.

    u < 1/2 gives the sign; v = 2u - [u >= 1/2] is uniform on [0, 1) and
    |x| = -log1p(-v)/sqrt(2), which is finite for every u the stream can give.
    No step is masked (NumPy's `where=` loops cost several times the arithmetic):
    floor(2u) is [u >= 1/2], so v = 2u - floor(2u) exactly, and floor(2u) - 1/2
    carries the sign of x.
    """
    u *= 2.0
    sign = np.floor(u)
    u -= sign
    sign -= 0.5
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= -math.sqrt(2.0)
    np.copysign(u, sign, out=u)
    return u


def _simplex_weights(
    n: int, stream: RandomStream, count: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Barycentric weights, (count, n+1), of `count` uniform points of the simplex.

    Normalized iid exponentials are Dirichlet(1, ..., 1); the point is
    scale * (weights @ vertices). This is the only simplex draw.
    """
    weights = stream.exponential((count, n + 1), out=out)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def simplex_vertex_coords(geom: SimplexGeometry, stream: RandomStream, out: np.ndarray):
    """Vertex coordinates gamma_a = <v_a, x> of one block's points, into `out` (block, n+1).

    `stream` is the block's stream, so the points are that block of
    `blocks`: with x = scale * (w @ V), <v_a, v_b> = -1/n for a != b and
    sum_b w_b = 1, gamma = scale ((n+1)/n w - 1/n). The points themselves are
    never formed: `stein.PairSpec.project` reads W from gamma, and the pass
    reads |x|^2 = n/(n+1) |gamma|^2 (`stein._vertex_norm2`).
    """
    n = geom.n
    gamma = _simplex_weights(n, stream, len(out), out)
    gamma *= geom.scale * (n + 1.0) / n
    gamma -= geom.scale / n
    return gamma


def _sample_lp_ball(n: int, p: float, stream: RandomStream, count: int) -> np.ndarray:
    # |g_i| ~ Gamma(1/p)^(1/p) gives density proportional to exp(-|t|^p);
    # dividing by (sum |g_i|^p + E)^(1/p) lands uniformly in the unit ball.
    mag = stream.gamma(1.0 / p, (count, n)) ** (1.0 / p)
    signs = np.where(stream.uniform((count, n)) < 0.5, -1.0, 1.0)
    g = signs * mag
    radius = (np.sum(np.abs(g) ** p, axis=1) + stream.exponential(count)) ** (1.0 / p)
    pts = g / radius[:, None]
    return pts / math.sqrt(lp_ball_coordinate_variance(n, p))


@dataclass(frozen=True)
class IsotropyReport:
    """Deviations of a sample batch from mean zero and identity covariance."""

    max_mean_dev: float
    max_mean_z: float
    max_cov_dev: float
    max_cov_z: float
    norm2_mean: float
    norm2_se: float
    n: int
    count: int
    passed: bool


def isotropy_report(batch: SampleBatch) -> IsotropyReport:
    """Flag mean or second-moment deviations beyond 4 standard errors."""
    pts = batch.points
    count, n = pts.shape
    if count < 100:
        raise ValueError(f"need at least 100 samples, got {count}")
    mean = pts.mean(axis=0)
    mean_se = pts.std(axis=0, ddof=1) / math.sqrt(count)
    second = pts.T @ pts / count
    # The sd of each product x_i x_j over the sample: sum (x_i x_j)^2 = (sq^T sq)_ij.
    sq = np.square(pts)
    second_se = np.sqrt((sq.T @ sq - count * second**2) / (count - 1)) / math.sqrt(count)
    cov_dev = np.abs(second - np.eye(n))
    norm2 = np.sum(sq, axis=1)
    norm2_se = norm2.std(ddof=1) / math.sqrt(count)
    mean_z = np.abs(mean) / mean_se
    cov_z = cov_dev / second_se
    norm2_z = abs(norm2.mean() - n) / norm2_se
    max_z = max(mean_z.max(), cov_z.max(), norm2_z)
    return IsotropyReport(
        max_mean_dev=float(np.abs(mean).max()),
        max_mean_z=float(mean_z.max()),
        max_cov_dev=float(cov_dev.max()),
        max_cov_z=float(cov_z.max()),
        norm2_mean=float(norm2.mean()),
        norm2_se=float(norm2_se),
        n=n,
        count=count,
        passed=bool(max_z <= 4.0),
    )


@dataclass(frozen=True)
class VarianceCheck:
    lhs_est: float
    lhs_se: float
    rhs: float


def klartag_variance_check(
    spec: BodySpec, a: np.ndarray, count: int, stream: RandomStream
) -> VarianceCheck:
    """Compare Var(sum_l a_l X_l^2) against the concentration bound 32 sum a_l^2.

    The left side is estimated as the mean of BATCHES per-batch sample variances.
    Only unconditional kinds qualify.
    """
    if not spec.unconditional:
        raise ValueError("variance check requires an unconditional body kind")
    if count < 10_000:
        raise ValueError(f"need count >= 10^4, got {count}")
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (spec.n,):
        raise ValueError(f"coefficients must have shape ({spec.n},)")
    pts = sample_body(spec, stream, count).points
    lhs_est, lhs_se = batch_var_se((pts**2) @ a)
    return VarianceCheck(lhs_est=lhs_est, lhs_se=lhs_se, rhs=float(32.0 * np.sum(a**2)))


@dataclass(frozen=True)
class MomentClassRow:
    pair_class: str
    exact: float
    mc_estimate: float
    se: float


@dataclass(frozen=True)
class SimplexMomentReport:
    rows: tuple[MomentClassRow, ...]
    third_abs_estimate: float
    third_abs_se: float
    third_abs_bound: float


def simplex_moment_check(n: int, count: int, stream: RandomStream) -> SimplexMomentReport:
    """Monte Carlo check of the fourth-moment table for edge functionals.

    E (X^{lm})^2 (X^{pq})^2 = (n+1)(n+2)/((n+3)(n+4)) * {1, 3, 6} according to
    the overlap |{l,m} & {p,q}| in {0, 1, 2}; one representative pair per
    class. Also estimates E |X^{01}|^3 against its bound 3 sqrt(2).
    """
    if n < 4:
        raise ValueError(f"need n >= 4 so disjoint index pairs exist, got {n}")
    if count < 100_000:
        raise ValueError(f"need count >= 10^5, got {count}")
    spec = BodySpec("simplex", n)
    geom = spec.geom
    pts = sample_body(spec, stream, count).points
    base = (n + 1.0) * (n + 2.0) / ((n + 3.0) * (n + 4.0))
    pairs = {
        "disjoint": ((0, 1), (2, 3), 1.0),
        "overlap-1": ((0, 1), (0, 2), 3.0),
        "overlap-2": ((0, 1), (0, 1), 6.0),
    }
    rows = []
    for name, (pq, rs, factor) in pairs.items():
        f1 = pts @ geom.edge_direction(*pq)
        f2 = pts @ geom.edge_direction(*rs)
        est, se = batch_mean_se(f1**2 * f2**2)
        rows.append(MomentClassRow(pair_class=name, exact=base * factor, mc_estimate=est, se=se))
    cubes = np.abs(pts @ geom.edge_direction(0, 1)) ** 3
    third_est, third_se = batch_mean_se(cubes)
    return SimplexMomentReport(
        rows=tuple(rows),
        third_abs_estimate=third_est,
        third_abs_se=third_se,
        third_abs_bound=3.0 * math.sqrt(2.0),
    )


@dataclass(frozen=True)
class ThirdMomentReport:
    estimates: np.ndarray  # per coordinate
    ses: np.ndarray
    bound: float


def third_abs_moment_check(spec: BodySpec, count: int, stream: RandomStream) -> ThirdMomentReport:
    """Per-coordinate E|X_l|^3 versus the log-concave bound 3 sqrt(2) / 2."""
    if spec.kind not in PRODUCT_KINDS:
        raise ValueError("third-moment check applies to product kinds only")
    pts = sample_body(spec, stream, count).points
    cubes = np.abs(pts) ** 3
    m = (count // BATCHES) * BATCHES
    batch_means = cubes[:m].reshape(BATCHES, -1, spec.n).mean(axis=1)
    return ThirdMomentReport(
        estimates=batch_means.mean(axis=0),
        ses=batch_means.std(axis=0, ddof=1) / math.sqrt(BATCHES),
        bound=3.0 * math.sqrt(2.0) / 2.0,
    )
