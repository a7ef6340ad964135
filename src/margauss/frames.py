"""Orthonormal projection frames and the frame functionals of the error bounds.

A frame is a k x n matrix with orthonormal rows theta_1..theta_k; the marginal
under study is W_i = <X, theta_i>. The closed-form bounds are driven by the
functionals sum_i ||theta_i||_4^2 and sum_i ||theta_i||_3^2 (and, for the
simplex, the analogous sums over inner products with the vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RandomStream

ORTHO_TOL = 1e-10

# The kinds `build_frame` makes; a Frame given its rows directly is "custom".
BUILD_KINDS = ("walsh", "haar", "coordinate")
FRAME_KINDS = BUILD_KINDS + ("custom",)


@dataclass(frozen=True, eq=False)
class Frame:
    """k orthonormal rows in R^n."""

    rows: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        k, n = rows.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if self.kind not in FRAME_KINDS:
            raise ValueError(f"unknown frame kind {self.kind!r}")
        gram = rows @ rows.T
        if np.max(np.abs(gram - np.eye(k))) >= ORTHO_TOL:
            raise ValueError("rows are not orthonormal to 1e-10")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class FrameFunctionals:
    """Frame functionals entering the closed-form bounds.

    l4_sum = sum_i ||theta_i||_4^2 and l3_sum = sum_i ||theta_i||_3^2. The
    simplex entries use the unit vertices v_l: simplex_quartic is
    sum_i sqrt(sum_l <theta_i, v_l>^4) and simplex_cubic (k = 1 only) is
    sum_l |<theta_1, v_l>|^3.
    """

    l4_sum: float
    l3_sum: float
    simplex_quartic: Optional[float] = None
    simplex_cubic: Optional[float] = None


def sylvester_hadamard(m: int) -> np.ndarray:
    """Sign matrix H with H @ H.T = m * I, built by recursive doubling.

    Exact integer arithmetic; m must be a power of two.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of 2, got {m}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return h


def largest_power_of_two(n: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def walsh_frame(n: int, k: int) -> Frame:
    """First k rows of the scaled order-m Hadamard matrix, zero-padded to n.

    m is the largest power of 2 not exceeding n; every nonzero entry equals
    +-m^(-1/2), which minimizes the l4 functional over R^m.
    """
    m = largest_power_of_two(n)
    if not 1 <= k <= m:
        raise ValueError(
            f"walsh frame needs k <= m where m = {m} is the largest power of 2 <= n={n}; got k={k}"
        )
    h = sylvester_hadamard(m)[:k].astype(np.float64) / np.sqrt(m)
    rows = np.zeros((k, n))
    rows[:, :m] = h
    return Frame(rows, kind="walsh")


def coordinate_frame(n: int, k: int) -> Frame:
    """Rows e_1..e_k; the adversarial frame for which the bounds are vacuous."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Frame(np.eye(n)[:k], kind="coordinate")


def haar_frame(n: int, k: int, stream: RandomStream) -> Frame:
    """Orthonormalized iid Gaussian rows; Haar-distributed on the Stiefel manifold.

    Householder QR of the (n, k) transpose, with the signs of diag(R) moved
    into Q (Mezzadri, arXiv:math-ph/0609050): this is the Gram-Schmidt frame
    of the rows, whose R has a positive diagonal, so no sign convention is
    forced on the draw and rotation invariance holds.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    for attempt in range(2):
        g = stream.normal((k, n))
        q, r = np.linalg.qr(g.T)
        diag = np.diagonal(r)
        # |R_ii| is row i's norm after removing rows 0..i-1: rank-deficient if tiny.
        if np.all(np.abs(diag) >= 1e-8 * np.maximum(np.linalg.norm(g, axis=1), 1.0)):
            return Frame(np.ascontiguousarray((q * np.sign(diag)).T), kind="haar")
    raise RuntimeError("rank-deficient Gaussian draw twice in a row")


def build_frame(kind: str, n: int, k: int, stream: RandomStream) -> Frame:
    """The named frame kind; only 'haar' draws from `stream`."""
    if kind == "walsh":
        return walsh_frame(n, k)
    if kind == "haar":
        return haar_frame(n, k, stream)
    if kind == "coordinate":
        return coordinate_frame(n, k)
    raise ValueError(f"unknown frame kind {kind!r}")


def project(frame: Frame, x: np.ndarray) -> np.ndarray:
    """W_i = <x, theta_i>. Accepts a single point (n,) or a batch (N, n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != frame.n:
        raise ValueError(f"point dimension {x.shape[-1]} != frame dimension {frame.n}")
    return x @ frame.rows.T


def frame_functionals(frame: Frame, vertex_products=None) -> FrameFunctionals:
    """Compute the bound functionals; the simplex entries need the vertex products.

    vertex_products is <theta_i, v_l> (k, n+1) for the unit simplex vertices
    v_l (`SimplexGeometry.vertex_products`), or None for no simplex entries.
    simplex_cubic is only defined for k = 1 and is left None otherwise.
    """
    rows = frame.rows
    l4 = float(np.sum(np.sqrt(np.sum(rows**4, axis=1))))
    l3 = float(np.sum(np.sum(np.abs(rows) ** 3, axis=1) ** (2.0 / 3.0)))
    quartic = None
    cubic = None
    if vertex_products is not None:
        b = np.asarray(vertex_products)
        if b.shape != (frame.k, frame.n + 1):
            raise ValueError(f"vertex products of shape {b.shape} != ({frame.k}, {frame.n + 1})")
        quartic = float(np.sum(np.sqrt(np.sum(b**4, axis=1))))
        if frame.k == 1:
            cubic = float(np.sum(np.abs(b[0]) ** 3))
    return FrameFunctionals(l4_sum=l4, l3_sum=l3, simplex_quartic=quartic, simplex_cubic=cubic)
