"""Experiment orchestration: sweeps, bound-vs-empirical tables, CSV artifacts.

A sweep enumerates (body, n, k, frame, seed) combinations in sorted order,
computes closed-form and semi-empirical bounds next to empirical distances,
and emits a deterministic CSV: identical config and seeds give byte-identical
files. Invalid combinations, and rows whose computation raises a ValueError,
are skipped with a logged reason, never silently.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .bodies import BodySpec, SimplexGeometry, parse_body_kind, regular_simplex
from .core import ConstantsConfig, RandomStream, substream
from .frames import Frame, build_frame, frame_functionals, largest_power_of_two
from .metrics import ks_1d, tv_hist_1d, w1_1d, w1_sliced
from .stein import PairSpec, corollary_bounds, row_pass, theorem_bounds

logger = logging.getLogger(__name__)

CSV_HEADER = (
    "body,n,k,frame,seed,N,l4_sum,simplex_quartic,bound_d1_thm,bound_dtv_thm,"
    "bound_d1_cor,bound_dtv_cor,emp_w1,emp_w1_se,emp_ks,emp_tv,runtime_ms"
)

METRIC_CHOICES = ("w1", "ks", "tv")

SLICED_DIRECTIONS = 64

# Body elements (N * n per row) a row processes per second, used only for the
# optional runtime cap. Measured on the product-uniform Walsh sweep (k = 1,
# n = 16..1024, N = 1.5e5, metric w1): 2.04e8 elements in 2.9 to 3.1 s on a
# 2-core x86-64 machine with one BLAS thread.
_ELEMENTS_PER_SECOND = 7.0e7


@dataclass(frozen=True)
class ExperimentConfig:
    bodies: tuple[str, ...]
    ns: tuple[int, ...]
    ks: tuple[int, ...]
    frames: tuple[str, ...]
    samples: int
    seeds: tuple[int, ...]
    metrics: tuple[str, ...] = ()
    constants: ConstantsConfig = field(default_factory=ConstantsConfig)
    max_row_seconds: Optional[float] = None

    def __post_init__(self):
        for name in ("bodies", "ns", "ks", "frames", "seeds", "metrics"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if not (self.bodies and self.ns and self.ks and self.frames):
            raise ValueError("bodies, ns, ks, and frames must all be nonempty")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        bad = set(self.metrics) - set(METRIC_CHOICES)
        if bad:
            raise ValueError(f"unknown metrics {sorted(bad)}; choose from {METRIC_CHOICES}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "constants" in data:
            data["constants"] = ConstantsConfig(**data["constants"])
        return cls(**data)


@dataclass(frozen=True)
class ResultRow:
    body: str
    n: int
    k: int
    frame: str
    seed: int
    N: int
    l4_sum: float
    simplex_quartic: Optional[float]
    bound_d1_thm: float
    bound_dtv_thm: float
    bound_d1_cor: Optional[float]
    bound_dtv_cor: Optional[float]
    emp_w1: Optional[float]
    emp_w1_se: Optional[float]
    emp_ks: Optional[float]
    emp_tv: Optional[float]
    runtime_ms: Optional[float]


def _validate_combo(body: str, n: int, k: int, frame_kind: str) -> Optional[str]:
    """Return a skip reason for an invalid combination, or None."""
    try:
        parse_body_kind(body, n)
    except ValueError as exc:
        return str(exc)
    if k > n:
        return f"k={k} exceeds n={n}"
    if frame_kind == "walsh":
        m = largest_power_of_two(n)
        if k > m:
            return f"walsh frame supports k <= {m} for n={n}, got k={k}"
    if frame_kind not in ("walsh", "haar", "coordinate"):
        return f"unknown frame kind {frame_kind!r}"
    return None


def run_experiment(config: ExperimentConfig, measure_runtime: bool = False) -> list[ResultRow]:
    """One ResultRow per valid (body, n, k, frame, seed) combination.

    Rows are ordered by that sort key. With measure_runtime=False (the
    default) the output is a pure function of the config, so repeated runs
    emit byte-identical CSV files; wall-clock timing is opt-in because it
    would break that determinism.
    """
    combos = sorted(
        itertools.product(config.bodies, config.ns, config.ks, config.frames, config.seeds)
    )
    rows = []
    for idx, (body_kind, n, k, frame_kind, seed) in enumerate(combos):
        reason = _validate_combo(body_kind, n, k, frame_kind)
        if reason is not None:
            logger.warning(
                "skipping combination body=%s n=%d k=%d frame=%s seed=%d: %s",
                body_kind, n, k, frame_kind, seed, reason,
            )
            continue
        started = time.perf_counter() if measure_runtime else None
        try:
            row = _compute_row(config, idx, body_kind, n, k, frame_kind, seed)
        except ValueError as exc:
            logger.warning(
                "skipping row body=%s n=%d k=%d frame=%s seed=%d: %s",
                body_kind, n, k, frame_kind, seed, exc,
            )
            continue
        if started is not None:
            row = replace(row, runtime_ms=1000.0 * (time.perf_counter() - started))
        rows.append(row)
    return rows


def _row_samples(config: ExperimentConfig, n: int, body_kind: str) -> int:
    n_samples = config.samples
    if config.max_row_seconds is not None:
        projected = n * n_samples / _ELEMENTS_PER_SECOND
        if projected > config.max_row_seconds:
            capped = max(10_000, int(config.max_row_seconds * _ELEMENTS_PER_SECOND / n))
            logger.warning(
                "capping samples for body=%s n=%d: %d -> %d (projected %.1f s over ceiling)",
                body_kind, n, n_samples, capped, projected,
            )
            n_samples = min(n_samples, capped)
    return n_samples


def _compute_row(
    config: ExperimentConfig, idx: int, body_kind: str, n: int, k: int, frame_kind: str, seed: int
) -> ResultRow:
    body = parse_body_kind(body_kind, n)
    geom = regular_simplex(n) if body.kind == "simplex" else None
    frame = build_frame(frame_kind, n, k, substream(seed, 4 * idx))
    fun = frame_functionals(frame, geom)
    thm = theorem_bounds(frame, geom, config.constants)
    n_samples = _row_samples(config, n, body_kind)

    pair_terms = n_samples >= 10_000
    if not pair_terms:
        logger.warning(
            "skipping semi-empirical bounds for body=%s n=%d k=%d: samples=%d < 10^4",
            body_kind, n, k, n_samples,
        )
    bound_d1_cor = bound_dtv_cor = None
    if pair_terms or config.metrics:
        spec = PairSpec(body=body, frame=frame, geom=geom)
        w, stats = row_pass(spec, n_samples, substream(seed, 4 * idx + 2), pair_terms)
    if pair_terms:
        cor = corollary_bounds(stats, k, spec.lam, config.constants)
        bound_d1_cor, bound_dtv_cor = cor.d1_bound, cor.dtv_bound

    emp_w1 = emp_w1_se = emp_ks = emp_tv = None
    if config.metrics:
        if "w1" in config.metrics:
            if k == 1:
                est = w1_1d(w[:, 0])
            else:
                est = w1_sliced(w, SLICED_DIRECTIONS, substream(seed, 4 * idx + 3))
            emp_w1, emp_w1_se = est.value, float(est.se_or_bias_note)
        if "ks" in config.metrics:
            if k == 1:
                emp_ks = ks_1d(w[:, 0]).value
            else:
                logger.warning("skipping ks for k=%d (one-dimensional estimator)", k)
        if "tv" in config.metrics:
            if k == 1:
                emp_tv = tv_hist_1d(w[:, 0]).value
            else:
                logger.warning("skipping tv for k=%d (one-dimensional estimator)", k)

    return ResultRow(
        body=body.label(),
        n=n,
        k=k,
        frame=frame_kind,
        seed=seed,
        N=n_samples,
        l4_sum=fun.l4_sum,
        simplex_quartic=fun.simplex_quartic,
        bound_d1_thm=thm.d1_bound,
        bound_dtv_thm=thm.dtv_bound,
        bound_d1_cor=bound_d1_cor,
        bound_dtv_cor=bound_dtv_cor,
        emp_w1=emp_w1,
        emp_w1_se=emp_w1_se,
        emp_ks=emp_ks,
        emp_tv=emp_tv,
        runtime_ms=None,
    )


def projection_sampler(
    body: BodySpec, frame: Frame, geom: Optional[SimplexGeometry]
) -> Callable[[RandomStream, int], np.ndarray]:
    """Return draw(stream, count), the (count, k) projection of `count` body draws.

    The draws go through the row pass without its pair terms, so they are
    taken in chunks and memory stays O(chunk * n + count * k).
    """
    spec = PairSpec(body=body, frame=frame, geom=geom)
    return lambda stream, count: row_pass(spec, count, stream, pair_terms=False)[0]


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r2: float


def fit_decay(rows: list[ResultRow]) -> DecayFit:
    """Least-squares fit of log(emp_w1) against log(n) for one curve."""
    points = [(row.n, row.emp_w1) for row in rows if row.emp_w1 is not None]
    if len({n for n, _ in points}) < 3:
        raise ValueError("need at least 3 distinct n values with emp_w1 present")
    x = np.log([float(n) for n, _ in points])
    y = np.log([v for _, v in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(slope=float(slope), intercept=float(intercept), r2=r2)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write rows under the fixed header; floats carry 17 significant digits."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, f.name)) for f in fields(ResultRow)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_result_csv(path) -> list[ResultRow]:
    """Parse a file written by emit_csv back into rows, bit-exactly."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected or missing header")
    rows = []
    int_fields = {"n", "k", "seed", "N"}
    str_fields = {"body", "frame"}
    names = [f.name for f in fields(ResultRow)]
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: row has {len(cells)} cells, expected {len(names)}")
        kwargs = {}
        for name, cell in zip(names, cells):
            if name in str_fields:
                kwargs[name] = cell
            elif cell == "":
                kwargs[name] = None
            elif name in int_fields:
                kwargs[name] = int(cell)
            else:
                kwargs[name] = float(cell)
        rows.append(ResultRow(**kwargs))
    return rows
