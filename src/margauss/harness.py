"""Experiment orchestration: sweeps, bound-vs-empirical tables, CSV artifacts.

A sweep enumerates (body, n, k, frame, seed) combinations in sorted order,
computes closed-form and semi-empirical bounds next to empirical distances,
and emits a deterministic CSV: identical config and seeds give byte-identical
files. A row whose computation raises a ValueError, as every invalid
combination does when its body or frame is built, is skipped with a logged
reason, never silently.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from . import stein
from .bodies import parse_body_kind
from .core import ConstantsConfig, RandomStream, check_seed, substream
from .frames import build_frame, frame_functionals
from .metrics import DistanceEstimate, ks_1d, tv_hist_1d, w1_1d, w1_sliced
from .stein import PAIR_TERM_MIN_COUNT, PairSpec, corollary_bounds, row_pass, theorem_bounds

logger = logging.getLogger(__name__)

METRIC_CHOICES = ("w1", "ks", "tv")

# The stream map: sweep row idx (its position in sort order) draws each role
# from its own substream of the row's seed, 4·idx + ROW_STREAMS[role]. Every
# subcommand that draws reads row 0's streams, so its values are row 0's.
ROW_STREAMS = {"frame": 0, "indices": 1, "points": 2, "directions": 3}


def row_stream(seed: int, idx: int, role: str) -> RandomStream:
    """The stream from which sweep row `idx` of `seed` draws `role`, a key of ROW_STREAMS."""
    return substream(seed, len(ROW_STREAMS) * idx + ROW_STREAMS[role])


def check_dimension(metric: str, k: int) -> None:
    """Raise a ValueError unless `metric` works at dimension k: ks and tv need k = 1."""
    if metric != "w1" and k != 1:
        raise ValueError(f"{metric} is a one-dimensional estimator; use k=1")


def estimate_distance(metric: str, w: np.ndarray, directions: RandomStream) -> DistanceEstimate:
    """The `metric` distance of the projected sample w, (count, k), to N(0, I_k).

    w1 is `w1_1d` at k = 1 and `w1_sliced`, along directions drawn from
    `directions`, at k >= 2; ks and tv need k = 1 (`check_dimension`).
    """
    k = w.shape[1]
    check_dimension(metric, k)
    if metric == "w1":
        return w1_1d(w[:, 0]) if k == 1 else w1_sliced(w, directions)
    return {"ks": ks_1d, "tv": tv_hist_1d}[metric](w[:, 0])


# The list fields of a config and the type of their items.
_LIST_FIELDS = {"bodies": str, "ns": int, "ks": int, "frames": str, "seeds": int, "metrics": str}


def _is(kind: type, value) -> bool:
    """isinstance for JSON config values: a bool is no number, an int is a float."""
    numbers = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
    return isinstance(value, numbers.get(kind, kind)) and not isinstance(value, bool)


def _body_label(text: str) -> str:
    """The CSV label of a body (no label depends on n), or the text where it does not parse."""
    try:
        return parse_body_kind(text, 2).label()
    except ValueError:
        return text


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

    def __post_init__(self):
        for name, kind in _LIST_FIELDS.items():
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(_is(kind, v) for v in value):
                raise ValueError(f"{name} must be a list of {kind.__name__} values, got {value!r}")
            object.__setattr__(self, name, tuple(value))
            # Rows are keyed by these values, so a repeat would write two rows with one key.
            keys = [_body_label(v) for v in value] if name == "bodies" else value
            repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for seed in self.seeds:
            check_seed(seed)
        if not (self.bodies and self.ns and self.ks and self.frames):
            raise ValueError("bodies, ns, ks, and frames must all be nonempty")
        if not _is(int, self.samples) or self.samples < 1:
            raise ValueError(f"samples must be a positive int, got {self.samples!r}")
        bad = set(self.metrics) - set(METRIC_CHOICES)
        if bad:
            raise ValueError(f"unknown metrics {sorted(bad)}; choose from {METRIC_CHOICES}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "constants" in data:
            data["constants"] = ConstantsConfig.from_dict(data["constants"])
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


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def run_experiment(config: ExperimentConfig, measure_runtime: bool = False) -> list[ResultRow]:
    """One ResultRow per valid (body, n, k, frame, seed) combination.

    Rows are ordered by that sort key. With measure_runtime=False (the
    default) the output is a pure function of the config, so repeated runs
    emit byte-identical CSV files; wall-clock timing is opt-in because it
    would break that determinism.

    Rows run concurrently, min(cores, rows) at a time (`stein._cores`, which
    also sets the tile threads of a product row pass; with one core they run
    serially, with no pool), so peak memory is that of that many rows in
    flight. A row reads only its own streams, so every value is that of a
    serial run, and its warnings are logged here in row order, as a serial
    run logs them. A ValueError skips its own row; any other exception
    reaches the caller. runtime_ms is each row's own elapsed time, which
    overlaps that of the rows beside it.
    """
    combos = sorted(
        itertools.product(config.bodies, config.ns, config.ks, config.frames, config.seeds)
    )
    task = partial(_row_task, config, measure_runtime)
    workers = min(stein._cores(), len(combos))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        rows = []
        for row, notes in (pool.map if pool else map)(task, range(len(combos)), combos):
            for note in notes:
                logger.warning(*note)
            if row is not None:
                rows.append(row)
        return rows
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _row_task(
    config: ExperimentConfig, measure_runtime: bool, idx: int, combo: tuple
) -> tuple[Optional[ResultRow], list[tuple]]:
    """Row idx, or None if it is skipped, and its warnings as logger.warning arguments."""
    notes = []
    started = time.perf_counter()
    try:
        row = _compute_row(config, idx, *combo, notes)
    except ValueError as exc:
        notes.append(("skipping row body=%s n=%d k=%d frame=%s seed=%d: %s", *combo, exc))
        return None, notes
    if measure_runtime:
        row = replace(row, runtime_ms=1000.0 * (time.perf_counter() - started))
    return row, notes


def _compute_row(
    config: ExperimentConfig, idx: int, body_kind: str, n: int, k: int, frame_kind: str, seed: int,
    notes: list,
) -> ResultRow:
    """Row idx of the sweep; each warning it has is appended to `notes`, not logged."""
    body = parse_body_kind(body_kind, n)
    frame = build_frame(frame_kind, n, k, row_stream(seed, idx, "frame"))
    fun = frame_functionals(frame, body.geom)
    thm = theorem_bounds(frame, body.geom, config.constants)
    n_samples = config.samples

    indices = row_stream(seed, idx, "indices") if n_samples >= PAIR_TERM_MIN_COUNT else None
    if indices is None:
        notes.append((
            "skipping semi-empirical bounds for body=%s n=%d k=%d: samples=%d < 10^4",
            body_kind, n, k, n_samples,
        ))
    stats = bound_d1_cor = bound_dtv_cor = None
    if indices is not None or config.metrics:
        spec = PairSpec(body=body, frame=frame)
        w, stats = row_pass(spec, n_samples, row_stream(seed, idx, "points"), indices)
    if stats is not None:
        cor = corollary_bounds(stats, config.constants)
        bound_d1_cor, bound_dtv_cor = cor.d1_bound, cor.dtv_bound

    emp = {}
    for metric in config.metrics:
        try:
            check_dimension(metric, k)
        except ValueError as exc:
            notes.append(("skipping %s for k=%d: %s", metric, k, exc))
            continue
        emp[metric] = estimate_distance(metric, w, row_stream(seed, idx, "directions"))
    w1 = emp.get("w1")

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
        emp_w1=w1.value if w1 else None,
        emp_w1_se=float(w1.se_or_bias_note) if w1 else None,
        emp_ks=emp["ks"].value if "ks" in emp else None,
        emp_tv=emp["tv"].value if "tv" in emp else None,
        runtime_ms=None,
    )


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
