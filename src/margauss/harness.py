"""Experiment orchestration: sweeps, bound-vs-empirical tables, CSV artifacts.

A sweep enumerates (body, n, k, frame, seed) combinations in sorted order,
computes closed-form and semi-empirical bounds next to empirical distances,
and emits a deterministic CSV: identical config and seeds give byte-identical
files. A row whose computation raises a ValueError (as every invalid
combination does when its body or frame is built) or a MemoryError is
skipped with a logged reason, never silently. The rows of one (body, n,
seed) group draw the body once, together.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import stein
from .bodies import BodySpec, parse_body_kind
from .core import ConstantsConfig, RandomStream, check_seed, substream
from .frames import build_frame, frame_functionals
from .metrics import DistanceEstimate, ks_1d, tv_hist_1d, w1_1d, w1_sliced
from .stein import (
    PAIR_TERM_MIN_COUNT,
    PairSpec,
    corollary_bounds,
    group_pass,
    theorem_bounds,
)

logger = logging.getLogger(__name__)

METRIC_CHOICES = ("w1", "ks", "tv")

# The stream map: sweep row idx (its position in sort order) draws each role
# from its own substream of the row's seed, 4·idx + ROW_STREAMS[role], except
# the points: the rows of one (body, n, seed) group share one draw, from the
# points stream 4·g + 2 of the group's first row g, drawn in whole blocks by
# `bodies.blocks`. Every subcommand that draws reads row 0's streams, so its
# values are row 0's.
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

    The rows of one (body, n, seed) group share one draw of the body
    (`_group_task`). The groups run one after another on the calling thread,
    in the sort order of their first rows; each splits its pass, and its k
    >= 2 rows split their sliced W1, over the CPUs (`core._split`). Peak
    memory is that of one group: for each of its rows, W (N, k) and, with
    pair terms, the (N,) arrays frob, cubes and cond_second, the N symmetry
    indices and the (k*k, m) products of `PairSpec`, plus one block of points
    per thread, during its pass; after the pass, each row's W until that row
    is done. When every group has run, each row's warnings are logged in row
    order. A ValueError or MemoryError skips the rows it arises in (a row
    whose products cannot be allocated skips alone, before the pass); any
    other reaches the caller.
    runtime_ms is a row's own elapsed time plus that of its group's shared
    pass, so the times of a group's rows overlap.
    """
    combos = sorted(
        itertools.product(config.bodies, config.ns, config.ks, config.frames, config.seeds)
    )
    groups: dict[tuple, list] = {}
    for idx, combo in enumerate(combos):
        body, n, _, _, seed = combo
        groups.setdefault((body, n, seed), []).append((idx, combo))
    outcomes = [None] * len(combos)  # the seeds interleave the groups' rows
    for group in groups.values():
        for (idx, _), outcome in zip(group, _group_task(config, measure_runtime, group)):
            outcomes[idx] = outcome
    rows = []
    for row, notes in outcomes:
        for note in notes:
            logger.warning(*note)
        if row is not None:
            rows.append(row)
    return rows


def row_spec(body: BodySpec, idx: int, k: int, frame_kind: str, seed: int) -> PairSpec:
    """Row idx's PairSpec: `body` and its k-row frame, built from the row's frame stream."""
    frame = build_frame(frame_kind, body.n, k, row_stream(seed, idx, "frame"))
    return PairSpec(body=body, frame=frame)


def _group_task(
    config: ExperimentConfig, measure_runtime: bool, group: list[tuple[int, tuple]]
) -> list[tuple[Optional[ResultRow], list[tuple]]]:
    """The rows of one (body, n, seed) group, given as (idx, combo) in row order.

    Returns each row, or None if it is skipped, with its warnings as
    logger.warning arguments, in row order. The body is parsed once. Each row
    builds its `PairSpec` (`row_spec`) and, when N >= 10^4, the spec's
    products; then `stein.group_pass` draws the points once for all rows,
    from the points stream of the group's first row, with each row's own
    indices stream when N >= 10^4; `_compute_row` does the rest. A ValueError
    or MemoryError skips the row it arises in, or every row still standing if
    it arises in the body or the shared pass.
    """
    g, (body_kind, n, _, _, seed) = group[0]
    notes = [[] for _ in group]
    seconds = [0.0] * len(group)  # each row's own time, plus the group's shared work
    rows = [None] * len(group)

    def attempt(members, fn, *args):
        """fn(*args), timed for each row i in `members`, which all skip if it cannot run."""
        started = time.perf_counter()
        try:
            return fn(*args)
        except (ValueError, MemoryError) as exc:
            for i in members:
                notes[i].append((
                    "skipping row body=%s n=%d k=%d frame=%s seed=%d: %s", *group[i][1], exc,
                ))
            return None
        finally:
            elapsed = time.perf_counter() - started
            for i in members:
                seconds[i] += elapsed

    pairs = config.samples >= PAIR_TERM_MIN_COUNT
    body = attempt(range(len(group)), parse_body_kind, body_kind, n)

    def spec_of(idx, k, frame_kind):
        spec = row_spec(body, idx, k, frame_kind, seed)
        if pairs:
            spec.products  # built here, so a row too wide for its (k*k, m) weights skips alone
        return spec

    specs = {} if body is None else {
        i: attempt([i], spec_of, idx, k, frame_kind)
        for i, (idx, (_, _, k, frame_kind, _)) in enumerate(group)
    }
    live = [i for i, spec in specs.items() if spec is not None]
    passes = dict.fromkeys(live, (None, None))
    if live and (pairs or config.metrics):
        indices = [row_stream(seed, group[i][0], "indices") if pairs else None for i in live]
        results = attempt(live, group_pass, [specs[i] for i in live], config.samples,
                          row_stream(seed, g, "points"), indices)
        passes = {} if results is None else dict(zip(live, results))
        del results
    for i in list(passes):
        idx, combo = group[i]
        # Popped, so a row's W is freed as soon as that row is done.
        rows[i] = attempt([i], _compute_row, config, idx, *combo, notes[i], specs[i],
                          *passes.pop(i))
        if measure_runtime and rows[i] is not None:
            rows[i] = replace(rows[i], runtime_ms=1000.0 * seconds[i])
    return list(zip(rows, notes))


def _compute_row(
    config: ExperimentConfig, idx: int, body_kind: str, n: int, k: int, frame_kind: str, seed: int,
    notes: list, spec: PairSpec, w: Optional[np.ndarray], stats: Optional[stein.PairStatistics],
) -> ResultRow:
    """Row idx of the sweep from its PairSpec and its share of the group pass, (w, stats).

    The row's frame functionals (computed once, from the spec's vertex
    products for the simplex) and the theorem bounds read from them, the
    corollary bounds from `stats` (a note when it is None, at N < 10^4) and
    the distances of `w`. Warnings go to `notes`, not the log.
    """
    fun = frame_functionals(spec.frame, spec.alpha if spec.body.kind == "simplex" else None)
    thm = theorem_bounds(fun, k, config.constants)
    bound_d1_cor = bound_dtv_cor = None
    if stats is None:
        notes.append(("skipping semi-empirical bounds for body=%s n=%d k=%d: samples=%d < 10^4",
                      body_kind, n, k, config.samples))
    else:
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
        body=spec.body.label(),
        n=n,
        k=k,
        frame=frame_kind,
        seed=seed,
        N=config.samples,
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
