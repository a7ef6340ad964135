"""Spans around margauss's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function under every name a margauss
module binds it to: `harness` and `stein` import `sample_body`,
`estimate_pair_terms`, `frame_functionals` and the estimators with
`from ... import`, so wrapping only the defining module would miss those
calls. Each span records (name, start, end, parent, row, peak RSS before and
after, count). Spans stay in memory; `Tracer.dump` hands them to the caller
at the end of the run. `layer_metrics` derives the per-layer figures from a
dump. The wrappers pass arguments and results through untouched, so a traced
run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time

# span name -> (module, function names); the module is where they are defined.
TRACED = {
    "cli.main": ("cli", ("main",)),
    "harness.run_experiment": ("harness", ("run_experiment",)),
    "harness.emit_csv": ("harness", ("emit_csv",)),
    "frames.build": ("frames", ("walsh_frame", "haar_frame", "coordinate_frame")),
    "frames.functionals": ("frames", ("frame_functionals",)),
    "frames.project": ("frames", ("project",)),
    "bodies.geometry": ("bodies", ("regular_simplex",)),
    "bodies.sample": ("bodies", ("sample_body",)),
    "stein.pair_terms": ("stein", ("estimate_pair_terms",)),
    "stein.check": ("stein", ("conditional_checks",)),
    "stein.bounds": ("stein", ("theorem_bounds", "corollary_bounds")),
    "metrics.w1_1d": ("metrics", ("w1_1d",)),
    "metrics.w1_sliced": ("metrics", ("w1_sliced",)),
    "metrics.ks": ("metrics", ("ks_1d",)),
    "metrics.tv": ("metrics", ("tv_hist_1d",)),
}

# The one private function traced: a sweep row's boundary, which gives the
# spans inside it their row id. Its self time counts as harness time.
ROW_SPAN = "harness.row"

NAME, START, END, PARENT, ROW, RSS_BEFORE, RSS_AFTER, COUNT = range(8)

# Unit of each per-layer metric; a name not listed here is a time in s.
_NON_SECONDS = {
    "bodies.elements_drawn": "count",
    "bodies.useful_draw_ratio": "ratio",
    "stein.edge_matrix_elements": "count",
    "stein.check_p50_ms": "ms",
    "stein.check_p99_ms": "ms",
    "metrics.ppf_elements": "count",
    "bodies.peak_raise_mb": "MB",
    "stein.peak_raise_mb": "MB",
    "metrics.peak_raise_mb": "MB",
    "trace.layer_share": "ratio",
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _CountingNorm:
    """Stands in for `scipy.stats.norm` in `margauss.metrics`; counts ppf elements."""

    def __init__(self, norm, tracer):
        self._norm = norm
        self._tracer = tracer

    def ppf(self, q, *args, **kwargs):
        result = self._norm.ppf(q, *args, **kwargs)
        self._tracer.ppf_elements += int(getattr(result, "size", 1))
        return result

    def __getattr__(self, name):
        return getattr(self._norm, name)


class Tracer:
    """Spans and counts of the traced margauss calls in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.row = None
        self.rows_started = 0
        self.edge_matrix_elements = 0
        self.ppf_elements = 0
        self._stack: list[int] = []

    def _call(self, name, fn, args, kwargs, new_row):
        saved_row = self.row
        if new_row:
            self.row = self.rows_started
            self.rows_started += 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.row, _peak_rss_kb(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.monotonic()
            span[RSS_AFTER] = _peak_rss_kb()
            self._stack.pop()
            self.row = saved_row
        if name == "bodies.sample":
            span[COUNT] = int(result.points.size)
        return result

    def _wrap(self, name, fn, new_row=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, new_row)

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name margauss binds it to."""
        from margauss import bodies, harness, metrics

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "margauss"]
        targets = [
            (name, getattr(sys.modules[f"margauss.{module}"], fn), False)
            for name, (module, fns) in TRACED.items()
            for fn in fns
        ]
        targets.append((ROW_SPAN, harness._compute_row, True))
        for name, original, new_row in targets:
            wrapped = self._wrap(name, original, new_row)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        edge_matrix = bodies.SimplexGeometry.unordered_edge_matrix

        @functools.wraps(edge_matrix)
        def counted_edge_matrix(geom):
            result = edge_matrix(geom)
            self.edge_matrix_elements += int(result[2].size)
            return result

        bodies.SimplexGeometry.unordered_edge_matrix = counted_edge_matrix
        metrics.norm = _CountingNorm(metrics.norm, self)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "edge_matrix_elements": self.edge_matrix_elements,
            "ppf_elements": self.ppf_elements,
        }


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def layer_metrics(dump: dict, wall_s: float, useful_elements: int) -> dict[str, float]:
    """Per-layer figures of one traced round.

    Times are self times: a span's duration minus that of its child spans.
    `useful_elements` is the sum over rows of N * n, the draws a row needs.
    """
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    child_raise = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
            child_raise[span[PARENT]] += span[RSS_AFTER] - span[RSS_BEFORE]

    self_s: dict[str, float] = {}
    raise_kb: dict[str, int] = {}
    drawn = 0
    checks_ms = []
    for i, span in enumerate(spans):
        name = span[NAME]
        if name == "bodies.sample":
            drawn += span[COUNT]
            under_pairs = span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "stein.pair_terms"
            name = "bodies.sample_for_pairs" if under_pairs else "bodies.sample_for_metrics"
        elif name == "stein.check":
            checks_ms.append(1000.0 * (span[END] - span[START]))
        self_s[name] = self_s.get(name, 0.0) + (span[END] - span[START]) - child_time[i]
        layer = name.split(".")[0]
        raise_kb[layer] = raise_kb.get(layer, 0) + (span[RSS_AFTER] - span[RSS_BEFORE]) - child_raise[i]

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] in ("frames", "bodies", "stein", "metrics"))
    return {
        "cli.self_s": s("cli.main"),
        "harness.self_s": s("harness.run_experiment", ROW_SPAN),
        "harness.emit_csv_s": s("harness.emit_csv"),
        "frames.build_s": s("frames.build"),
        "frames.functionals_s": s("frames.functionals"),
        "frames.project_s": s("frames.project"),
        "bodies.geometry_s": s("bodies.geometry"),
        "bodies.sample_for_metrics_s": s("bodies.sample_for_metrics"),
        "bodies.sample_for_pairs_s": s("bodies.sample_for_pairs"),
        "bodies.elements_drawn": drawn,
        "bodies.useful_draw_ratio": useful_elements / drawn if drawn else 0.0,
        "stein.pair_terms_self_s": s("stein.pair_terms"),
        "stein.edge_matrix_elements": dump["edge_matrix_elements"],
        "stein.bounds_s": s("stein.bounds"),
        "stein.check_p50_ms": _percentile(checks_ms, 50),
        "stein.check_p99_ms": _percentile(checks_ms, 99),
        "metrics.w1_1d_s": s("metrics.w1_1d"),
        "metrics.w1_sliced_s": s("metrics.w1_sliced"),
        "metrics.ks_s": s("metrics.ks"),
        "metrics.tv_s": s("metrics.tv"),
        "metrics.ppf_elements": dump["ppf_elements"],
        "bodies.peak_raise_mb": raise_kb.get("bodies", 0) / 1024.0,
        "stein.peak_raise_mb": raise_kb.get("stein", 0) / 1024.0,
        "metrics.peak_raise_mb": raise_kb.get("metrics", 0) / 1024.0,
        "trace.layer_share": layer_s / wall_s,
    }


UNITS = {
    name: _NON_SECONDS.get(name, "s")
    for name in [*layer_metrics({"spans": [], "edge_matrix_elements": 0, "ppf_elements": 0},
                                1.0, 0), "trace.overhead_s"]
}
