"""Every margauss function the benchmark's tracer wraps must still exist.

`perfbench/tracing.py` names its targets by module and function and wraps
them when a run is traced; a refactor that renames or removes one would
only show when `perfbench/run.py --trace 1` fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    targets = [(module, fn) for module, fns in tracing.TRACED.values() for fn in fns]
    targets += [("harness", "_compute_row"), ("bodies", "SimplexGeometry"), ("metrics", "norm")]
    missing = [
        f"margauss.{module}.{fn}"
        for module, fn in targets
        if not hasattr(importlib.import_module(f"margauss.{module}"), fn)
    ]
    assert missing == []
    from margauss import bodies, metrics

    assert callable(bodies.SimplexGeometry.unordered_edge_matrix)
    assert callable(metrics.norm.ppf)
