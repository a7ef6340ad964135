"""Every command the benchmark runs must still parse.

`perfbench/run.py` calls `margauss.cli.main` on the argvs and configs of its
workloads; a removed option or config key would only show as failed
operations in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from margauss.cli import build_parser
from margauss.harness import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_workload_commands_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks and tracing
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look themselves up there
    spec.loader.exec_module(run)
    parser = build_parser()
    argvs = []
    for name, workload in run.WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        for path in workload.prepare(str(out), 1):
            ExperimentConfig.from_json(path)
        argvs += workload.calls(str(out), 1, 0)
    assert argvs
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark runs {argv}, which does not parse")
