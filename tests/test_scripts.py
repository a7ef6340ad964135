"""Smoke tests of the scripts under scripts/, run in-process on small inputs."""

import importlib.util
import itertools
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, capsys, *argv):
    assert load_script(name).main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def test_run_sweep_prints_rows_and_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    lines = run_script("run_sweep", capsys, "--samples", "20000", "--ns", "16", "64", "256",
                       "--out", str(out))
    assert lines[0] == "estimator noise floor at N=20000: 9.11e-03"
    rows = lines[1:4]
    assert [int(re.match(r"n=\s*(\d+) ", row).group(1)) for row in rows] == [16, 64, 256]
    assert all("emp_w1=" in row and "cor_d1=" in row for row in rows)
    assert re.fullmatch(r"log-log fit: slope=-?\d+\.\d{3}  intercept=-?\d+\.\d{3}  "
                        r"r2=-?\d+\.\d{3}", lines[4])
    assert lines[5] == f"wrote {out}" and out.exists()


def test_smoothing_scan_prints_a_row_per_density(capsys):
    lines = run_script("smoothing_scan", capsys, "--ts", "0.1")
    assert lines[0].split() == ["density", "t", "lhs", "bound", "ratio", "exact"]
    cells = [line.split() for line in lines[1:]]
    assert [row[0] for row in cells] == ["uniform", "laplace", "gaussian"]
    for row in cells:
        assert row[1] == "0.100" and float(row[3]) == 0.282843  # 2 sqrt(2) t to 6 digits
        assert 0 < float(row[4]) <= 1
    assert len(cells[2]) == 6 and float(cells[2][5]) > 0  # the exact Gaussian distance


def canned_run(wall_s, seed, correct=True, failed=0):
    """The stdout of one `perfbench/run.py --trace 0` run, as it prints it."""
    verdict = {"correct": correct, "attempted": 24, "failed": failed, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": 0.25, "unit": "s"},
        "peak_rss_mb": {"value": 130.0, "unit": "MB"},
    }}
    return "\n".join([
        f"perfbench: sliced-lowdim seed={seed} OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 "
        "MKL_NUM_THREADS=1",
        "perfbench: round 0: setup_s=0.2500 wall_s=0.7000 peak_rss_mb=130.0 blas_threads=1",
        "perfbench: round 1: setup_s=0.2400 wall_s=0.6000 peak_rss_mb=130.0 blas_threads=1",
        json.dumps(verdict),
    ]) + "\n"


def test_bench_ab_aggregates_canned_runs(monkeypatch, tmp_path, capsys):
    bench = load_script("bench_ab")
    run = bench.parse_run(canned_run(0.7, 41))
    assert run == {"correct": True, "attempted": 24, "failed": 0, "blas_threads": [1],
                   "metrics": {"wall_s": 0.7, "setup_s": 0.25, "peak_rss_mb": 130.0}}
    before = [bench.parse_run(canned_run(w, 41 + i))
              for i, w in enumerate([0.70, 0.72, 0.68, 0.75, 0.71])]
    after = [bench.parse_run(canned_run(w, 41 + i))
             for i, w in enumerate([0.60, 0.73, 0.55, 0.58, 0.57])]
    summary = bench.summarize(before)["wall_s"]
    # Sorted 0.68, 0.70, 0.71, 0.72, 0.75: inclusive quartiles at positions 1, 2 and 3.
    assert summary == {"median": 0.71, "q1": 0.70, "q3": 0.72}
    assert bench.summarize(before[:1])["setup_s"] == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    row = bench.compare(before, after)["wall_s"]
    assert row["before_median"] == 0.71 and row["after_median"] == 0.58
    assert (row["after_lower"], row["after_higher"], row["pairs"]) == (4, 1, 5)
    assert abs(row["before_iqr"] - 0.02) < 1e-12
    peak = bench.compare(before, after)["peak_rss_mb"]
    assert (peak["after_lower"], peak["after_higher"]) == (0, 0)  # ties count for neither

    # One canned case of ten pairs for each verdict on wall_s, whose bound is 0.25.
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, IQR 0.035
    wide = [0.60, 1.40, 0.70, 1.30, 0.80, 1.20, 0.90, 1.10, 1.00, 1.00]  # IQR 0.35 > 0.25 x 1.0
    cases = {
        "gain": (base, [w - 0.2 for w in base]),  # lower in 10/10, by more than the IQR
        "worse": (base, [1.5 * w for w in base]),  # median 1.5 > 1.0 * 1.25
        "unresolved": (wide, [w - 0.05 for w in wide]),  # lower in 10/10, within the IQR
        "flat": (base, base[1:] + base[:1]),  # medians equal, spread small
    }
    for expected, (xs, ys) in cases.items():
        rows = [[bench.parse_run(canned_run(w, 41 + i)) for i, w in enumerate(side)]
                for side in (xs, ys)]
        assert bench.compare(*rows)["wall_s"]["verdict"] == expected, expected
    assert bench.compare(before, after)["wall_s"]["verdict"] == "flat"  # lower in 4/5 alone

    # Each side's medians of the CPU and steal seconds its runs took.
    host = [{"cpu_s": cpu, "steal_s": steal} for cpu, steal in [(1.0, 0.0), (3.0, 0.5), (2.0, 0.1)]]
    assert bench.host_medians({"before": {"w": host}, "after": {"w": host[:2]}}, "w") == {
        "before": {"cpu_s": 2.0, "steal_s": 0.1}, "after": {"cpu_s": 2.0, "steal_s": 0.25}}
    cpu, steal = bench.host_counters()
    assert cpu >= 0 and steal >= 0

    # A run that reads incorrect or failed makes the script exit 1 once both
    # files are written, naming the run's workload, side and seed.
    bad = {("sweep-uniform", "before", 47): (True, 1), ("verify-pair", "after", 43): (False, 0)}
    ticks = itertools.count()  # each run reads the counters before and after: 1.5 and 0.25 s
    monkeypatch.setattr(bench, "host_counters", lambda: (1.5 * (t := next(ticks)), 0.25 * t))

    def run_perfbench(root, workload, seed):
        correct, failed = bad.get((workload, root, seed), (True, 0))
        return bench.parse_run(canned_run(0.7, seed, correct, failed))

    monkeypatch.setattr(bench, "run_perfbench", run_perfbench)
    monkeypatch.chdir(tmp_path)
    args = ["--before", "before", "--before-tag", "b", "--after", "after", "--after-tag", "a"]
    assert bench.main(args) == 1
    assert (tmp_path / "bench" / "BENCH_b.json").exists()
    record = json.loads((tmp_path / "bench" / "BENCH_a.json").read_text())
    runs = [run for w in record["workloads"].values() for run in w["runs"]]
    assert len(runs) == 40 and all((run["cpu_s"], run["steal_s"]) == (1.5, 0.25) for run in runs)
    captured = capsys.readouterr()
    assert "verify-pair host medians: before cpu_s 1.500 steal_s 0.250, after cpu_s 1.500 " \
           "steal_s 0.250" in captured.out.splitlines()
    assert captured.err.splitlines() == [
        "failed run: sweep-uniform before seed=47: correct=True failed=1 of 24",
        "failed run: verify-pair after seed=43: correct=False failed=0 of 24",
    ]
    monkeypatch.setattr(bench, "run_perfbench",
                        lambda root, workload, seed: bench.parse_run(canned_run(0.7, seed)))
    assert bench.main(args) == 0
