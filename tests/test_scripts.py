"""Smoke tests of the scripts under scripts/, run in-process on small inputs."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, capsys, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(list(argv)) == 0
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
