import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import margauss
from margauss.cli import main
from margauss.harness import read_result_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_frames_row(capsys):
    code, out = run_cli(capsys, "frames", "--kind", "walsh", "--n", "64", "--k", "2")
    assert code == 0
    cells = out.strip().split(",")
    assert cells[0] == "walsh" and cells[1] == "64" and cells[2] == "2"
    assert float(cells[3]) == pytest.approx(0.25)


def test_sample_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "points.csv"
    code, _ = run_cli(
        capsys, "sample", "--body", "simplex", "--n", "6", "--count", "50",
        "--seed", "9", "--out", str(out_file),
    )
    assert code == 0
    pts = np.loadtxt(out_file, delimiter=",")
    assert pts.shape == (50, 6)


def test_sample_seed_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli(capsys, "sample", "--body", "product-laplace", "--n", "4",
                "--count", "20", "--seed", "5", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_overrides_cli(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("MG_SEED", "123")
    run_cli(capsys, "sample", "--body", "product-uniform", "--n", "3",
            "--count", "10", "--seed", "1", "--out", str(a))
    monkeypatch.delenv("MG_SEED")
    run_cli(capsys, "sample", "--body", "product-uniform", "--n", "3",
            "--count", "10", "--seed", "123", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_pair_passes(capsys):
    code, out = run_cli(
        capsys, "verify", "pair", "--body", "simplex", "--n", "8", "--k", "2",
        "--frame", "haar", "--samples", "25", "--seed", "3",
    )
    assert code == 0
    assert "PASS" in out
    assert "linearity_residual=" in out and "second_moment_residual=" in out


def test_bounds_rows_simplex_k1(capsys, tmp_path):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"C_tv_simplex1d": 2.0}))
    code, out = run_cli(
        capsys, "bounds", "--body", "simplex", "--n", "10", "--k", "1",
        "--frame", "haar", "--seed", "4", "--constants", str(constants),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("thm2,")
    assert lines[1].startswith("thm3,")
    thm3_cells = lines[1].split(",")
    assert float(thm3_cells[6]) == 2.0  # C_tv_simplex1d column


def test_bounds_product_body(capsys):
    code, out = run_cli(capsys, "bounds", "--body", "product-uniform", "--n", "256",
                        "--k", "2", "--frame", "walsh")
    assert code == 0
    cells = out.strip().split(",")
    assert cells[0] == "thm1"
    assert float(cells[1]) == pytest.approx(7.0)


def test_smoothing_ratio(capsys):
    code, out = run_cli(capsys, "smoothing", "--density", "laplace", "--t", "0.1")
    assert code == 0
    density, t, lhs, bound, ratio = out.strip().split(",")
    assert density == "laplace"
    assert float(bound) == pytest.approx(2 * math.sqrt(2) * 0.1)
    assert 0 < float(ratio) <= 1.0
    assert float(lhs) == pytest.approx(float(bound) * float(ratio))


def test_distance_row(capsys):
    code, out = run_cli(
        capsys, "distance", "--metric", "ks", "--body", "product-gaussian", "--n", "16",
        "--k", "1", "--frame", "walsh", "--samples", "5000", "--seed", "11",
    )
    assert code == 0
    cells = out.strip().split(",")
    assert cells[0] == "ks"
    assert float(cells[1]) < 0.05
    assert cells[3] == "5000" and cells[4] == "1"


def test_experiment_round_trip(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16, 64], "ks": [1],
        "frames": ["walsh"], "samples": 12_000, "seeds": [2], "metrics": ["w1"],
    }))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code, _ = run_cli(capsys, "experiment", "--config", str(config), "--out", str(out1))
    assert code == 0
    run_cli(capsys, "experiment", "--config", str(config), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_result_csv(out1)
    assert len(rows) == 2 and rows[0].emp_w1 is not None


def test_experiment_constants_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16], "ks": [1],
        "frames": ["walsh"], "samples": 500, "seeds": [2], "metrics": [],
    }))
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"C_tv_multi": 5.0}))
    base, scaled = tmp_path / "base.csv", tmp_path / "scaled.csv"
    run_cli(capsys, "experiment", "--config", str(config), "--out", str(base))
    run_cli(capsys, "experiment", "--config", str(config), "--out", str(scaled),
            "--constants", str(constants))
    row_base = read_result_csv(base)[0]
    row_scaled = read_result_csv(scaled)[0]
    assert row_scaled.bound_dtv_thm == pytest.approx(5.0 * row_base.bound_dtv_thm)
    assert row_scaled.bound_d1_thm == row_base.bound_d1_thm


def test_distance_rejects_multidimensional_ks(capsys):
    with pytest.raises(SystemExit):
        main(["distance", "--metric", "ks", "--body", "product-gaussian", "--n", "8",
              "--k", "2", "--frame", "walsh", "--samples", "500", "--seed", "1"])


def test_env_seed_must_be_decimal(capsys, monkeypatch):
    monkeypatch.setenv("MG_SEED", "0x1f")
    with pytest.raises(SystemExit) as exc:
        main(["frames", "--kind", "haar", "--n", "8", "--k", "2"])
    assert exc.value.code == 2
    assert "MG_SEED must be a decimal integer, got '0x1f'" in capsys.readouterr().err


def test_experiment_skips_failing_rows(tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16, 64], "ks": [1],
        "frames": ["walsh"], "samples": 50, "seeds": [2], "metrics": ["w1"],
    }))
    out = tmp_path / "rows.csv"
    with caplog.at_level(logging.WARNING):
        code, _ = run_cli(capsys, "experiment", "--config", str(config), "--out", str(out))
    assert code == 0
    assert read_result_csv(out) == []
    skips = [rec.getMessage() for rec in caplog.records
             if rec.getMessage().startswith("skipping row")]
    assert skips == [
        f"skipping row body=product-uniform n={n} k=1 frame=walsh seed=2: "
        "need at least 100 samples, got 50"
        for n in (16, 64)
    ]


def run_under_address_limit(code: str, limit_gb: float) -> subprocess.CompletedProcess:
    """Run `code` in a child Python with RLIMIT_AS = limit_gb GiB and one BLAS thread."""
    child = (
        "import resource, sys\n"
        f"limit = int({limit_gb} * 2**30)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from margauss.cli import main\n"
    ) + code
    src = str(Path(margauss.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "MG_SEED"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=600)


def test_simplex_n1024_within_address_space_limit(tmp_path):
    # Listing the n(n+1)/2 simplex edges at n = 1024 needs a 4 GiB array; the
    # vertex-coordinate path must run a sweep row and verify pair in 2.5 GB.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["simplex"], "ns": [1024], "ks": [3], "frames": ["haar"],
        "samples": 10_000, "seeds": [1], "metrics": ["w1"],
    }))
    out = tmp_path / "rows.csv"
    result = run_under_address_limit(
        f"assert main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        "sys.exit(main(['verify', 'pair', '--body', 'simplex', '--n', '1024', '--k', '3',\n"
        "               '--frame', 'haar', '--samples', '5', '--seed', '1']))\n",
        2.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "PASS" in result.stdout
    rows = read_result_csv(out)
    assert len(rows) == 1 and rows[0].N == 10_000 and rows[0].bound_d1_cor is not None


def test_distance_draws_in_chunks_within_address_space_limit():
    # One draw of 3e5 points at n = 1024 is 2.4 GB; `distance` samples through
    # the chunked row pass and needs a few hundred MB.
    result = run_under_address_limit(
        "sys.exit(main(['distance', '--metric', 'w1', '--body', 'product-uniform',\n"
        "               '--n', '1024', '--k', '1', '--frame', 'walsh',\n"
        "               '--samples', '300000', '--seed', '1']))\n",
        1.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("w1-1d,") and ",300000,1" in result.stdout


def test_simplex_wide_frame_pair_terms_within_address_space_limit(tmp_path):
    # At k = n = 16 the per-draw edge sums, (k*k) = 256 wide, outgrow gamma
    # (n + 1 = 17 wide); a chunk sized by n + 1 alone needs about 600 MiB per
    # temporary at N = 3e5 and fails in 1.5 GB. The row needs about 650 MB.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["simplex"], "ns": [16], "ks": [16], "frames": ["haar"],
        "samples": 300_000, "seeds": [1], "metrics": [],
    }))
    out = tmp_path / "rows.csv"
    result = run_under_address_limit(
        f"sys.exit(main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]))\n",
        1.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    rows = read_result_csv(out)
    assert len(rows) == 1 and rows[0].bound_d1_cor is not None
