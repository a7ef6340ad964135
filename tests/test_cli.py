import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import margauss
from margauss import bodies, core, frames, harness, stein
from margauss.cli import build_parser, main
from margauss.core import substream
from margauss.harness import ExperimentConfig, read_result_csv, row_stream, run_experiment


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


def test_verify_pair_fails_on_a_nan_residual(capsys, monkeypatch):
    # Python's max(0.0, nan) is 0.0, so a NaN residual must not be reduced with it:
    # 9 points are drawn as 3 whole blocks of 4 (n = 8), and only the middle one has NaN.
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 4 * 8)
    monkeypatch.setattr(core, "_cores", lambda: 1)  # draw the blocks in order
    draw = bodies._draw_block
    tiles = []

    def nan_in_the_middle_tile(spec, stream, out):
        draw(spec, stream, out)
        tiles.append(len(out))
        if len(tiles) == 2:
            out[1] = np.nan

    monkeypatch.setattr(bodies, "_draw_block", nan_in_the_middle_tile)
    code, out = run_cli(
        capsys, "verify", "pair", "--body", "product-uniform", "--n", "8", "--k", "2",
        "--frame", "haar", "--samples", "9", "--seed", "3",
    )
    assert tiles == [4, 4, 4]
    assert code == 1
    assert "linearity_residual=nan" in out and "second_moment_residual=nan" in out
    assert "FAIL" in out


def test_verify_pair_fails_on_a_nan_in_a_worker_tile(capsys, monkeypatch):
    # 9 points in blocks of 4 on two cores: the calling thread checks the first
    # block and a worker the other two, the first of which gets a NaN.
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 4 * 8)
    monkeypatch.setattr(core, "_cores", lambda: 2)
    draw = bodies._draw_block
    poisoned = []

    def nan_off_the_main_thread(spec, stream, out):
        draw(spec, stream, out)
        if threading.current_thread() is not threading.main_thread() and not poisoned:
            out[2] = np.nan
            poisoned.append(True)

    monkeypatch.setattr(bodies, "_draw_block", nan_off_the_main_thread)
    code, out = run_cli(
        capsys, "verify", "pair", "--body", "product-uniform", "--n", "8", "--k", "2",
        "--frame", "haar", "--samples", "9", "--seed", "3",
    )
    assert poisoned == [True]
    assert code == 1
    assert "linearity_residual=nan" in out and "second_moment_residual=nan" in out
    assert "FAIL" in out


@pytest.mark.parametrize(
    "body", ["product-uniform", "product-laplace", "simplex", "product-gaussian", "lp-ball(1.5)"]
)
def test_verify_pair_output_does_not_depend_on_core_count(body, capsys, monkeypatch):
    # Blocks of 4 points at n = 8 (n + 1 = 9 coordinates for the simplex), each
    # checked in tiles of 2 at k = 2: 10 points are 3 blocks, the last used in
    # part, so three cores take one block each. Every body splits its blocks,
    # and a worker must check the very points a serial draw gives there.
    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 4 * 9)
    check = stein.conditional_checks
    checked = []

    def record(pts, spec):
        checked.append((threading.current_thread(), pts.copy()))
        return check(pts, spec)

    monkeypatch.setattr(stein, "conditional_checks", record)
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(core, "_cores", lambda: cores)
        checked.clear()
        code, out = run_cli(
            capsys, "verify", "pair", "--body", body, "--n", "8", "--k", "2",
            "--frame", "haar", "--samples", "10", "--seed", "6",
        )
        assert code == 0 and "PASS" in out
        off_main = any(thread is not threading.main_thread() for thread, _ in checked)
        assert off_main == (cores > 1)
        runs.append((out, sorted(pts.tobytes() for _, pts in checked)))
        if cores == 1:
            points = np.concatenate([pts for _, pts in checked])
    for out, tiles in runs[1:]:
        assert out == runs[0][0]
        assert tiles == runs[0][1]
    spec = bodies.parse_body_kind(body, 8)  # points holds the simplex's vertex coordinates
    assert np.array_equal(bodies.to_points(spec, points),
                          bodies.sample_body(spec, row_stream(6, 0, "points"), 10).points)


def test_verify_pair_worker_error_reaches_the_caller(monkeypatch):
    check = stein.conditional_checks

    def fail_off_main_thread(pts, spec):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return check(pts, spec)

    monkeypatch.setattr(core, "_cores", lambda: 2)
    monkeypatch.setattr(stein, "conditional_checks", fail_off_main_thread)
    with pytest.raises(RuntimeError, match="worker failed"):
        main(["verify", "pair", "--body", "product-uniform", "--n", "1024", "--k", "1",
              "--frame", "walsh", "--samples", "1000", "--seed", "1"])


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
    # source,d1_bound,dtv_bound,d2_bound,C_tv_multi,C_tv_simplex1d
    thm3_cells = lines[1].split(",")
    assert thm3_cells[4:] == ["1", "2"]


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


README = Path(__file__).resolve().parents[1] / "README.md"
MARGINAL = ["--body", "simplex", "--n", "8", "--k", "1", "--frame", "haar"]
DISTANCE_HEADER = "metric,value,se_or_bias_note,N,k"


@pytest.mark.parametrize("header,argv", [
    ("kind,n,k,l4_sum,l3_sum", ["frames", "--kind", "haar", "--n", "8", "--k", "1"]),
    ("source,d1_bound,dtv_bound,d2_bound,C_tv_multi,C_tv_simplex1d", ["bounds", *MARGINAL]),
    *[(DISTANCE_HEADER, ["distance", "--metric", metric, *MARGINAL, "--samples", "1000",
                         "--seed", "1"]) for metric in ("w1", "ks", "tv")],
], ids=["frames", "bounds", "distance-w1", "distance-ks", "distance-tv"])
def test_printed_rows_match_their_documented_headers(capsys, header, argv):
    assert f"`{header}`" in README.read_text()
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.count(",") == header.count(",") for line in lines)


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
    config = {"bodies": ["product-uniform"], "ns": [16], "ks": [1],
              "frames": ["walsh"], "samples": 500, "seeds": [2], "metrics": []}
    base, scaled = tmp_path / "base.csv", tmp_path / "scaled.csv"
    for out, constants in ((base, {}), (scaled, {"constants": {"C_tv_multi": 5.0}})):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **constants}))
        run_cli(capsys, "experiment", "--config", str(path), "--out", str(out))
    row_base = read_result_csv(base)[0]
    row_scaled = read_result_csv(scaled)[0]
    assert row_scaled.bound_dtv_thm == pytest.approx(5.0 * row_base.bound_dtv_thm)
    assert row_scaled.bound_d1_thm == row_base.bound_d1_thm


@pytest.mark.parametrize("metric, body, n, k, frame", [
    ("w1", "product-uniform", 16, 1, "walsh"),
    ("w1", "product-laplace", 16, 2, "haar"),
    ("ks", "product-gaussian", 8, 1, "haar"),
    ("tv", "lp-ball(1.5)", 8, 1, "coordinate"),
    ("w1", "simplex", 12, 1, "haar"),
    # N = 2e4 spans 157 tiles of 128 points at n = 1024; the sweep also draws
    # symmetry indices (stream 1) and `distance` draws none.
    ("w1", "product-uniform", 1024, 1, "walsh"),
    ("w1", "simplex", 1024, 1, "haar"),
])
def test_distance_reproduces_sweep_row_0(capsys, metric, body, n, k, frame):
    seed, count = 9, 20_000
    config = ExperimentConfig(bodies=(body,), ns=(n,), ks=(k,), frames=(frame,),
                              samples=count, seeds=(seed,), metrics=(metric,))
    row = run_experiment(config)[0]
    code, out = run_cli(
        capsys, "distance", "--metric", metric, "--body", body, "--n", str(n), "--k", str(k),
        "--frame", frame, "--samples", str(count), "--seed", str(seed),
    )
    assert code == 0
    expected = {"w1": row.emp_w1, "ks": row.emp_ks, "tv": row.emp_tv}[metric]
    assert float(out.split(",")[1]) == expected


def test_distance_samples_apart_from_the_frame_stream(capsys, monkeypatch):
    # The Haar frame orthonormalises the first Gaussian rows of stream 0; the
    # sample must come from another stream, so it is not one of those rows.
    draw = bodies._draw_block
    drawn = []

    def recording(spec, stream, out):
        draw(spec, stream, out)
        drawn.append(out.copy())

    monkeypatch.setattr(bodies, "_draw_block", recording)
    code, out = run_cli(
        capsys, "distance", "--metric", "w1", "--body", "product-gaussian", "--n", "8",
        "--k", "2", "--frame", "haar", "--samples", "1000", "--seed", "5",
    )
    assert code == 0 and out.startswith("w1-sliced,")
    frame_rows = substream(5, 0).normal((2, 8))
    first_point = drawn[0][0]
    assert not np.array_equal(first_point, frame_rows[0])
    assert np.array_equal(first_point, substream(5, 2).block(0).normal(8))


@pytest.mark.parametrize("body", ["product-uniform", "product-gaussian", "lp-ball(1.5)",
                                  "simplex"])
def test_subcommands_follow_the_stream_map(tmp_path, capsys, monkeypatch, body):
    # Each subcommand reads sweep row 0's streams: the Haar frame from stream
    # 0, the points from stream 2. `sample` writes the first points of the
    # stream whose points `verify pair` checks and `distance` and the sweep
    # project; its 30 points span four blocks of 8 (eight of 4 for the simplex).
    from margauss import frames, harness, stein

    monkeypatch.setattr(bodies, "_BLOCK_BUDGET", 128)
    monkeypatch.setattr(core, "_cores", lambda: 1)  # the checked tiles come in order
    seed, n, k, count = 6, 16, 2, 30
    built, checked, projected = [], [], []
    build_frame, check, group_pass = frames.build_frame, stein.conditional_checks, stein.group_pass

    def build(*args):
        frame = build_frame(*args)
        built.append(frame.rows)
        return frame

    def record_check(pts, spec):
        checked.append(pts.copy())
        return check(pts, spec)

    def record_pass(specs, *args):
        results = group_pass(specs, *args)
        projected.append(results[0][0])
        return results

    for module in (frames, harness):
        monkeypatch.setattr(module, "build_frame", build)
    monkeypatch.setattr(stein, "conditional_checks", record_check)
    for module in (stein, harness):
        monkeypatch.setattr(module, "group_pass", record_pass)
    marginal = ["--body", body, "--n", str(n), "--k", str(k), "--frame", "haar",
                "--seed", str(seed)]
    assert main(["frames", "--kind", "haar", "--n", str(n), "--k", str(k),
                 "--seed", str(seed)]) == 0
    assert main(["bounds", *marginal]) == 0
    assert main(["verify", "pair", *marginal, "--samples", "5"]) == 0
    assert main(["distance", "--metric", "w1", *marginal, "--samples", "1000"]) == 0
    config = ExperimentConfig(bodies=(body,), ns=(n,), ks=(k,), frames=("haar",),
                              samples=1000, seeds=(seed,), metrics=("w1",))
    run_experiment(config)
    out = tmp_path / "points.csv"
    assert main(["sample", "--body", body, "--n", str(n), "--count", str(count),
                 "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()

    assert len(built) == 5  # frames, bounds, verify pair, distance, the sweep row
    for rows in built:
        assert np.array_equal(rows, built[-1])
    points = np.loadtxt(out, delimiter=",")
    assert points.shape == (count, n)
    # The check reads the simplex's vertex coordinates, `sample` their points.
    spec = bodies.parse_body_kind(body, n)
    assert np.array_equal(bodies.to_points(spec, np.concatenate(checked)), points[:5])
    distance_w, row_w = projected
    assert np.array_equal(distance_w, row_w)
    w = points @ built[-1].T
    assert np.max(np.abs(row_w[:count] - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_env_seed_outside_64_bits_is_a_usage_error(capsys, monkeypatch, value):
    # Seeds are not reduced mod 2^64: -1 would replay 2^64 - 1, and 2^64 + 1 replay 1.
    monkeypatch.setenv("MG_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(["frames", "--kind", "haar", "--n", "8", "--k", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"margauss: error: seed must lie in [0, 2^64), got {value}"
    )


def test_env_seed_must_be_decimal(capsys, monkeypatch):
    monkeypatch.setenv("MG_SEED", "0x1f")
    with pytest.raises(SystemExit) as exc:
        main(["frames", "--kind", "haar", "--n", "8", "--k", "2"])
    assert exc.value.code == 2
    assert "MG_SEED must be a decimal integer, got '0x1f'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["distance", "--metric", "w1", "--body", "product-gaussian", "--n", "8", "--k", "1",
      "--frame", "haar", "--samples", "50", "--seed", "1"], "need at least 100 samples, got 50"),
    (["verify", "pair", "--body", "product-gaussian", "--n", "8", "--k", "1",
      "--frame", "haar", "--samples", "0"], "count must be >= 1, got 0"),
    (["distance", "--metric", "ks", "--body", "product-gaussian", "--n", "8", "--k", "2",
      "--frame", "walsh", "--samples", "500", "--seed", "1"],
     "ks is a one-dimensional estimator; use k=1"),
    (["distance", "--metric", "tv", "--body", "simplex", "--n", "8", "--k", "2",
      "--frame", "haar", "--samples", "500", "--seed", "1"],
     "tv is a one-dimensional estimator; use k=1"),
    (["distance", "--metric", "w1", "--body", "product-uniform", "--n", "8", "--k", "1",
      "--frame", "haar", "--samples", "0", "--seed", "1"], "count must be >= 1, got 0"),
    (["distance", "--metric", "w1", "--body", "product-uniform", "--n", "8", "--k", "1",
      "--frame", "haar", "--samples", "-5", "--seed", "1"], "count must be >= 1, got -5"),
    (["smoothing", "--density", "uniform", "--t", "inf"], "t must be positive and finite, got inf"),
    (["smoothing", "--density", "laplace", "--t", "nan"], "t must be positive and finite, got nan"),
    (["frames", "--kind", "haar", "--n", "8", "--k", "2", "--seed", str(2**64 + 1)],
     "seed must lie in [0, 2^64), got 18446744073709551617"),
    (["verify", "pair", "--body", "simplex", "--n", "8", "--k", "2", "--frame", "haar",
      "--seed", "-1"], "seed must lie in [0, 2^64), got -1"),
    (["distance", "--metric", "w1", "--body", "product-gaussian", "--n", "8", "--k", "2",
      "--frame", "haar", "--samples", "1", "--seed", "1"], "need at least 100 samples, got 1"),
    # An input file that cannot be read is a bad argument value too.
    (["experiment", "--config", "/nonexistent/config.json", "--out", "/nonexistent/rows.csv"],
     "cannot read /nonexistent/config.json: No such file or directory"),
    (["bounds", "--body", "simplex", "--n", "8", "--k", "1", "--frame", "haar",
      "--constants", "."], "cannot read .: Is a directory"),
])
def test_bad_argument_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"margauss: error: {message}"
    assert "Traceback" not in err


SMALL_CONFIG = {"bodies": ["product-uniform"], "ns": [16], "ks": [1], "frames": ["walsh"],
                "samples": 500, "seeds": [2], "metrics": []}


@pytest.mark.parametrize("key, value, message", [
    ("samples", 2e4, "samples must be a positive int, got 20000.0"),
    ("ns", [16.0], "ns must be a list of int values, got [16.0]"),
    ("bodies", "simplex", "bodies must be a list of str values, got 'simplex'"),
    ("constants", {"C_tv": 2}, "unknown constants keys: ['C_tv']"),
    ("constants", {"C_tv_multi": 2, "c_smooth": 1}, "unknown constants keys: ['c_smooth']"),
    ("seeds", [2, -1], "seed must lie in [0, 2^64), got -1"),
    ("seeds", [2**64], "seed must lie in [0, 2^64), got 18446744073709551616"),
    ("max_row_seconds", 1.0, "unknown config keys: ['max_row_seconds']"),
    # Rows are keyed by (body, n, k, frame, seed): a repeat would write rows with one key.
    ("ns", [16, 16], "ns repeats 16"),
    ("seeds", [2, 2], "seeds repeats 2"),
    ("ks", [1, 1], "ks repeats 1"),
    ("frames", ["walsh", "walsh"], "frames repeats 'walsh'"),
    ("metrics", ["w1", "w1"], "metrics repeats 'w1'"),
    ("bodies", ["lp-ball(1.5)", "lp-ball(1.50)"], "bodies repeats 'lp-ball(1.5)'"),
])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, key, value, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, key: value}))
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(config), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"margauss: error: {message}"
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["bounds"])
def test_constants_file_with_c_smooth_is_a_usage_error(tmp_path, capsys, command):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"C_tv_multi": 2.0, "c_smooth": 1.0}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--body", "simplex", "--n", "8", "--k", "1", "--frame", "haar",
              "--constants", str(constants)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "margauss: error: unknown constants keys: ['c_smooth']"
    )


def test_distance_checks_the_dimension_before_drawing(capsys, monkeypatch):
    # A draw of many points can take seconds; a ks or tv distance at k = 2 is
    # a usage error however many points are asked for.
    from margauss import stein

    def no_draw(*args, **kwargs):
        raise AssertionError("distance drew its sample before the usage error")

    monkeypatch.setattr(stein, "row_pass", no_draw)
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--metric", "ks", "--body", "product-uniform", "--n", "1024",
              "--k", "2", "--frame", "haar", "--samples", "1000000", "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "margauss: error: ks is a one-dimensional estimator; use k=1"
    )


def test_experiment_skips_failing_rows(tmp_path, capsys, caplog):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16, 64], "ks": [1, 2],
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
        f"skipping row body=product-uniform n={n} k={k} frame=walsh seed=2: "
        "need at least 100 samples, got 50"
        for n in (16, 64) for k in (1, 2)
    ]


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every margauss module that binds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("margauss") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_frame_functionals_once_per_row_and_per_bounds_call(monkeypatch, capsys):
    calls = count_calls(monkeypatch, frames, "frame_functionals")
    # A simplex row's vertex products are computed once, for its PairSpec,
    # and its functionals read them from there.
    vertex_products, products_calls = bodies.SimplexGeometry.vertex_products, []

    def counted(geom, rows):
        products_calls.append(rows.shape)
        return vertex_products(geom, rows)

    monkeypatch.setattr(bodies.SimplexGeometry, "vertex_products", counted)
    config = ExperimentConfig(
        bodies=("product-uniform", "simplex"), ns=(16,), ks=(1, 2), frames=("haar", "walsh"),
        samples=200, seeds=(3,), metrics=("w1",),
    )
    assert len(run_experiment(config)) == len(calls) == 8
    assert len(products_calls) == 4  # the 4 simplex rows
    calls.clear()
    products_calls.clear()
    code, out = run_cli(capsys, "bounds", "--body", "simplex", "--n", "64", "--k", "1",
                        "--frame", "haar")
    assert code == 0 and len(out.splitlines()) == 2  # thm2 and thm3
    assert len(calls) == 1 and len(products_calls) == 1


def run_under_address_limit(
    code: str, limit_gb: float, blas_threads: int = 1
) -> subprocess.CompletedProcess:
    """Run `code` in a child Python with RLIMIT_AS = limit_gb GiB and that many BLAS threads."""
    return run_child((
        "import resource, sys\n"
        f"limit = int({limit_gb} * 2**30)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from margauss.cli import main\n"
    ) + code, blas_threads)


def run_child(code: str, blas_threads: int = 1) -> subprocess.CompletedProcess:
    """Run `code` in a fresh Python that imports this margauss, without MG_SEED."""
    src = str(Path(margauss.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "MG_SEED"}
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)


# Child code: `experiment(config, out)` writes a config's CSV through the library,
# which keeps the child's BLAS thread count (`main` holds it at one), and prints
# that count.
LIBRARY_EXPERIMENT = (
    "from margauss.core import _openblas_threads\n"
    "from margauss.harness import ExperimentConfig, emit_csv, run_experiment\n"
    "def experiment(config, out):\n"
    "    api = _openblas_threads()\n"
    "    print('blas_threads', api[0]() if api else None)\n"
    "    emit_csv(run_experiment(ExperimentConfig.from_json(config)), out)\n"
)


def ran_at_blas_threads(result: subprocess.CompletedProcess, blas_threads: int) -> bool:
    """Whether every `experiment` call in the child ran at that many OpenBLAS threads
    (OpenBLAS starts no more threads than there are CPUs)."""
    expected = f"blas_threads {min(blas_threads, core._cores())}"
    seen = {line for line in result.stdout.splitlines() if line.startswith("blas_threads ")}
    return bool(seen) and seen <= {expected, "blas_threads None"}


def main_in_one_process(*argvs) -> list:
    """[exit code, stdout, stderr] of `main` on each argv in turn, in one fresh process."""
    result = run_child(
        "import contextlib, io, json\n"
        "from margauss.cli import main\n"
        "calls = []\n"
        f"for argv in {[list(argv) for argv in argvs]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    calls.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(calls))\n"
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


def test_main_calls_in_one_process_print_what_fresh_processes_print():
    # main builds its parser once per process; a usage error must leave it as
    # fresh for the calls after it.
    argvs = [
        ["verify", "pair", "--body", "simplex", "--n", "8", "--k", "2", "--frame", "nope"],
        ["verify", "pair", "--body", "simplex", "--n", "16", "--k", "2", "--frame", "haar",
         "--samples", "20"],
        ["bounds", "--body", "simplex", "--n", "16", "--k", "1", "--frame", "haar"],
    ]
    together = main_in_one_process(*argvs)
    assert together == [main_in_one_process(argv)[0] for argv in argvs]
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert "invalid choice: 'nope'" in together[0][2] and "PASS" in together[1][1]
    assert build_parser() is build_parser()


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


def test_verify_pair_draws_in_tiles_within_address_space_limit():
    # One draw of 1.4e5 points at n = 1024 is 1.15 GB; verify pair draws and
    # checks a tile of points at a time.
    result = run_under_address_limit(
        "sys.exit(main(['verify', 'pair', '--body', 'product-uniform', '--n', '1024',\n"
        "               '--k', '1', '--frame', 'walsh', '--samples', '140000', '--seed', '1']))\n",
        1.0,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "PASS (tolerance 1e-10, 140000 samples)" in result.stdout


def test_distance_draws_in_chunks_within_address_space_limit():
    # One draw of 3e5 points at n = 1024 is 2.4 GB; `distance` samples through
    # the tiled row pass and needs a few MB beyond W.
    result = run_under_address_limit(
        "sys.exit(main(['distance', '--metric', 'w1', '--body', 'product-uniform',\n"
        "               '--n', '1024', '--k', '1', '--frame', 'walsh',\n"
        "               '--samples', '300000', '--seed', '1']))\n",
        1.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("w1-1d,") and ",300000,1" in result.stdout


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_sweep_row_peak_memory_stays_small(tmp_path):
    # The row pass keeps one tile of points, W and four (N,) arrays of pair
    # terms and indices: about 6 MB at N = 1.5e5, k = 1. VmHWM is the child's
    # own high-water mark; ru_maxrss would inherit the parent's across exec.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [1024], "ks": [1], "frames": ["walsh"],
        "samples": 150_000, "seeds": [1], "metrics": ["w1"],
    }))
    out = tmp_path / "rows.csv"
    result = run_under_address_limit(
        "def vm_hwm_mb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        line = next(line for line in fh if line.startswith('VmHWM:'))\n"
        "    return int(line.split()[1]) / 1024\n"
        "before = vm_hwm_mb()\n"
        f"assert main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        "print(f'rise={vm_hwm_mb() - before:.1f}')\n",
        2.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    rise = float(result.stdout.splitlines()[-1].removeprefix("rise="))
    assert rise < 40.0
    assert read_result_csv(out)[0].bound_d1_cor is not None


def test_smoothing_wide_kernel_within_address_space_limit():
    # At t = 1e4 a kernel of +-12 t holds 2.4e8 points, 1.79 GiB; mode="same"
    # reads no offset beyond the grid's 24001 points, so the kernel stops there.
    # The smoothed mass then leaves the grid: a usage error, not a MemoryError.
    result = run_under_address_limit(
        "sys.exit(main(['smoothing', '--density', 'uniform', '--t', '1e4']))\n", 1.0
    )
    assert result.returncode == 2, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("margauss: error: density integrates to")


def test_sliced_w1_within_address_space_limit():
    # The 64 sliced projections of 2e6 points are a 977 MiB array if formed at
    # once; w1_sliced projects four directions at a time and needs about 200 MB.
    result = run_under_address_limit(
        "sys.exit(main(['distance', '--metric', 'w1', '--body', 'product-gaussian',\n"
        "               '--n', '16', '--k', '2', '--frame', 'haar',\n"
        "               '--samples', '2000000', '--seed', '1']))\n",
        1.0,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("w1-sliced,") and ",2000000,2" in result.stdout


def test_simplex_wide_frame_pair_terms_within_address_space_limit(tmp_path):
    # At k = n = 16 the per-draw edge sums, (k*k) = 256 wide, outgrow gamma
    # (n + 1 = 17 wide); a chunk sized by n + 1 alone needs about 600 MiB per
    # temporary at N = 3e5 and fails in 1.5 GB. The row raises its peak RSS by
    # about 50 MB.
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


def test_experiment_skips_a_group_it_cannot_allocate(tmp_path):
    # At n = k = 1024 the products alpha_i * alpha_j of a row, (k*k, n), take
    # 8 GiB: they cannot be allocated in 3 GiB, so that row is skipped as a
    # ValueError would skip it, before the group's shared pass, and the sweep
    # still writes its n = 16 row and the n = 1024, k = 1 row of that group.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16, 1024], "ks": [1, 1024],
        "frames": ["coordinate"], "samples": 10_000, "seeds": [1], "metrics": [],
    }))
    out = tmp_path / "rows.csv"
    result = run_under_address_limit(
        f"sys.exit(main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]))\n",
        3.0,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    skips = [line.removeprefix("WARNING margauss.harness: ")
             for line in result.stderr.splitlines() if "skipping row" in line]
    assert skips[0] == ("skipping row body=product-uniform n=16 k=1024 frame=coordinate seed=1: "
                        "need 1 <= k <= n, got k=1024, n=16")
    assert len(skips) == 2
    reason = "skipping row body=product-uniform n=1024 k=1024 frame=coordinate seed=1: "
    assert skips[1].startswith(reason + "Unable to allocate 8.00 GiB")
    rows = read_result_csv(out)
    assert [(row.n, row.k) for row in rows] == [(16, 1), (1024, 1)]
    assert all(row.bound_d1_cor is not None for row in rows)


def test_product_wide_frame_pair_terms_within_address_space_limit(tmp_path):
    # At k = n = 64 the pair-term sums are k*k = 4096 wide; a chunk sized by n
    # alone asks for a (100000, 4096) array, 3.05 GiB, at N = 1e5.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [64], "ks": [64], "frames": ["haar"],
        "samples": 100_000, "seeds": [1], "metrics": [],
    }))
    out = tmp_path / "rows.csv"
    result = run_under_address_limit(
        f"sys.exit(main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]))\n",
        2.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    rows = read_result_csv(out)
    assert len(rows) == 1 and rows[0].bound_d1_cor is not None


def test_cli_runs_on_numpy_alone(tmp_path):
    # Start-up cost: importing margauss loads no scipy module, and neither do
    # these commands. scipy.special is loaded only by an lp-ball row (for
    # gammaln); scipy.stats, scipy.integrate, scipy.optimize and scipy.signal
    # only inside the functions that use them, which no command here calls.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform", "simplex"], "ns": [16], "ks": [1, 2],
        "frames": ["haar"], "samples": 10_000, "seeds": [1], "metrics": ["w1", "ks", "tv"],
    }))
    lp_config = tmp_path / "lp.json"
    lp_config.write_text(json.dumps({
        "bodies": ["lp-ball(1.5)"], "ns": [16], "ks": [1], "frames": ["haar"],
        "samples": 10_000, "seeds": [1], "metrics": ["w1"],
    }))
    out, lp_out = tmp_path / "rows.csv", tmp_path / "lp.csv"
    result = run_under_address_limit(
        "def scipy_loaded(stage):\n"
        "    print(stage, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:5])\n"
        "scipy_loaded('import:')\n"
        f"assert main(['experiment', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        "assert main(['verify', 'pair', '--body', 'simplex', '--n', '16', '--k', '2',\n"
        "             '--frame', 'haar', '--samples', '5', '--seed', '1']) == 0\n"
        "for metric, k in (('w1', '1'), ('w1', '2'), ('ks', '1'), ('tv', '1')):\n"
        "    assert main(['distance', '--metric', metric, '--body', 'product-uniform',\n"
        "                 '--n', '16', '--k', k, '--frame', 'haar', '--samples', '2000',\n"
        "                 '--seed', '1']) == 0\n"
        "scipy_loaded('commands:')\n"
        f"assert main(['experiment', '--config', {str(lp_config)!r},\n"
        f"             '--out', {str(lp_out)!r}]) == 0\n"
        "named = ('scipy.special', 'scipy.stats', 'scipy.integrate', 'scipy.optimize',\n"
        "         'scipy.signal')\n"
        "print('lp-ball:', [name for name in named if name in sys.modules])\n",
        2.5,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[0] == "import: []"
    assert "commands: []" in result.stdout.splitlines()
    assert result.stdout.splitlines()[-1] == "lp-ball: ['scipy.special']"
    assert len(read_result_csv(out)) == 4 and len(read_result_csv(lp_out)) == 1


def test_row_workers_write_the_bytes_of_one_worker(tmp_path):
    # Each (body, n, seed) group holds the k = 1 and k = 2 rows, which share one
    # draw, and the two seeds interleave the groups' rows in sort order. Every
    # group splits its blocks, and each k = 2 row its sliced W1 directions, over
    # the CPUs. At one and at two BLAS threads, a library run patched to one
    # core (no split) must write the bytes of a run at the default.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform", "product-gaussian", "lp-ball(1.5)", "simplex"],
        "ns": [16, 256], "ks": [1, 2], "frames": ["haar"], "samples": 10_000, "seeds": [4, 5],
        "metrics": ["w1", "ks", "tv"],
    }))
    for blas_threads in (1, 2):
        outs = [tmp_path / f"rows{blas_threads}-{cores}.csv" for cores in ("default", "one")]
        result = run_under_address_limit(
            LIBRARY_EXPERIMENT + "import margauss.core\n"
            f"for out in {[str(out) for out in outs]!r}:\n"
            "    if out.endswith('-one.csv'):\n"
            "        margauss.core._cores = lambda: 1\n"
            f"    experiment({str(config)!r}, out)\n",
            4.0,
            blas_threads=blas_threads,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert ran_at_blas_threads(result, blas_threads), result.stdout
        assert len(read_result_csv(outs[0])) == 32
        assert outs[1].read_bytes() == outs[0].read_bytes()


def test_csv_does_not_depend_on_blas_threads(tmp_path):
    # A threaded OpenBLAS matrix-vector product splits its sums between
    # threads and rounds them differently. The simplex's vertex products
    # alpha = theta V^T, which every simplex value reads, are computed outside
    # the BLAS, so a library run at two BLAS threads writes the bytes of one at
    # one. The k = 2 and 3 rows check the sliced W1 projections too.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["simplex", "lp-ball(1.5)"], "ns": [1024], "ks": [1, 2, 3],
        "frames": ["haar", "walsh"], "samples": 30_000, "seeds": [5], "metrics": ["w1", "ks", "tv"],
    }))
    outs = [tmp_path / f"rows{blas_threads}.csv" for blas_threads in (1, 2)]
    for blas_threads, out in zip((1, 2), outs):
        result = run_under_address_limit(
            LIBRARY_EXPERIMENT + f"experiment({str(config)!r}, {str(out)!r})\n",
            2.5,
            blas_threads=blas_threads,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert ran_at_blas_threads(result, blas_threads), result.stdout
    rows = read_result_csv(outs[0])
    assert sorted({row.k for row in rows}) == [1, 2, 3] and len(rows) == 12
    assert all(row.emp_w1 is not None for row in rows)
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_split_row_pass_bytes_do_not_depend_on_threads(tmp_path):
    # Groups run their blocks on one thread per CPU, and OpenBLAS (itself at
    # two threads here, in a library run) is then called from two threads at
    # once. Each group's pass serves two ks and two frames. Two runs and a run
    # patched to one worker must write the same bytes.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-uniform", "product-laplace"], "ns": [256, 1024], "ks": [1, 2],
        "frames": ["haar", "walsh"], "samples": 30_000, "seeds": [3], "metrics": ["w1"],
    }))
    outs = [tmp_path / f"rows{i}.csv" for i in range(3)]
    result = run_under_address_limit(
        LIBRARY_EXPERIMENT + "import margauss.core\n"
        f"for out in {[str(out) for out in outs]!r}:\n"
        "    if out.endswith('rows2.csv'):\n"
        "        margauss.core._cores = lambda: 1\n"
        f"    experiment({str(config)!r}, out)\n",
        4.0,
        blas_threads=2,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert ran_at_blas_threads(result, 2), result.stdout
    first = outs[0].read_bytes()
    assert len(read_result_csv(outs[0])) == 16
    assert outs[1].read_bytes() == first
    assert outs[2].read_bytes() == first


def small_experiment(tmp_path) -> list[str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bodies": ["product-gaussian", "simplex"], "ns": [16], "ks": [1, 2], "frames": ["haar"],
        "samples": 4_000, "seeds": [3], "metrics": ["w1", "ks"],
    }))
    return ["experiment", "--config", str(config), "--out", str(tmp_path / "rows.csv")]


def test_main_runs_at_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch, capsys):
    api = core._openblas_threads()
    if api is None:
        pytest.skip("numpy loaded no OpenBLAS whose thread count can be set")
    get, put = api
    seen, real_run_experiment = [], harness.run_experiment

    def counting(*args, **kwargs):
        seen.append(get())
        return real_run_experiment(*args, **kwargs)

    def failing(*args, **kwargs):
        seen.append(get())
        raise RuntimeError("failed inside the command")

    original = get()
    try:
        put(2)
        monkeypatch.setattr(harness, "run_experiment", counting)
        assert run_cli(capsys, *small_experiment(tmp_path))[0] == 0
        assert get() == 2  # restored after a return
        monkeypatch.setattr(harness, "run_experiment", failing)
        with pytest.raises(RuntimeError, match="inside the command"):
            main(small_experiment(tmp_path))
        assert get() == 2  # and after a raise
    finally:
        put(original)
    assert seen == [1, 1]


def test_main_without_openblas_writes_the_same_bytes(tmp_path, monkeypatch, capsys):
    argv = small_experiment(tmp_path)
    assert run_cli(capsys, *argv)[0] == 0
    capped = Path(argv[-1]).read_bytes()
    monkeypatch.setattr(core, "_openblas_threads", lambda: None)
    assert run_cli(capsys, *argv)[0] == 0
    assert Path(argv[-1]).read_bytes() == capped and len(read_result_csv(argv[-1])) == 4
