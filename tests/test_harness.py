import json
import logging

import numpy as np
import pytest

from margauss import bodies, harness, stein
from margauss.bodies import BodySpec, sample_body
from margauss.core import substream
from margauss.frames import build_frame, project, walsh_frame
from margauss.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    emit_csv,
    fit_decay,
    read_result_csv,
    run_experiment,
)
from margauss.metrics import w1_1d
from margauss.stein import _CHUNK_BUDGET, PairSpec, corollary_bounds, estimate_pair_terms


def small_config(**overrides):
    base = dict(
        bodies=("product-uniform",),
        ns=(16, 64, 256),
        ks=(1,),
        frames=("walsh",),
        samples=20_000,
        seeds=(1,),
        metrics=("w1",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_row(n, emp, seed=1):
    return ResultRow(
        body="product-uniform", n=n, k=1, frame="walsh", seed=seed, N=1000,
        l4_sum=1.0, simplex_quartic=None, bound_d1_thm=14.0, bound_dtv_thm=1.0,
        bound_d1_cor=None, bound_dtv_cor=None, emp_w1=emp, emp_w1_se=0.001,
        emp_ks=None, emp_tv=None, runtime_ms=None,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError):
        small_config(metrics=("w1", "w3"))
    with pytest.raises(ValueError):
        small_config(samples=0)
    with pytest.raises(ValueError):
        small_config(bodies=())


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "bodies": ["product-uniform"], "ns": [16], "ks": [1], "frames": ["walsh"],
        "samples": 500, "seeds": [3], "metrics": [],
        "constants": {"C_tv_multi": 2.0},
    }))
    config = ExperimentConfig.from_json(path)
    assert config.constants.C_tv_multi == 2.0
    assert config.seeds == (3,)
    bad = tmp_path / "bad.json"
    bad.write_text('{"bodies": ["product-uniform"], "dims": [16]}')
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json(bad)


def test_sweep_rows_and_dominance():
    rows = run_experiment(small_config())
    assert len(rows) == 3
    assert [r.n for r in rows] == [16, 64, 256]
    for row in rows:
        assert row.emp_w1 < row.bound_d1_thm
        assert row.emp_w1 <= row.bound_d1_cor + 3 * row.emp_w1_se
        assert row.bound_d1_cor <= row.bound_d1_thm * (1 + 3 * row.emp_w1_se)
        assert row.runtime_ms is None
    # Decreasing within 3-SE slack.
    for a, b in zip(rows, rows[1:]):
        assert b.emp_w1 <= a.emp_w1 + 3 * (a.emp_w1_se + b.emp_w1_se)


def test_rows_sorted_by_key():
    config = small_config(ns=(64, 16), seeds=(2, 1), metrics=())
    rows = run_experiment(config)
    keys = [(r.body, r.n, r.k, r.frame, r.seed) for r in rows]
    assert keys == sorted(keys)


def test_empty_metrics_gives_bounds_only():
    rows = run_experiment(small_config(ns=(16,), metrics=()))
    row = rows[0]
    assert row.emp_w1 is None and row.emp_ks is None and row.emp_tv is None
    assert row.bound_d1_thm > 0


def test_invalid_combos_skipped_with_log(caplog):
    config = small_config(ns=(100,), ks=(1, 80), metrics=())
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert len(rows) == 1
    assert any("walsh frame supports k <= 64" in rec.getMessage() for rec in caplog.records)


def test_ks_and_tv_only_for_k1(caplog):
    config = small_config(ns=(16,), ks=(2,), metrics=("w1", "ks", "tv"))
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert rows[0].emp_ks is None and rows[0].emp_tv is None
    assert rows[0].emp_w1 is not None


def test_simplex_rows_carry_quartic():
    config = small_config(bodies=("simplex",), ns=(16,), frames=("haar",), metrics=())
    row = run_experiment(config)[0]
    assert row.simplex_quartic is not None and row.simplex_quartic > 0


def test_runtime_cap_logged_and_reflected(caplog):
    config = small_config(ns=(64,), metrics=(), max_row_seconds=1e-5)
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert rows[0].N < 20_000
    assert any("capping samples" in rec.message for rec in caplog.records)


def test_metrics_sample_stitched_across_chunks():
    n, count = 1024, 30_000
    chunk = _CHUNK_BUDGET // n
    assert count > 2 * chunk  # at least three chunks of the row pass
    row = run_experiment(small_config(ns=(n,), samples=count))[0]
    # Replay the row pass on its stream: each chunk draws its points, then its reflection indices.
    stream = substream(1, 2)
    parts = []
    for start in range(0, count, chunk):
        c = min(chunk, count - start)
        pts = sample_body(BodySpec("product-uniform", n), stream, c).points
        parts.append(project(walsh_frame(n, 1), pts))
        stream.integers(0, n, c)
    full = w1_1d(np.concatenate(parts)[:, 0])
    assert row.N == count
    assert row.emp_w1 == pytest.approx(full.value, abs=1e-12)


@pytest.mark.parametrize(
    "body,n,k,frame", [("product-uniform", 64, 1, "walsh"), ("simplex", 16, 2, "haar")]
)
def test_row_draws_each_body_element_once(body, n, k, frame, monkeypatch):
    drawn = []

    def counting(fn, count_of):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            drawn.append(count_of(result))
            return result

        return wrapped

    for module in (harness, stein):
        if hasattr(module, "sample_body"):
            monkeypatch.setattr(
                module, "sample_body", counting(bodies.sample_body, lambda r: r.points.size)
            )
        if hasattr(module, "simplex_vertex_coords"):
            # gamma has n+1 vertex coordinates per n-dimensional point.
            monkeypatch.setattr(
                module,
                "simplex_vertex_coords",
                counting(bodies.simplex_vertex_coords, lambda g: g.shape[0] * n),
            )
    count = 20_000
    config = small_config(bodies=(body,), ns=(n,), ks=(k,), frames=(frame,), samples=count)
    row = run_experiment(config)[0]
    assert row.emp_w1 is not None and row.bound_d1_cor is not None
    assert sum(drawn) == count * n


def test_row_pair_bounds_match_estimate_pair_terms():
    seed, count = 7, 20_000
    config = small_config(ns=(16, 64), ks=(2,), frames=("haar",), samples=count, seeds=(seed,))
    row = run_experiment(config)[1]
    idx, n = 1, 64  # second combination in sort order
    spec = PairSpec(
        body=BodySpec("product-uniform", n),
        frame=build_frame("haar", n, 2, substream(seed, 4 * idx)),
    )
    stats = estimate_pair_terms(spec, count, substream(seed, 4 * idx + 2))
    cor = corollary_bounds(stats, 2, spec.lam)
    assert row.n == n
    assert row.bound_d1_cor == cor.d1_bound
    assert row.bound_dtv_cor == cor.dtv_bound


def test_timing_opt_in():
    rows = run_experiment(small_config(ns=(16,), metrics=()), measure_runtime=True)
    assert rows[0].runtime_ms is not None and rows[0].runtime_ms >= 0


def test_fit_decay_exact_power_law():
    rows = [synthetic_row(n, n**-0.5) for n in (16, 64, 256, 1024)]
    fit = fit_decay(rows)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_decay_constant_rows():
    rows = [synthetic_row(n, 0.25) for n in (16, 64, 256)]
    fit = fit_decay(rows)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_fit_decay_needs_three_points():
    rows = [synthetic_row(n, 0.25) for n in (16, 64)]
    with pytest.raises(ValueError):
        fit_decay(rows)


def test_emit_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_bytes() == (CSV_HEADER + "\n").encode()


def test_emit_round_trip_bit_exact(tmp_path):
    rows = run_experiment(small_config(ns=(16, 64), metrics=("w1", "ks", "tv")))
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    assert read_result_csv(path) == rows


def test_two_runs_byte_identical(tmp_path):
    config = small_config(ns=(16, 64))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(config), p1)
    emit_csv(run_experiment(config), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        read_result_csv(path)
