import json
import logging
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from margauss import bodies, core, harness
from margauss.bodies import BodySpec
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
from margauss.stein import PairSpec, corollary_bounds, estimate_pair_terms, row_pass


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
    assert any("walsh frame needs k <= m where m = 64" in rec.getMessage()
               for rec in caplog.records)


def test_row_workers_log_in_row_order(monkeypatch, caplog):
    # Valid rows, rows whose Walsh frame cannot be built (k = 80 > 64), rows
    # without pair terms (samples < 10^4), and ks and tv skipped at k = 2. The
    # two seeds interleave the rows of the four (body, n, seed) groups.
    config = small_config(ns=(16, 100), ks=(1, 2, 80), samples=5_000, seeds=(1, 2),
                          metrics=("w1", "ks", "tv"))
    group_task = harness._group_task
    threads = set()

    def record_thread(config, measure_runtime, group):
        threads.add(threading.current_thread() is threading.main_thread())
        return group_task(config, measure_runtime, group)

    monkeypatch.setattr(harness, "_group_task", record_thread)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(core, "_cores", lambda: cores)
        threads.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            rows = run_experiment(config)
        records = [(rec.name, rec.levelno, rec.getMessage()) for rec in caplog.records]
        runs.append((rows, records, threads.copy()))
    (rows, records, on_main), (rows2, records2, on_main2) = runs
    assert on_main == {True} and on_main2 == {True}  # groups run in turn at any core count
    assert rows2 == rows and len(rows) == 8
    assert [(r.n, r.k, r.seed) for r in rows] == [
        (n, k, seed) for n in (16, 100) for k in (1, 2) for seed in (1, 2)
    ]
    assert records2 == records
    messages = [message for _, _, message in records]
    assert len(messages) == 20
    semi = "skipping semi-empirical bounds for body=product-uniform n=16 k=%d: samples=5000 < 10^4"
    one_d = "skipping %s for k=2: %s is a one-dimensional estimator; use k=1"
    assert messages[:8] == [semi % 1, semi % 1, semi % 2, one_d % ("ks", "ks"),
                            one_d % ("tv", "tv"), semi % 2, one_d % ("ks", "ks"),
                            one_d % ("tv", "tv")]
    for seed, message in zip((1, 2), messages[8:10]):
        assert message.startswith(
            f"skipping row body=product-uniform n=16 k=80 frame=walsh seed={seed}: "
            "walsh frame needs k <= m where m = 16 "
        )


def fail_row_1(monkeypatch, error):
    """Split passes over two cores and make `_compute_row` raise `error` for row 1, after
    its group's shared pass."""
    original = harness._compute_row

    def failing(config, idx, *args):
        if idx == 1:
            raise error
        return original(config, idx, *args)

    monkeypatch.setattr(core, "_cores", lambda: 2)
    monkeypatch.setattr(harness, "_compute_row", failing)


def test_row_worker_error_reaches_the_caller(monkeypatch):
    # Row 1 shares its group and pass with row 0; the error passes through the
    # group's per-row ValueError handling to the caller.
    fail_row_1(monkeypatch, RuntimeError("row failed"))
    with pytest.raises(RuntimeError, match="row failed"):
        run_experiment(small_config(ks=(1, 2), metrics=()))


def test_row_worker_value_error_skips_its_row_alone(monkeypatch, caplog):
    # Rows 0 and 1 (k = 1 and 2 at n = 16) share one group and one pass.
    config = small_config(ks=(1, 2), metrics=("w1",))
    expected = run_experiment(config)
    fail_row_1(monkeypatch, ValueError("bad row"))
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert rows == expected[:1] + expected[2:]
    assert [rec.getMessage() for rec in caplog.records] == [
        "skipping row body=product-uniform n=16 k=2 frame=walsh seed=1: bad row"
    ]


def test_failing_frame_or_metric_skips_its_row_alone(monkeypatch, caplog):
    # One group of six rows: the 'nope' frame cannot be built, and the metric
    # of the k = 2 rows (w1_sliced) is made to fail.
    config = small_config(ns=(16,), ks=(1, 2), frames=("haar", "nope", "walsh"),
                          samples=10_000, metrics=("w1",))
    expected = run_experiment(config)
    assert [(r.k, r.frame) for r in expected] == [
        (k, frame) for k in (1, 2) for frame in ("haar", "walsh")
    ]

    def fail(*args):
        raise ValueError("metric failed")

    monkeypatch.setattr(harness, "w1_sliced", fail)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert rows == expected[:2]
    assert all(r.emp_w1 is not None and r.bound_d1_cor is not None for r in rows)
    nope = "unknown frame kind 'nope'"
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping row body=product-uniform n=16 k={k} frame={frame} seed=1: {reason}"
        for k, frame, reason in [(1, "nope", nope), (2, "haar", "metric failed"),
                                 (2, "nope", nope), (2, "walsh", "metric failed")]
    ]


def test_failing_shared_pass_skips_its_group_alone(monkeypatch, caplog):
    # Groups (n = 16) and (n = 64), two rows each; the pass of the n = 64 group fails.
    config = small_config(ns=(16, 64), ks=(1, 2), metrics=("w1",))
    expected = run_experiment(config)
    group_pass = harness.group_pass

    def fail_at_64(specs, *args):
        if specs[0].n == 64:
            raise ValueError("pass failed")
        return group_pass(specs, *args)

    monkeypatch.setattr(harness, "group_pass", fail_at_64)
    with caplog.at_level(logging.WARNING):
        rows = run_experiment(config)
    assert rows == expected[:2]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"skipping row body=product-uniform n=64 k={k} frame=walsh seed=1: pass failed"
        for k in (1, 2)
    ]


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


def test_metrics_sample_stitched_across_chunks():
    n, count = 1024, 30_000
    body = BodySpec("product-uniform", n)
    chunk = 95 * body.block
    row = run_experiment(small_config(ns=(n,), samples=count))[0]
    # Replay the row's points stream in three pieces of whole 128-point blocks,
    # which cut across the ranges the row pass splits between threads; the
    # reflection indices come from another stream, so the points stream holds
    # points alone.
    stream = substream(1, 2)
    parts = []
    for start in range(0, count, chunk):
        for _, pts in bodies.blocks(body, stream, start, min(start + chunk, count)):
            parts.append(project(walsh_frame(n, 1), pts))
    full = w1_1d(np.concatenate(parts)[:, 0])
    assert row.N == count
    assert row.emp_w1 == pytest.approx(full.value, abs=1e-12)


@pytest.mark.parametrize("body,n,ks,frames", [
    pytest.param("product-uniform", 64, (1,), ("walsh",), id="product-uniform-64-1-walsh"),
    pytest.param("simplex", 16, (2,), ("haar",), id="simplex-16-2-haar"),
    # One group of four rows: 2 ks x 2 frames share one draw.
    pytest.param("product-uniform", 64, (1, 2), ("haar", "walsh"), id="product-uniform-64-group"),
    pytest.param("simplex", 16, (1, 2), ("haar", "walsh"), id="simplex-16-group"),
])
def test_row_draws_each_body_element_once(body, n, ks, frames, monkeypatch):
    drawn = []
    draw = bodies._draw_block

    def counting(spec, stream, out):
        draw(spec, stream, out)
        drawn.append(len(out) * n)  # gamma has n+1 vertex coordinates per n-dimensional point

    # `bodies.blocks` draws every block of a pass through this one.
    monkeypatch.setattr(bodies, "_draw_block", counting)
    count = 20_000
    config = small_config(bodies=(body,), ns=(n,), ks=ks, frames=frames, samples=count)
    rows = run_experiment(config)
    assert len(rows) == len(ks) * len(frames)
    assert all(row.emp_w1 is not None and row.bound_d1_cor is not None for row in rows)
    block = BodySpec(body, n).block  # the last block is drawn whole
    assert sum(drawn) == -(-count // block) * block * n


@pytest.mark.parametrize(
    "body", ["product-uniform", "product-gaussian", "product-laplace", "lp-ball(1.5)", "simplex"]
)
def test_rows_do_not_depend_on_cores_or_group_makeup(body, monkeypatch, tmp_path):
    # A row is a function of its body, frame, N and streams alone. N = 3e4
    # spans four blocks at n = 16, which 1, 2 and 3 cores split differently;
    # and a k = 5 row, whose k*k = 25 sums outgrow a point's coordinates, may
    # join the group of the k = 1 rows (rows 0 and 1 either way). The k = 5
    # rows' sliced W1 splits its directions over the cores too.
    config = small_config(bodies=(body,), ns=(16,), frames=("haar", "walsh"), samples=30_000,
                          metrics=("w1", "ks", "tv"))
    outs, sliced = [], []
    for cores in (1, 2, 3):
        monkeypatch.setattr(core, "_cores", lambda: cores)
        outs.append(tmp_path / f"cores{cores}.csv")
        emit_csv(run_experiment(config), outs[-1])
        wider = run_experiment(replace(config, ks=(1, 5)))
        outs.append(tmp_path / f"wider{cores}.csv")
        emit_csv([row for row in wider if row.k == 1], outs[-1])
        sliced.append(tmp_path / f"sliced{cores}.csv")
        emit_csv([row for row in wider if row.k == 5], sliced[-1])
    assert len(read_result_csv(outs[0])) == 2
    for out in outs[1:]:
        assert out.read_bytes() == outs[0].read_bytes()
    assert [row.emp_w1 is not None for row in read_result_csv(sliced[0])] == [True, True]
    for out in sliced[1:]:
        assert out.read_bytes() == sliced[0].read_bytes()


def test_groups_run_in_turn(monkeypatch):
    # Four groups (one per seed) of 16 blocks each at n = 1024, on two cores:
    # each group's pass splits its blocks over both, and no other group's
    # blocks are drawn meanwhile.
    monkeypatch.setattr(core, "_cores", lambda: 2)
    draw_block = bodies._draw_block
    lock = threading.Lock()
    in_flight, peak = [0], [0]

    def counted(*args):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        try:
            time.sleep(0.005)  # long enough for the draws of other threads to overlap
            draw_block(*args)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(bodies, "_draw_block", counted)
    rows = run_experiment(small_config(ns=(1024,), samples=2_000, seeds=(1, 2, 3, 4)))
    assert len(rows) == 4
    assert peak[0] == core._cores()


@pytest.mark.parametrize("body", ["product-uniform", "product-laplace", "simplex"])
def test_each_group_row_matches_a_pass_of_its_own(body, monkeypatch):
    # Each row of a (body, n, seed) group gets the values of a one-spec pass over
    # the points stream of the group's first row g and its own indices stream.
    count, n = 10_000, 16
    config = small_config(bodies=(body,), ns=(n,), ks=(1, 2), frames=("haar", "walsh"),
                          samples=count, seeds=(3, 4))
    seen = []
    compute_row = harness._compute_row

    def record(config, idx, body, n, k, frame, seed, notes, spec, w, stats):
        seen.append((idx, k, frame, seed, spec, w, stats))
        return compute_row(config, idx, body, n, k, frame, seed, notes, spec, w, stats)

    monkeypatch.setattr(harness, "_compute_row", record)
    rows = run_experiment(config)
    assert len(seen) == len(rows) == 8
    first = {seed: min(idx for idx, *_, s, _, _, _ in seen if s == seed) for seed in (3, 4)}
    assert first == {3: 0, 4: 1}  # the two groups interleave in sort order
    for idx, k, frame, seed, spec, w, stats in seen:
        own_frame = build_frame(frame, n, k, harness.row_stream(seed, idx, "frame"))
        assert np.array_equal(spec.frame.rows, own_frame.rows)
        w1, stats1 = row_pass(spec, count, harness.row_stream(seed, first[seed], "points"),
                              harness.row_stream(seed, idx, "indices"))
        assert np.array_equal(w, w1)
        assert (stats.term_E, stats.term_M3, stats.condvar_proxy) == (
            stats1.term_E, stats1.term_M3, stats1.condvar_proxy)


def test_row_pair_bounds_match_estimate_pair_terms():
    seed, count = 7, 20_000
    config = small_config(ns=(16, 64), ks=(2,), frames=("haar",), samples=count, seeds=(seed,))
    row = run_experiment(config)[1]
    idx, n = 1, 64  # second combination in sort order
    spec = PairSpec(
        body=BodySpec("product-uniform", n),
        frame=build_frame("haar", n, 2, substream(seed, 4 * idx)),
    )
    stats = estimate_pair_terms(
        spec, count, substream(seed, 4 * idx + 2), substream(seed, 4 * idx + 1)
    )
    cor = corollary_bounds(stats)[0]
    assert cor.source == "cor-wass-tv"
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
