import numpy as np
import pytest

from margauss.core import (
    ConstantsConfig,
    batch_mean_se,
    batch_var_se,
    resolve_seed,
    resolve_seeds,
    substream,
)


def test_identical_streams_replay():
    a = substream(7, 0).normal(100)
    b = substream(7, 0).normal(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_are_uncorrelated():
    x = substream(7, 0).normal(10_000)
    y = substream(7, 1).normal(10_000)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(10_000) * 3


def test_normal_mean_law_of_large_numbers():
    draws = substream(7, 0).normal(1_000_000)
    assert abs(draws.mean()) < 3e-3


def test_stream_draw_kinds_available():
    s = substream(3, 5)
    assert s.uniform(10).shape == (10,)
    assert s.exponential(10).min() >= 0
    assert s.gamma(2.0, 10).min() >= 0


@pytest.mark.parametrize("draw", ["uniform", "normal", "exponential"])
def test_draws_into_pieces_equal_one_draw(draw):
    whole_stream, tiled_stream = substream(12, 1), substream(12, 1)
    whole = getattr(whole_stream, draw)((10, 7))
    tiled = np.empty((10, 7))
    for lo, hi in ((0, 3), (3, 4), (4, 10)):  # uneven pieces
        getattr(tiled_stream, draw)((hi - lo, 7), out=tiled[lo:hi])
    assert np.array_equal(tiled, whole)
    # Both streams are left in the same state.
    assert np.array_equal(getattr(whole_stream, draw)(5), getattr(tiled_stream, draw)(5))


@pytest.mark.parametrize("offset", [0, 1, 4097, 2**32 + 3])
def test_stream_ahead_starts_offset_doubles_later(offset):
    # The points `offset` blocks ahead are drawn from block(offset), a stream of their own:
    # SeedSequence(seed, spawn_key=(stream_id, offset)), whatever the parent has drawn.
    parent = substream(13, 2)
    first = parent.block(offset).uniform(9)
    root = np.random.SeedSequence(13, spawn_key=(2, offset))
    assert np.array_equal(first, np.random.default_rng(root).random(9))
    # Draws from the parent, before or between, leave every block as it is.
    parent.integers(0, 10, 3)  # leaves a buffered half-output in the generator
    state = parent._rng.bit_generator.state
    assert np.array_equal(parent.block(offset).uniform(9), first)
    assert parent.block(offset) == substream(13, 2).block(offset)
    # Drawing from a block leaves the parent unchanged.
    assert parent._rng.bit_generator.state == state
    # Other blocks, other stream ids and the parent itself draw other values.
    others = [parent.block(offset + 1), substream(13, 3).block(offset), substream(13, 2)]
    if offset:
        others.append(parent.block(offset - 1))
    for other in others:
        assert not np.array_equal(other.uniform(9), first)


def test_substream_rejects_non_integers():
    with pytest.raises(ValueError):
        substream(1.5, 0)
    with pytest.raises(ValueError):
        substream(1, "a")


def test_env_seed_override(monkeypatch):
    monkeypatch.delenv("MG_SEED", raising=False)
    assert resolve_seed(42) == 42
    assert resolve_seeds([1, 2, 3]) == (1, 2, 3)
    monkeypatch.setenv("MG_SEED", "9001")
    assert resolve_seed(42) == 9001
    assert resolve_seeds([1, 2, 3]) == (9001,)


def test_constants_config_defaults_and_validation():
    c = ConstantsConfig()
    assert c.C_tv_multi == c.C_tv_simplex1d == 1.0
    with pytest.raises(ValueError):
        ConstantsConfig(C_tv_multi=0.0)
    with pytest.raises(ValueError):
        ConstantsConfig(C_tv_simplex1d=-1.0)
    with pytest.raises(ValueError, match="C_tv_multi must be a strictly positive number"):
        ConstantsConfig(C_tv_multi="2")


def test_constants_config_from_json(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text('{"C_tv_multi": 2.5}')
    c = ConstantsConfig.from_json(path)
    assert c.C_tv_multi == 2.5 and c.C_tv_simplex1d == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text('{"C_what": 1.0}')
    with pytest.raises(ValueError):
        ConstantsConfig.from_json(bad)
    with pytest.raises(ValueError, match="constants must be a JSON object"):
        ConstantsConfig.from_dict([1.0])


def test_batch_helpers():
    values = substream(1, 0).normal(10_000) + 5.0
    mean, se = batch_mean_se(values)
    assert mean == pytest.approx(values[:10_000].mean(), abs=1e-12)
    assert 0 < se < 0.1
    var, var_se = batch_var_se(values)
    assert abs(var - 1.0) < 3 * var_se + 0.05
    with pytest.raises(ValueError):
        batch_mean_se(np.arange(5))


def test_resolve_seed_rejects_non_decimal_env(monkeypatch):
    monkeypatch.setenv("MG_SEED", "0x1f")
    with pytest.raises(ValueError, match=r"MG_SEED.*'0x1f'"):
        resolve_seed(42)
