"""Deterministic randomness, the split of work over the CPUs, and the
configurable universal constants.

`core` sets both thread counts of a command: `_split` runs one thread per
CPU, and `one_blas_thread` holds numpy's OpenBLAS at one thread while the
command runs, so the two levels do not multiply.

Random streams are value-like: a (seed, stream_id) pair fully determines a
draw sequence, and distinct stream ids give statistically independent
substreams. Parallel replicates can therefore be generated on separate
streams and merged deterministically in stream_id order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import os
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
import numpy.random  # noqa: F401  loaded at import, not lazily on the first draw

ENV_SEED = "MG_SEED"
BATCHES = 20  # the equal-size batches of every batched standard error


def check_seed(seed) -> int:
    """`seed` as an int; a seed is an integer in [0, 2^64), so no two seeds alias."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return int(seed)


def resolve_seed(seed: int) -> int:
    """Return the configured seed, unless the MG_SEED env var overrides it."""
    raw = os.environ.get(ENV_SEED)
    if raw is not None:
        try:
            seed = int(raw, 10)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be a decimal integer, got {raw!r}") from None
    return check_seed(seed)


def resolve_seeds(seeds) -> tuple[int, ...]:
    """Resolve a configured seed list; an MG_SEED override collapses it to one."""
    if os.environ.get(ENV_SEED) is not None:
        return (resolve_seed(0),)
    return tuple(int(s) for s in seeds)


@dataclass(frozen=True)
class RandomStream:
    """Handle for one reproducible draw sequence.

    Identical (seed, stream_id) pairs replay the identical sequence. The
    underlying generator is created lazily; a stream instance is consumed
    sequentially and must be used by one thread at a time. Each block
    (`block`) is a stream of its own, which any thread may build and use.
    """

    seed: int
    stream_id: int = 0
    blocks: tuple[int, ...] = ()  # the path of `block` calls that made this stream

    @cached_property
    def _rng(self) -> np.random.Generator:
        root = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.blocks))
        return np.random.default_rng(root)

    # With `out`, the draw fills that float64 array in place and returns it;
    # consecutive draws into pieces of an array equal one draw of the whole.
    def uniform(self, size=None, out=None):
        return self._rng.random(size, out=out)

    def normal(self, size=None, out=None):
        return self._rng.standard_normal(size, out=out)

    def exponential(self, size=None, out=None):
        return self._rng.standard_exponential(size, out=out)

    def gamma(self, shape: float, size=None):
        return self._rng.standard_gamma(shape, size)

    def integers(self, low: int, high: int, size=None):
        return self._rng.integers(low, high, size=size)

    def block(self, b: int) -> "RandomStream":
        """Block b's stream, ``SeedSequence(seed, spawn_key=(stream_id, b))``: a function of
        (seed, stream_id, b) alone, built without reading this stream's generator."""
        return RandomStream(self.seed, self.stream_id, (*self.blocks, int(b)))


def substream(seed: int, stream_id: int) -> RandomStream:
    """Split-by-label stream constructor."""
    if not isinstance(stream_id, (int, np.integer)):
        raise ValueError(f"stream_id must be an integer, got {stream_id!r}")
    return RandomStream(check_seed(seed), int(stream_id))


def _cores() -> int:
    """CPUs this process may run on: the most threads `_split` runs at once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(count: int, block: int, run) -> list:
    """`run(lo, hi)` on contiguous ranges of whole blocks of rows 0..count, in range order.

    min(cores, blocks) ranges, the first on the calling thread. The one rule
    by which work is split over the CPUs: a group pass's and `check_pairs`'
    blocks of points, each drawn from its own stream (`RandomStream.block`),
    and `w1_sliced`'s blocks of directions. Each range writes its own part,
    so every value is the one a serial run gives, at any number of threads.
    This is the one level of threads of a command: every command runs it inside
    `one_blas_thread`, so each range's matrix products start no BLAS threads.
    """
    blocks = -(-count // block)
    workers = min(_cores(), blocks)
    bounds = [block * (blocks * i // workers) for i in range(workers)] + [count]
    # The pool starts a thread per submit only: workers - 1 threads.
    with concurrent.futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        return [run(0, bounds[1])] + [future.result() for future in futures]


@cache  # looked up once per process
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and "numpy" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread, then restore its count.

    `_split` already spreads each pass over the cores, so BLAS threads inside
    its ranges only contend with them. Without a known OpenBLAS, does nothing.
    """
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def batch_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of per-batch means and its standard error (BATCHES equal-size batches)."""
    values = np.asarray(values)
    m = (len(values) // BATCHES) * BATCHES
    if m < BATCHES:
        raise ValueError(f"need at least {BATCHES} values, got {len(values)}")
    batch_means = values[:m].reshape(BATCHES, -1).mean(axis=1)
    return float(batch_means.mean()), float(batch_means.std(ddof=1) / np.sqrt(BATCHES))


def batch_var_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of per-batch sample variances and its standard error."""
    values = np.asarray(values)
    m = (len(values) // BATCHES) * BATCHES
    if m < 2 * BATCHES:
        raise ValueError(f"need at least {2 * BATCHES} values, got {len(values)}")
    batch_vars = values[:m].reshape(BATCHES, -1).var(axis=1, ddof=1)
    return float(batch_vars.mean()), float(batch_vars.std(ddof=1) / np.sqrt(BATCHES))


@dataclass(frozen=True)
class ConstantsConfig:
    """The unspecified universal constants of the closed-form bounds.

    All bounds that carry an absolute constant are reported as "C times" the
    computable expression, with C taken from here; defaults are 1.0.
    """

    C_tv_multi: float = 1.0
    C_tv_simplex1d: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                raise ValueError(f"{f.name} must be a strictly positive number, got {value!r}")

    @classmethod
    def from_dict(cls, data) -> "ConstantsConfig":
        """Build from a JSON object, as in a constants file or a config's constants block."""
        if not isinstance(data, dict):
            raise ValueError(f"constants must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown constants keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ConstantsConfig":
        import json

        with open(path) as fh:
            return cls.from_dict(json.load(fh))
