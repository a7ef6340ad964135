"""Command-line interface.

Subcommands: frames, sample, verify pair, bounds, smoothing, distance,
experiment. Seeds given on the command line are overridden by the MG_SEED
environment variable when it is set. A subcommand that draws reads the
streams of sweep row 0 (`harness.row_stream`), and `verify pair`, `bounds`
and `distance` work on row 0's PairSpec (`harness.row_spec`). Every draw of
a body, here and in a sweep, goes through one generator of whole blocks, each
from its own stream (`bodies.blocks`), so a point depends only on its stream
and its position there: `sample --count c` writes the points (`bodies.to_points`)
of the first c rows that `verify pair` checks and `distance` and row 0 project.
Each command runs with numpy's OpenBLAS at one thread (`core.one_blas_thread`):
`core._split` spreads its work over the cores.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from dataclasses import astuple, replace

import numpy as np

from . import bodies, frames, gauss, harness, stein
from .core import ConstantsConfig, one_blas_thread, resolve_seed, resolve_seeds
from .harness import row_stream

PAIR_TOLERANCE = 1e-10


def _csv(values) -> str:
    return ",".join(harness._format_cell(v) for v in values)


def _cmd_frames(args) -> int:
    seed = resolve_seed(args.seed)
    frame = frames.build_frame(args.kind, args.n, args.k, row_stream(seed, 0, "frame"))
    fun = frames.frame_functionals(frame)
    print(_csv([frame.kind, frame.n, frame.k, fun.l4_sum, fun.l3_sum]))
    return 0


def _cmd_sample(args) -> int:
    spec = bodies.parse_body_kind(args.body, args.n)
    stream = row_stream(resolve_seed(args.seed), 0, "points")
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    with open(args.out, "w") as fh:  # one block in memory at a time
        for _, block in bodies.blocks(spec, stream, 0, args.count):
            np.savetxt(fh, bodies.to_points(spec, block), fmt="%.17g", delimiter=",")
    return 0


def _row0_spec(args) -> tuple[int, stein.PairSpec]:
    """The resolved seed and row 0's PairSpec of the marginal the arguments name."""
    body = bodies.parse_body_kind(args.body, args.n)
    seed = resolve_seed(args.seed)
    return seed, harness.row_spec(body, 0, args.k, args.frame, seed)


def _cmd_verify_pair(args) -> int:
    seed, pair = _row0_spec(args)
    lin, sec = astuple(stein.check_pairs(pair, args.samples, row_stream(seed, 0, "points")))
    ok = lin < PAIR_TOLERANCE and sec < PAIR_TOLERANCE
    print(f"linearity_residual={lin:.3e}")
    print(f"second_moment_residual={sec:.3e}")
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {PAIR_TOLERANCE:g}, {args.samples} samples)")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    constants = ConstantsConfig.from_json(args.constants) if args.constants else ConstantsConfig()
    _, pair = _row0_spec(args)
    for report in stein.theorem_bounds(pair.functionals, args.k, constants):
        print(_csv([report.source, report.d1_bound, report.dtv_bound, report.d2_bound,
                    *astuple(constants)]))
    return 0


def _cmd_smoothing(args) -> int:
    f = gauss.shipped_density(args.density)
    result = gauss.convolve_l1(f, args.t)
    bound = 2.0 * np.sqrt(2.0) * args.t
    print(_csv([args.density, args.t, result.distance, bound, result.distance / bound]))
    return 0


def _cmd_distance(args) -> int:
    harness.check_dimension(args.metric, args.k)  # before the draw, which can take seconds
    seed, pair = _row0_spec(args)
    w, _ = stein.row_pass(pair, args.samples, row_stream(seed, 0, "points"))
    est = harness.estimate_distance(args.metric, w, row_stream(seed, 0, "directions"))
    print(_csv([est.metric, est.value, est.se_or_bias_note, est.count, est.k]))
    return 0


def _cmd_experiment(args) -> int:
    config = harness.ExperimentConfig.from_json(args.config)
    config = replace(config, seeds=resolve_seeds(config.seeds))
    rows = harness.run_experiment(config, measure_runtime=args.timing)
    harness.emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


@functools.cache  # built once per process: main may be called many times in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margauss",
        description="Gaussian approximation of marginals of symmetric convex bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The marginal that verify pair, bounds and distance work on.
    marginal = argparse.ArgumentParser(add_help=False)
    marginal.add_argument("--body", required=True)
    marginal.add_argument("--n", required=True, type=int)
    marginal.add_argument("--k", required=True, type=int)
    marginal.add_argument("--frame", required=True, choices=frames.BUILD_KINDS)

    p = sub.add_parser("frames", help="print frame functionals as a CSV row")
    p.add_argument("--kind", required=True, choices=frames.BUILD_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_frames)

    p = sub.add_parser("sample", help="write body samples to a CSV file")
    p.add_argument("--body", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="verification subcommands")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)
    vp = verify_sub.add_parser("pair", parents=[marginal],
                               help="check the exchangeable-pair conditional identities")
    vp.add_argument("--samples", type=int, default=100)
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=_cmd_verify_pair)

    p = sub.add_parser("bounds", parents=[marginal], help="print closed-form bound rows")
    p.add_argument("--constants", default=None, help="JSON file overriding the constants")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("smoothing", help="L1 mollification distance versus its bound")
    p.add_argument("--density", required=True, choices=list(gauss.DENSITY_NAMES))
    p.add_argument("--t", required=True, type=float)
    p.set_defaults(func=_cmd_smoothing)

    p = sub.add_parser("distance", parents=[marginal],
                       help="empirical distance of a projected sample to N(0,1)")
    p.add_argument("--metric", required=True, choices=harness.METRIC_CHOICES)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("experiment", help="run a sweep from a config file and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtime_ms (breaks byte-determinism)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a malformed MG_SEED is a usage error, reported before any work
        resolve_seed(0)
    except ValueError as exc:
        parser.error(str(exc))
    try:  # a bad argument value is a usage error too; other exceptions keep their traceback
        with one_blas_thread():
            return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
