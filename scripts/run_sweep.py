"""Run the flat-frame decay sweep and fit the empirical W1 decay rate.

The quantile W1 estimator has a sampling floor of about 1.28/sqrt(N); at the
default N = 10^5 that floor (~4e-3) masks the true decay of the projected
uniform body, which is O(1/n) (slope -1) because the summands are symmetric.
At N = 2e6 the floor is 9.1e-4: it clears the points at n = 16 and 64 but
still flattens those at n >= 256, so the fit gives a slope near -0.4, faster
than n^{-1/4} but not the true rate. Each row is one chunked sampling pass
whose draws serve both the metrics and the pair terms, so that run needs
only a few hundred MB.
"""

import argparse
import sys

from margauss.core import resolve_seed
from margauss.harness import ExperimentConfig, emit_csv, fit_decay, run_experiment
from margauss.metrics import w1_noise_floor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ns", type=int, nargs="+", default=[16, 64, 256, 1024])
    parser.add_argument("--body", default="product-uniform")
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        bodies=(args.body,),
        ns=tuple(args.ns),
        ks=(1,),
        frames=("walsh",),
        samples=args.samples,
        seeds=(resolve_seed(args.seed),),
        metrics=("w1",),
    )
    rows = run_experiment(config)
    print(f"estimator noise floor at N={args.samples}: {w1_noise_floor(args.samples):.2e}")
    for row in rows:
        print(
            f"n={row.n:5d}  emp_w1={row.emp_w1:.5f} (se {row.emp_w1_se:.1e})  "
            f"thm_d1={row.bound_d1_thm:.3f}  cor_d1={row.bound_d1_cor:.3f}"
        )
    fit = fit_decay(rows)
    print(f"log-log fit: slope={fit.slope:.3f}  intercept={fit.intercept:.3f}  r2={fit.r2:.3f}")
    if args.out:
        emit_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
