"""Run the benchmark alternately on two checkouts and keep every run.

    python scripts/bench_ab.py --before DIR --before-tag TAG --after DIR --after-tag TAG
        [--seed 41]

Each checkout runs its own `perfbench/run.py`, from its root and with
`--trace 0`, on every workload that BENCHMARK.json names and for its
`run_seconds`. Pair i of PAIRS uses seed `--seed` + i on both sides, and the
side that runs first alternates from pair to pair, so the drift of a shared
machine falls on both sides alike. For each side the script writes
`bench/BENCH_<tag>.json` under the working directory: the checkout's commit
and the sha256 of its uncommitted changes to the code the benchmark runs,
the BLAS thread counts its rounds reported, and for each workload the seeds,
every run's metrics, and their medians and quartiles. Each run also records
the CPU seconds its processes took (`cpu_s`, user + system) and the host's
steal seconds while it ran (`steal_s`, from /proc/stat): a run slower with
no more CPU time, or with steal, was slowed by the host, not by the code.
For each workload and metric it compares both medians, the pairs in which
the after side reads lower and higher (a tie counts for neither), the before
side's quartile spread, and a verdict (`verdict`). The after side's file
keeps that table (`compare`) and the before side's tag (`before_tag`); the
script prints it, with each side's medians of `cpu_s` and `steal_s`. It
exits with status 1, after writing both files, if any run reads
`correct: false` or `failed > 0`, and names each such run's workload, side
and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
PAIRS = 10
OUT = "bench"
BENCHED_CODE = ("src", "perfbench")  # what a perfbench round imports and runs


def parse_run(stdout: str) -> dict:
    """One `perfbench/run.py` run: its last-line verdict, metric values and BLAS threads."""
    result = json.loads(stdout.strip().splitlines()[-1])
    threads = sorted({int(t) for t in re.findall(r"blas_threads=(\d+)", stdout)})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "blas_threads": threads,
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        summary[name] = {"median": median, "q1": q1, "q3": q3}
    return summary


def verdict(row: dict, before: list[float], after: list[float], bound: float) -> str:
    """gain, worse, unresolved or flat, for a lower-is-better metric with its relative bound.

    gain: after reads lower in at least 9 of 10 pairs, and the medians differ
    by more than the before side's IQR. worse: the after median exceeds the
    before median by more than the bound. unresolved: not worse, but the
    before IQR exceeds the bound times its median, and not every after run is
    below every before run.
    """
    b, a, iqr = row["before_median"], row["after_median"], row["before_iqr"]
    if 10 * row["after_lower"] >= 9 * row["pairs"] and b - a > iqr:
        return "gain"
    if a > b * (1 + bound):
        return "worse"
    if iqr > bound * b and max(after) >= min(before):
        return "unresolved"
    return "flat"


def compare(before: list[dict], after: list[dict]) -> dict:
    """Per metric: both medians, the pairs where after reads lower and higher, IQR, verdict."""
    table = {}
    summary_before, summary_after = summarize(before), summarize(after)
    for name, b in summary_before.items():
        xs = [run["metrics"][name] for run in before]
        ys = [run["metrics"][name] for run in after]
        row = table[name] = {
            "before_median": b["median"],
            "after_median": summary_after[name]["median"],
            "after_lower": sum(y < x for x, y in zip(xs, ys)),
            "after_higher": sum(y > x for x, y in zip(xs, ys)),
            "pairs": len(before),
            "before_iqr": b["q3"] - b["q1"],
        }
        row["verdict"] = verdict(row, xs, ys, BOUNDS[name])
    return table


def host_medians(runs: dict, workload: str) -> dict:
    """Per side, the medians of the workload's runs' `cpu_s` and `steal_s`."""
    return {side: {key: statistics.median(run[key] for run in workloads[workload])
                   for key in ("cpu_s", "steal_s")}
            for side, workloads in runs.items()}


def failures(runs: dict) -> list[str]:
    """A line for each run, in runs[side][workload], that reads incorrect or failed."""
    return [f"{workload} {side} seed={run['seed']}: correct={run['correct']} "
            f"failed={run['failed']} of {run['attempted']}"
            for side, workloads in runs.items() for workload, rs in workloads.items()
            for run in rs if not run["correct"] or run["failed"] > 0]


def checkout_state(root: str) -> tuple[str | None, str | None]:
    """The checkout's commit and the sha256 of `git diff HEAD` over BENCHED_CODE.

    The hash is None when that code has no uncommitted change, and both are
    None outside git.
    """
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None, None
    diff = git("diff", "HEAD", "--", *BENCHED_CODE).stdout
    return head.stdout.decode().strip(), hashlib.sha256(diff).hexdigest() if diff else None


def host_counters() -> tuple[float, float]:
    """CPU seconds of this process's waited-for children, and the host's steal seconds."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open("/proc/stat") as fh:
        steal = int(fh.readline().split()[8])  # cpu user nice system idle iowait irq softirq steal
    return usage.ru_utime + usage.ru_stime, steal / os.sysconf("SC_CLK_TCK")


def run_perfbench(root: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {root}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="root of the parent checkout")
    parser.add_argument("--before-tag", required=True)
    parser.add_argument("--after", required=True, help="root of the changed checkout")
    parser.add_argument("--after-tag", required=True)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    sides = {"before": (args.before, args.before_tag), "after": (args.after, args.after_tag)}
    runs = {side: {w: [] for w in workloads} for side in sides}
    for workload in workloads:
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                cpu, steal = host_counters()
                run = run_perfbench(sides[side][0], workload, seed)
                cpu_after, steal_after = host_counters()
                run.update(seed=seed, first=side == order[0], cpu_s=cpu_after - cpu,
                           steal_s=steal_after - steal)
                runs[side][workload].append(run)
                print(f"{workload} seed={seed} {side}: {json.dumps(run['metrics'])} "
                      f"cpu_s={run['cpu_s']:.3f} steal_s={run['steal_s']:.3f} "
                      f"correct={run['correct']}", flush=True)

    tables = {w: compare(runs["before"][w], runs["after"][w]) for w in workloads}
    os.makedirs(OUT, exist_ok=True)
    for side, (root, tag) in sides.items():
        commit, diff_sha256 = checkout_state(root)
        record = {
            "tag": tag,
            "commit": commit,
            "uncommitted_diff_sha256": diff_sha256,
            "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                        "python": platform.python_version()},
            "seconds": BENCHMARK["run_seconds"],
            "blas_threads": sorted({t for ws in runs[side].values() for r in ws
                                    for t in r["blas_threads"]}),
            "workloads": {
                w: {"seeds": [r["seed"] for r in rs], "runs": rs, "summary": summarize(rs)}
                for w, rs in runs[side].items()
            },
        }
        if side == "after":
            record.update(before_tag=args.before_tag, compare=tables)
        path = os.path.join(OUT, f"BENCH_{tag}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"wrote {path}")

    for workload in workloads:
        for name, row in tables[workload].items():
            print(f"{workload} {name}: {row['before_median']:.4g} -> {row['after_median']:.4g}, "
                  f"after lower in {row['after_lower']}/{row['pairs']} pairs, "
                  f"higher in {row['after_higher']}, before IQR {row['before_iqr']:.3g}: "
                  f"{row['verdict']}")
        host = host_medians(runs, workload)
        print(f"{workload} host medians: " + ", ".join(
            f"{side} cpu_s {host[side]['cpu_s']:.3f} steal_s {host[side]['steal_s']:.3f}"
            for side in sides))
    bad = failures(runs)
    for line in bad:
        print(f"failed run: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
