"""margauss benchmark: one workload, timed end to end through `margauss.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a margauss checkout. A run is a series of whole rounds;
each round is a fresh interpreter (perfbench/child.py) that imports margauss
from ./src and calls the CLI on the workload's inputs, made from --seed. The
run starts rounds until --seconds have passed (at least MIN_ROUNDS), checks
every round's output, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the medians over rounds of wall_s, setup_s and
peak_rss_mb. With --trace 1 the rounds alternate untraced and traced, and the
metrics are the per-layer figures of the traced rounds (medians) plus the
tracing overhead. Outputs and spans go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_ROUNDS = 3
RUN_BUDGET_S = 150.0

# Every round's process gets one BLAS thread: on this 2-core machine the
# default OpenBLAS pool made a 3.5 s sweep spread over 3.15-4.71 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Sweep:
    """`margauss experiment` on one config; an operation is a CSV row."""

    bodies: tuple[str, ...]
    ns: tuple[int, ...]
    ks: tuple[int, ...]
    frames: tuple[str, ...]
    samples: int
    metrics: tuple[str, ...]

    def keys(self, seed: int) -> list[tuple]:
        return [(b, n, k, f, seed) for b in self.bodies for n in self.ns
                for k in self.ks for f in self.frames]

    def prepare(self, out: str, seed: int) -> list[str]:
        config = {"bodies": list(self.bodies), "ns": list(self.ns), "ks": list(self.ks),
                  "frames": list(self.frames), "samples": self.samples, "seeds": [seed],
                  "metrics": list(self.metrics)}
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return [path]

    def calls(self, out: str, seed: int, index: int) -> list[list[str]]:
        return [["experiment", "--config", os.path.join(out, "config.json"),
                 "--out", os.path.join(out, f"round{index}.csv")]]

    def operations(self, seed: int) -> list[int]:
        return [len(self.keys(seed))]

    def useful_elements(self, seed: int) -> int:
        return sum(self.samples * key[1] for key in self.keys(seed))

    def output(self, call: dict) -> str:
        if not os.path.exists(call["argv"][-1]):
            return ""
        with open(call["argv"][-1]) as fh:
            return fh.read()

    def check(self, call: dict, text: str, seed: int) -> list[str]:
        rows = checks.parse_csv(text)
        return (checks.check_sweep(rows, self.keys(seed), self.samples, self.metrics)
                + checks.check_irwin_hall_rows(rows) + checks.check_gaussian_rows(rows))


@dataclass(frozen=True)
class VerifyPair:
    """`margauss verify pair` on several bodies in one process; an operation is a point."""

    points: tuple[tuple[str, int, int], ...]  # (body, n, samples)
    k: int
    frame: str

    def prepare(self, out: str, seed: int) -> list[str]:
        return []

    def calls(self, out: str, seed: int, index: int) -> list[list[str]]:
        return [["verify", "pair", "--body", body, "--n", str(n), "--k", str(self.k),
                 "--frame", self.frame, "--samples", str(samples), "--seed", str(seed)]
                for body, n, samples in self.points]

    def operations(self, seed: int) -> list[int]:
        return [samples for _, _, samples in self.points]

    def useful_elements(self, seed: int) -> int:
        return sum(n * samples for _, n, samples in self.points)

    def output(self, call: dict) -> str:
        return call["stdout"]

    def check(self, call: dict, text: str, seed: int) -> list[str]:
        return checks.check_verify_output(text, call["code"])


# Why each workload exists, and the sizes, are in perfbench/README.md.
WORKLOADS = {
    "sweep-uniform": Sweep(bodies=("product-uniform",), ns=(16, 64, 256, 1024), ks=(1,),
                           frames=("walsh",), samples=150_000, metrics=("w1",)),
    "sweep-simplex": Sweep(bodies=("simplex",), ns=(64, 256), ks=(1, 2), frames=("haar",),
                           samples=10_000, metrics=("w1",)),
    "sliced-lowdim": Sweep(bodies=("product-gaussian", "product-laplace"), ns=(16, 64),
                           ks=(1, 2), frames=("haar",), samples=120_000,
                           metrics=("w1", "ks", "tv")),
    "verify-pair": VerifyPair(points=(("simplex", 64, 1000), ("simplex", 256, 30),
                                      ("product-uniform", 1024, 5000)), k=3, frame="haar"),
}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MG_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    return env


def run_child(out: str, tag: str, calls: list, configs: list, trace: bool, env: dict,
              timeout: float) -> tuple[float, dict | None]:
    """Start one round; return (spawn time, result or None if it did not finish)."""
    job_path = os.path.join(out, f"{tag}.job.json")
    result_path = os.path.join(out, f"{tag}.result.json")
    with open(job_path, "w") as fh:
        json.dump({"calls": calls, "configs": configs, "trace": trace}, fh)
    with open(os.path.join(out, f"{tag}.log"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path,
                                 result_path], env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(result_path):
        return spawned, None
    with open(result_path) as fh:
        return spawned, json.load(fh)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src", "margauss")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        return fail(f"no margauss source under {src}; run from the root of a checkout")
    workload = WORKLOADS[args.workload]
    out = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    configs = workload.prepare(out, args.seed)
    env = child_env(root)

    print(f"perfbench: {args.workload} seed={args.seed} "
          f"{' '.join(f'{name}={BLAS_THREADS}' for name in BLAS_ENV)}")

    ops_per_call = workload.operations(args.seed)
    attempted = failed = 0
    problems: list[str] = []
    rounds: list[dict] = []
    while True:
        elapsed = time.monotonic() - started
        last = rounds[-1]["duration"] if rounds else 0.0
        if len(rounds) >= MIN_ROUNDS and elapsed + last > args.seconds:
            break
        if elapsed + last > RUN_BUDGET_S:
            print(f"perfbench: only {len(rounds)} rounds fit in {RUN_BUDGET_S:g} s")
            break
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        calls = workload.calls(out, args.seed, index)
        spawned, result = run_child(out, f"round{index}", calls, configs, traced, env,
                                    RUN_BUDGET_S + 20.0 - elapsed)
        duration = time.monotonic() - spawned
        attempted += sum(ops_per_call)
        if result is None:
            failed += sum(ops_per_call)
            rounds.append({"duration": duration, "ok": False, "traced": traced})
            continue
        if not os.path.abspath(result["margauss_file"]).startswith(src + os.sep):
            return fail(f"imported margauss from {result['margauss_file']}, not from {src}")
        if result["blas_threads"] not in (None, BLAS_THREADS):
            return fail(f"BLAS ran {result['blas_threads']} threads, not {BLAS_THREADS}")
        outputs = []
        for call, ops in zip(result["calls"], ops_per_call):
            if call["error"] is not None:
                failed += ops
                outputs.append(None)
                continue
            text = workload.output(call)
            outputs.append(text)
            problems += [f"round {index}: {p}" for p in workload.check(call, text, args.seed)]
        rnd = {
            "duration": duration, "ok": True, "traced": traced, "outputs": outputs,
            "setup_s": result["ready"] - spawned,
            "wall_s": sum(call["seconds"] for call in result["calls"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        if traced:
            with open(os.path.join(out, f"round{index}.spans.json"), "w") as fh:
                json.dump(result["trace"], fh)
            rnd["layers"] = tracing.layer_metrics(result["trace"], rnd["wall_s"],
                                                  workload.useful_elements(args.seed))
        rounds.append(rnd)
        print(f"perfbench: round {index}{' traced' if traced else ''}: "
              f"setup_s={rnd['setup_s']:.4f} wall_s={rnd['wall_s']:.4f} "
              f"peak_rss_mb={rnd['peak_rss_mb']:.1f} blas_threads={result['blas_threads']}")

    done = [r for r in rounds if r["ok"]]
    outputs = {tuple(r["outputs"]) for r in done}
    if len(outputs) > 1:
        problems.append("rounds with the same seed wrote different outputs"
                        + (" (traced and untraced differ)" if args.trace else ""))
    for problem in problems:
        print(f"perfbench: FAILED CHECK {problem}")

    untraced = [r for r in done if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in done if r["traced"]]
        if not traced_rounds or not untraced:
            return fail("no traced or no untraced round finished")
        names = traced_rounds[0]["layers"]
        values = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                  for name in names}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                                      - statistics.median(r["wall_s"] for r in untraced))
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in values.items()}
    else:
        if not untraced:
            return fail("no round finished")
        metrics = {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
