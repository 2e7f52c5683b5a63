"""gamebounds benchmark: one workload per invocation, one client, closed loop.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Runs from the repository root and imports the package from ``src/``.  Each
run starts fresh worker processes with BLAS threads fixed at one: a few that
only set up the inputs (set-up time is their median) and one that also
measures.  Prints a readable table, then, as its last line, one JSON object
with the metrics that BENCHMARK.json lists: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7        # set-up samples per untraced run, the worker's included
RUN_LIMIT_S = 170        # every worker is stopped by then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker; adds its set-up time, from process start to ready."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def percentile_line(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond."""
    cuts = statistics.quantiles(samples, n=100) if len(samples) > 1 else []
    parts = [f"p50 {statistics.median(samples):.4f}"]
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            parts.append(f"p{p} {cuts[p - 1]:.4f}")
            break
    return ", ".join(parts) + f" ref_s over {len(samples)} item runs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [] if args.trace else [
        spawn(args, deadline, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, deadline, False)
    setups.append(run["setup_s"])

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        values = dict(run["layers"])
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "pass_s": statistics.median(run["pass_s"]),
                  "slowest_item_s": statistics.median(run["slowest_s"]),
                  "peak_rss_mb": run["peak_rss_mb"],
                  "ok_ratio": 1.0 - failed / attempted}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    n_pass = len(run["pass_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"one client, closed loop")
    if not args.trace:
        samples = {"setup_s": f"{len(setups)} set-ups",
                   "pass_s": f"{n_pass} passes",
                   "slowest_item_s": f"{n_pass} passes",
                   "peak_rss_mb": "1 process",
                   "ok_ratio": f"{attempted} items"}
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:>12.6g} {m['unit']:<6} "
                  f"{samples[name]}")
        print(f"  {'fail_ratio':<16} {failed / attempted:>12.6g} {'ratio':<6} "
              f"{attempted} items")
        for key in ("pass_wall_s", "slowest_wall_s"):
            print(f"  {key:<16} {statistics.median(run[key]):>12.6g} "
                  f"{'s':<6} {n_pass} passes, unscaled")
        print(f"  item_s: {percentile_line(run['item_s'])}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"  {run['traced_passes']} traced and {n_pass} untraced passes; "
              f"counts digest {run['counts_digest']}; spans in "
              f"{run['trace_file']}")
    print("env " + json.dumps(dict(run["env"], seed=args.seed)))
    for problem in run["problems"]:
        print(problem, file=sys.stderr)
    mismatches = run.get("layers", {}).get("trace.count_mismatches", 0)
    print(json.dumps({"correct": failed == 0 and mismatches == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
