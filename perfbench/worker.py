"""One workload process: build the inputs, then run closed-loop passes.

run.py starts this with BLAS threads pinned to one and reads the JSON line
it prints last.  With --setup-only it stops once the inputs are ready; that
is one set-up sample.  With --trace 1 it alternates untraced and traced
passes, so the per-layer numbers and the tracing overhead come from one
process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def import_package() -> float:
    """Import gamebounds from this checkout's sources; returns the seconds."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import gamebounds
    except ImportError as exc:
        raise SystemExit(f"cannot import gamebounds from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(gamebounds.__file__))
    if where != os.path.join(SRC, "gamebounds"):
        raise SystemExit(f"gamebounds was imported from {where}, not {SRC}")
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = "unknown"
    package = os.path.join(SRC, "gamebounds")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
            "package_lines": lines}


class Speedometer:
    """Times a fixed calibration kernel: small symmetric eigensolves,
    interpreter-bound integer work and a short vector pass, the kinds of
    work the package does.

    A shared 2-core machine's speed drifts by 15% or more over minutes,
    much more than between items, so each item's wall time is scaled by
    REFERENCE_S over the mean of the kernel times just before and just
    after the item.  The result is the item's time at the reference speed
    (unit ``ref_s``).
    """

    REFERENCE_S = 0.01

    def __init__(self):
        import numpy
        self._np = numpy
        rng = numpy.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        self._matrix = a + a.T
        self._vector = rng.random(32768)

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            self._np.linalg.eigh(self._matrix)
        x = 0
        for i in range(20000):
            x ^= (i * 2654435761) & 0xFFFF
        for _ in range(20):
            self._np.sqrt(self._vector)
        return time.perf_counter() - start


def run_pass(items, label, tracer, speed: Speedometer) -> dict:
    """One pass over the item list; only the items' program calls are timed,
    and the calibration kernel runs between items."""
    wall, scaled, failed, problems, notes = [], [], 0, [], {}
    before = speed.sample()
    for item in items:
        if tracer is not None:
            tracer.item = f"{label}/{item.name}"
        elapsed = None
        start = time.perf_counter()
        try:
            output = item.run()
            elapsed = time.perf_counter() - start
            found = item.check(output, notes)
        except Exception:  # a failing item is counted; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            found = [traceback.format_exc()]
        after = speed.sample()
        wall.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_S / ((before + after) / 2))
        before = after
        if found:
            failed += 1
            problems += [f"{item.name}: {p}" for p in found]
    return {"time": sum(scaled), "slowest": max(scaled), "items": scaled,
            "wall": sum(wall), "wall_slowest": max(wall),
            "failed": failed, "problems": problems, "notes": notes}


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d.get(key, 0) for d in dicts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_s = import_package()
    setup_start = time.perf_counter()
    import corpus  # imports gamebounds, so only after import_package

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        items = corpus.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        setup_end = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if tracer is not None:
            tracer.uninstall()
        result = measure(items, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(ready=ready,
                  env=dict(environment(), battery_seed=corpus.BATTERY_SEED,
                           corpus_seed=corpus.CORPUS_SEED),
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        setup_spans = [s for s in tracer.spans if s.item == "setup"]
        top = sum(s.end - s.start for s in setup_spans if s.parent == -1)
        totals = tracing.layer_totals(setup_spans)
        result["layers"].update({
            "setup.import_s": import_s,
            "setup.gameio_s": totals.get("gameio.load_s", 0.0),
            "setup.gamegraph_s": sum(v for k, v in totals.items()
                                     if k.startswith("gamegraph.")
                                     and k.endswith("_s")),
            "setup.generate_s": setup_end - setup_start - top,
        })
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "env": result["env"]})
        result["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
    print(json.dumps(result))
    return 0


def measure(items, args, tracer) -> dict:
    """Closed loop: a pass starts when the previous one ends, and no pass
    starts that the median so far says would end after --seconds.  With a
    tracer, passes come in untraced/traced pairs, the order alternating from
    pair to pair; the first pass is untraced, so the first output checks
    (which may call the package) leave no spans."""
    plain, traced, traced_spans = [], [], []
    speed = Speedometer()
    begin = time.perf_counter()
    while True:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if tracer is not None else (False,):
            if not with_trace:
                plain.append(run_pass(items, f"{len(plain)}", None, speed))
                continue
            first = len(tracer.spans)
            tracer.install()
            traced.append(run_pass(items, f"{len(traced)}", tracer, speed))
            tracer.uninstall()
            traced_spans.append(tracer.spans[first:])
        step = median_of(plain, "wall") + (median_of(traced, "wall")
                                           if traced else 0.0)
        if time.perf_counter() - begin + step > args.seconds:
            break
    passes = plain + traced
    result = {
        "pass_s": [p["time"] for p in plain],
        "slowest_s": [p["slowest"] for p in plain],
        "pass_wall_s": [p["wall"] for p in plain],
        "slowest_wall_s": [p["wall_slowest"] for p in plain],
        "item_s": [t for p in plain for t in p["items"]],
        "attempted": len(items) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]][:20],
    }
    if tracer is None:
        return result
    layers = [tracing.layer_totals(spans) for spans in traced_spans]
    names = sorted({k for d in layers for k in d})
    result["layers"] = {k: median_of(layers, k) for k in names}
    result["layers"]["sdp.theta_over_k_below_ref"] = median_of(
        [p["notes"] for p in traced], "theta_over_k_below_ref")
    result["layers"]["trace.overhead_s"] = (median_of(traced, "time")
                                            - median_of(plain, "time"))
    counts = [tracing.exact_counts(spans) for spans in traced_spans]
    result["layers"]["trace.count_mismatches"] = sum(c != counts[0]
                                                     for c in counts)
    result["counts_digest"] = hashlib.sha256(
        repr(counts[0]).encode()).hexdigest()[:16]
    result["traced_passes"] = len(traced)
    return result


if __name__ == "__main__":
    sys.exit(main())
