"""Benchmark of linnikgeo: one workload per call, every pass in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; linnikgeo is imported from its src/.
Each pass is a new worker process (bench/worker.py), because the library
keeps process-wide caches that a second pass in the same process would
find warm.  A first pass keeps its outputs and checks them; the measured
passes that follow repeat until S seconds have gone (at least MIN_PASSES)
and must produce the same outputs.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over passes); --trace 1
alternates plain and traced passes and reports the layer metrics of the
traced ones, plus the tracing overhead.  Raw per-pass data and the spans
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("linnik-sets", "geodesics")
MIN_PASSES = 3  # per kind of pass (plain, traced)
BUDGET_S = 170.0  # a run ends within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "outputs_per_s": "1/s",
              "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p99_ms": "ms"}


class WorkerError(Exception):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to READY, its JSON or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            env=env, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or rc != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited {rc}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def quantile(xs: list[float], q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Medians over the measured passes.  op_p50_ms is the median over
    operations of each operation's median latency: on a workload of a dozen
    operations of similar size, the per-pass median jumps between them."""
    def med(f):
        return statistics.median(f(p) for p in passes)

    per_op = [statistics.median(x) for x in zip(*(p["latencies"] for p in passes))]
    return {
        "setup_s": med(lambda p: p["setup_s"]),
        "wall_s": med(lambda p: sum(p["latencies"])),
        "outputs_per_s": med(lambda p: p["outputs"] / sum(p["latencies"])),
        "peak_rss_mb": med(lambda p: p["rss_mb"]),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p99_ms": 1000 * med(lambda p: quantile(p["latencies"], 0.99)),
    }


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linnikgeo", "__init__.py")):
        print("run.py: no src/linnikgeo here; run from the root of a linnikgeo checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, LINNIK_WORKERS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    deadline = start + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        # the checked pass keeps all outputs in memory, so it is not measured;
        # in a fresh checkout it also writes the bytecode caches
        _, checked = spawn(base + ["--check"], env, deadline)
        measure_start = time.monotonic()
        plain: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        k = 0
        while True:
            t_pass = time.monotonic()
            trace_this = bool(args.trace) and k % 2 == 1
            argv = list(base)
            if trace_this:
                argv += ["--trace", "--spans", os.path.join(out_dir, f"spans-{tag}-pass{k}.json")]
            setup, res = spawn(argv, env, deadline)
            res["setup_s"] = setup
            (traced if trace_this else plain).append(res)
            k += 1
            longest = max(longest, time.monotonic() - t_pass)
            now = time.monotonic()
            enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
            if (enough and now - measure_start >= args.seconds) or now + longest > deadline:
                break
    except WorkerError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    passes = [checked] + plain + traced
    verdict = checked["check"]
    faults = list(verdict["faults"])
    if len({p["fingerprint"] for p in passes}) != 1:
        faults.append("passes disagree on their outputs")
    if len({tuple(sorted(p["errors"])) for p in passes}) != 1:
        faults.append("passes disagree on which operations fail")
    failed_ops = set(map(int, checked["errors"])) | set(verdict["failed"])
    for msg in checked["errors"].values():
        print(f"run.py: failed operation {msg}", file=sys.stderr)
    for msg in faults:
        print(f"run.py: CHECK FAILED {msg}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in sorted({m for p in traced for m in p["layers"]}):
            vals = [p["layers"][name] for p in traced if name in p["layers"]]
            metrics[name] = {"value": statistics.median(vals), "unit": unit_of(name)}
        overhead = (statistics.median(sum(p["latencies"]) for p in traced)
                    - statistics.median(sum(p["latencies"]) for p in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {
        "correct": not faults,
        "attempted": len(passes) * checked["ops"],
        "failed": len(passes) * len(failed_ops),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "faults": faults, "check_info": verdict["info"],
                   "passes": passes}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
