"""One pass of one workload, in a fresh process (started by run.py).

Set-up is the imports of numpy, scipy and linnikgeo plus input generation;
the worker then prints READY, so run.py can time set-up from process start.
Then it runs the workload's operations once, timing each call, and prints
one JSON line: per-operation latencies, outputs, peak RSS, a fingerprint
of the outputs, and (with --check, which keeps every output) the verdict
of checks.py or (with --trace) the layer metrics of tracing.py.

    python3 bench/worker.py --workload geodesics --seed 1 [--check] [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def setup(workload: str, seed: int, trace: bool):
    sys.path[:0] = [SRC, HERE]
    import numpy  # noqa: F401  (set-up includes the numeric stack)
    import scipy.integrate  # noqa: F401

    import linnikgeo
    import linnikgeo.cli  # noqa: F401

    where = os.path.realpath(linnikgeo.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"linnikgeo imported from {where}, not from {SRC}")
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import make_ops

    return make_ops(workload, seed), tracer


def fingerprint_part(res) -> bytes:
    """Canonical bytes of one output, so run.py can tell that passes agree."""
    from checks import forms_of

    if isinstance(res, list) and res and hasattr(res[0], "m"):
        return repr([(f.m, f.n) for f in res]).encode()
    if isinstance(res, list) and res and (hasattr(res[0], "point") or hasattr(res[0], "curve")):
        return repr(forms_of(res)).encode()
    if hasattr(res, "values") and hasattr(res, "limit"):
        return res.values.tobytes()
    return repr(res).encode()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace spans here")
    args = ap.parse_args()

    ops, tracer = setup(args.workload, args.seed, args.trace)
    print("READY", flush=True)

    # measured passes drop each output once it is fingerprinted, so peak RSS
    # is that of one operation at a time; the checked pass keeps them all
    state: dict = {}
    results, latencies, errors = [], [], {}
    digest, outputs = hashlib.sha256(), 0
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i, op.label)
        t0 = clock()
        try:
            res = op.run(state)
        except Exception as e:  # a failed operation is counted, the pass goes on
            res = None
            errors[i] = f"{op.label}: {type(e).__name__}: {e}"
        latencies.append(clock() - t0)
        if tracer:
            tracer.end_op()
        digest.update(fingerprint_part(res) + b"\0")
        outputs += 0 if res is None else op.count(res)
        if args.check:
            results.append(res)
        del res
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "ops": len(ops),
        "errors": errors,
        "latencies": latencies,
        "outputs": outputs,
        "rss_mb": rss_mb,
        "fingerprint": digest.hexdigest(),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                           "ops": [op.label for op in ops], "spans": tracer.spans}, fh)
    if args.check:
        from checks import check

        ok = [i for i in range(len(ops)) if i not in errors]
        try:
            v = check([ops[i] for i in ok], [results[i] for i in ok], args.seed)
            out["check"] = {"faults": v.faults, "failed": sorted(ok[i] for i in v.failed),
                            "info": v.info}
        except Exception as e:  # an output the checks cannot even read is a fault
            out["check"] = {"faults": [f"checks raised {type(e).__name__}: {e}"], "failed": [],
                            "info": {}}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
