"""One workload process: set up, warm up, then (optionally) the timed loop.

Started by run.py with the checkout's `src` on PYTHONPATH.  Prints exactly
one JSON line on stdout, at the end.

  --mode setup   import, build inputs, one warm-up call; report when ready
  --mode run     the same, then untraced iterations for --seconds
  --mode trace   the same, then alternating untraced and traced iterations
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback

# The checks compare iterations with each other, so a run needs two; the
# traced run compares its traced iteration with the untraced one.
MIN_ITERATIONS = {"run": 2, "trace": 1}
MAX_LOOP_S = 120.0


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_info():
    """BLAS libraries loaded by numpy/scipy in this process and their thread counts."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if any(k in line.lower() for k in ("openblas", "mkl_rt", "libblis", "libblas"))})
    for path in paths:
        entry = {"library": os.path.basename(path), "threads": None}
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = fn()
                break
        found.append(entry)
    return found


def _runtime():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS, if it has its own)

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out, error = fn(*args), None
    except Exception:  # an iteration that raises is counted as failed
        out, error = None, traceback.format_exc(limit=4)
    return time.perf_counter() - t0, out, error


def _loop(wl, seconds, traced_rec=None):
    """Iterations until `seconds` have passed (and MIN_ITERATIONS of each kind).

    With a recorder, `iterate_traced` runs alternately without and with
    spans, each traced iteration inside one root span; the difference of the
    two is the tracing overhead.
    """
    from tracing import install

    kinds = ("plain", "traced") if traced_rec is not None else ("plain",)
    least = MIN_ITERATIONS["trace" if traced_rec is not None else "run"]
    runs = {k: [] for k in kinds}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = all(len(v) >= least for v in runs.values())
        if (enough and elapsed >= seconds) or (elapsed >= MAX_LOOP_S and all(runs.values())):
            break
        for kind in kinds:
            if kind == "plain":
                plain = wl.iterate if traced_rec is None else (lambda: wl.iterate_traced(None))
                runs[kind].append(_timed(plain))
                continue
            uninstall = install(traced_rec)
            try:
                def traced():
                    index = traced_rec.begin("bench.iteration")
                    try:
                        return wl.iterate_traced(traced_rec)
                    finally:
                        traced_rec.end(index)

                runs[kind].append(_timed(traced))
            finally:
                uninstall()
    return runs


def _checked(wl, runs, smoke):
    """Per-iteration wall times and the list of misses for each iteration."""
    outputs = [out for _, out, err in runs if err is None]
    misses = wl.check(outputs, smoke) if outputs else []
    result, k = [], 0
    for dt, out, err in runs:
        if err is not None:
            result.append({"wall_s": dt, "misses": [f"raised: {err.strip().splitlines()[-1]}"],
                           "traceback": err})
        else:
            result.append({"wall_s": dt, "misses": misses[k]})
            k += 1
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    import condlab

    src = os.path.realpath(args.src)
    if not os.path.realpath(condlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"condlab imported from {condlab.__file__}, not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.work, args.smoke)
    wl.warmup()
    ready = time.monotonic()
    record = {"ready_monotonic": ready}
    if args.mode != "setup":
        rec = None
        if args.mode == "trace":
            from tracing import Recorder

            rec = Recorder()
        runs = _loop(wl, args.seconds, rec)
        checked = _checked(wl, runs["plain"] + runs.get("traced", []), args.smoke)
        record["iterations"] = checked[:len(runs["plain"])]
        record["items_per_iteration"] = wl.items_per_iteration
        record["item"] = wl.item
        record["peak_rss_mb"] = _peak_rss_mb()
        record["runtime"] = _runtime()
        if rec is not None:
            from tracing import span_stats

            record["traced_iterations"] = checked[len(runs["plain"]):]
            stats, min_self = span_stats(rec.spans)
            record["span_stats"] = stats
            record["counts"] = rec.counts
            record["trace_check"] = {
                "root_s": sum(end - start for _, start, end, parent in rec.spans if parent < 0),
                "self_sum_s": sum(v["self"] for v in stats.values()),
                "min_self_s": min_self,
                "spans": len(rec.spans),
            }
            rec.dump(os.path.join(args.work, "spans.json"))
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
