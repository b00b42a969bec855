"""condlab benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; condlab is imported from its `src`.  The
last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.  The
line before it is the full record: samples, quartiles, failures, per-layer
shares and the environment.  Both are also written under perfbench/.results.

--trace 0 reports the end-to-end metrics (END_TO_END), --trace 1 the
per-layer ones (PER_LAYER).  See perfbench/README.md for the workloads and
for which layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("spectral", "corrector", "walk", "readme")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("simulate", "decay", "diffusivity", "msd", "spectrum", "contract", "nash-check", "field-dump")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# metric -> (unit, how it is read from the traced run)
PER_LAYER = {
    "cli.import.s": ("s", ("probe",)),
    "cli.import.scipy_stats.s": ("s", ("probe",)),
    **{f"cli.{c}.s": ("s", ("incl", f"cli.{c}")) for c in COMMANDS},
    "experiments.write_report.s": ("s", ("incl", "experiments.write_report")),
    "experiments.write_report.bytes": ("bytes", ("count", "experiments.write_report.bytes")),
    "operators.eigensystem.s": ("s", ("incl", "operators.eigensystem")),
    "operators.eigensystem.calls": ("count", ("calls", "operators.eigensystem")),
    "operators.eigensystem.n3_computed": ("count", ("count", "operators.eigensystem.n3_computed")),
    "spectral.spectral_measure.self_s": ("s", ("self", "spectral.spectral_measure")),
    "spectral.variance_curve.s": ("s", ("incl", "spectral.variance_curve")),
    "experiments.decay_fit.s": ("s", ("incl", "experiments.decay_fit")),
    "operators.resolvent_solve.s": ("s", ("incl", "operators.resolvent_solve")),
    "operators.resolvent_solve.calls": ("count", ("calls", "operators.resolvent_solve")),
    "operators.build_generator.s": ("s", ("incl", "operators.build_generator")),
    "spectral.diffusivity_estimators.s": ("s", ("incl", "spectral.diffusivity_estimators")),
    "walker.msd_estimate.s": ("s", ("incl", "walker.msd_estimate")),
    "walker.walks": ("count", ("count", "walker.walks")),
    "walker.simulate.s": ("s", ("incl", "walker.simulate_vsrw", "walker.simulate_srw")),
    "environment.sample_field.s": ("s", ("incl", "environment.sample_field")),
    "environment.sample_field.calls": ("count", ("calls", "environment.sample_field")),
    "functionals.evaluate_all.s": ("s", ("incl", "functionals.evaluate_all")),
    "environment.w_statistic.s": ("s", ("incl", "environment.w_statistic")),
    "operators.semigroup_apply.s": ("s", ("incl", "operators.semigroup_apply")),
    "operators.semigroup_apply.calls": ("count", ("calls", "operators.semigroup_apply")),
    **{f"experiments.{e}.self_s": ("s", ("self", f"experiments.{e}")) for e in (
        "variance_decay_experiment", "diffusivity_experiment", "msd_experiment",
        "contractivity_experiment", "nash_chain_check")},
    "operators.eigensystem.n1024.s": ("s", ("probe",)),
    "operators.eigensystem.n4096.s": ("s", ("probe",)),
    "operators.resolvent_solve.mu1.s": ("s", ("probe",)),
    "operators.resolvent_solve.mu0_01.s": ("s", ("probe",)),
    "walker.jumps_per_s": ("1/s", ("probe",)),
    "trace.traced_wall_s": ("s", ("traced_wall",)),
    "trace.overhead_s": ("s", ("overhead",)),
}

# the layer each workload's profile says should dominate its traced wall
DOMINANT = {
    "spectral": "operators.eigensystem.s",
    "corrector": "operators.resolvent_solve.s",
    "walk": "walker.msd_estimate.s",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: with one per core, dense eigh times on a shared 2-core
    # box moved by +-15% from run to run; with one thread they hold within ~5%.
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, deadline, cwd):
    """Run a Python child to completion; returns (spawn time, parsed last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:2]))
    spawned = time.monotonic()
    # its own process group, so that killing it also stops the CLI runs it started
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{argv[0]} did not finish within the {DEADLINE_S:g} s budget")
        raise
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed nothing")
    return spawned, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            ordered = sorted(values)
            return {"percentile": pct, "value": ordered[int(len(ordered) * pct / 100.0)]}
    return None


def environment(args, env, runtime):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **runtime,
        "blas_thread_caps": {k: env[k] for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "load": "one closed-loop client: one workload process, one iteration at a time, workers=1",
        "smoke": args.smoke,
    }


def end_to_end(setups, rec):
    walls = [it["wall_s"] for it in rec["iterations"]]
    wall = statistics.median(walls)
    items = rec["items_per_iteration"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": items / wall,
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    extra = {
        "setup_samples_s": setups,
        "wall_samples_s": walls,
        "wall_quartiles_s": quartiles(walls),
        "wall_tail": tail_percentile(walls),
        f"{rec['item']}_per_s": items / wall,
        "items_per_iteration": items,
        "item": rec["item"],
    }
    return metrics, extra


def _layer_value(how, stats, counts, n_traced, traced_wall, plain_wall):
    kind = how[0]
    if kind == "traced_wall":
        return traced_wall
    if kind == "overhead":
        return traced_wall - plain_wall
    if kind == "count":
        return counts.get(how[1], 0) / n_traced
    total = sum(stats.get(name, {}).get(kind, 0) for name in how[1:])
    return total / n_traced


def per_layer(rec, probes, workload):
    traced = [it["wall_s"] for it in rec["traced_iterations"]]
    plain = [it["wall_s"] for it in rec["iterations"]]
    traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
    metrics = {}
    for name, (unit, how) in PER_LAYER.items():
        value = probes[name] if how[0] == "probe" else _layer_value(
            how, rec["span_stats"], rec["counts"], len(traced), traced_wall, plain_wall)
        metrics[name] = value
    shares = {name: metrics[name] / traced_wall for name, (unit, how) in PER_LAYER.items()
              if unit == "s" and how[0] in ("incl", "self")}
    extra = {"traced_samples_s": traced, "untraced_samples_s": plain,
             "trace_check": rec["trace_check"], "shares_of_traced_wall": shares,
             "share_check": share_check(workload, metrics, shares)}
    return metrics, extra


def share_check(workload, metrics, shares):
    """Does the layer the profile names dominate this workload's traced time?"""
    if workload == "readme":
        imports = len(COMMANDS) * metrics["cli.import.s"]
        command_s = {k: v for k, v in metrics.items() if k.startswith("cli.") and
                     k[4:-2] in COMMANDS}
        largest = max(command_s, key=command_s.get)
        return {"expected": "cli.import.s (eight imports) is the largest item",
                "eight_imports_s": imports, "largest_command": largest,
                "largest_command_s": command_s[largest],
                "matches": imports > command_s[largest]}
    expected = DOMINANT[workload]
    timed = {k: v for k, v in shares.items()
             if k.startswith(("operators.", "walker.", "spectral.", "environment.", "functionals."))}
    largest = max(timed, key=timed.get)
    return {"expected": expected, "largest": largest, "share": timed[expected],
            "matches": largest == expected}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "condlab", "__init__.py")):
        print(f"no condlab sources under {SRC}; run from the root of a condlab checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = os.path.join(HERE, ".work", tag)
    results = os.path.join(HERE, ".results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work", work, "--src", SRC]
    if args.smoke:
        worker.append("--smoke")
    try:
        if args.trace == 0:
            setups = []
            for k in range(SETUP_REPEATS):
                mode = "run" if k == SETUP_REPEATS - 1 else "setup"
                spawned, rec = run_child(worker + ["--mode", mode], env, deadline, work)
                setups.append(rec["ready_monotonic"] - spawned)
            metrics, extra = end_to_end(setups, rec)
            iterations = rec["iterations"]
        else:
            _, rec = run_child(worker + ["--mode", "trace"], env, deadline, work)
            probe_argv = [os.path.join(HERE, "probes.py")] + (["--smoke"] if args.smoke else [])
            _, probes = run_child(probe_argv, env, deadline, work)
            metrics, extra = per_layer(rec, probes, args.workload)
            shutil.move(os.path.join(work, "spans.json"), os.path.join(results, tag + ".spans.json"))
            iterations = rec["iterations"] + rec["traced_iterations"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(iterations)
    failed = sum(1 for it in iterations if it["misses"])
    units = END_TO_END if args.trace == 0 else {k: u for k, (u, _) in PER_LAYER.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, fail_frac=failed / attempted,
                  misses=[it["misses"] for it in iterations if it["misses"]],
                  detail=extra, environment=environment(args, env, rec["runtime"]))
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
