"""Fixed-size layer probes for the traced run, in a process of their own.

  operators.eigensystem   dense eigendecomposition at N=1024 and N=4096
  operators.resolvent_solve   at mu=1 and mu=0.01 on the corrector torus
  walker.jumps_per_s      one long simulate_vsrw path on the walk torus
  cli.import.s            `python -X importtime -c "import condlab.cli"`

Each probe is timed on fresh inputs after an untimed warm-up, and the median
of its repeats is reported.  Prints one JSON object on stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import numpy as np

LAW = "twopoint:0.5,1,4"


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times(repeats):
    """Cumulative import time of condlab.cli and of scipy.stats within it."""
    cli, stats = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import condlab.cli"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        cli.append(cumulative["condlab.cli"])
        stats.append(cumulative.get("scipy.stats", 0.0))
    return statistics.median(cli), statistics.median(stats)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    from condlab.environment import Lattice, parse_law, sample_field
    from condlab.functionals import evaluate_all, local_drift
    from condlab.operators import build_generator, resolvent_solve
    from condlab.walker import simulate_vsrw

    law = parse_law(LAW)
    out = {}

    def fresh_op(d, n, seed):
        return build_generator(sample_field(law, Lattice(d, n), seed), "conductance")

    eig_sizes = {"n1024": (2, 8 if args.smoke else 32, 3), "n4096": (2, 16 if args.smoke else 64, 1)}
    fresh_op(2, eig_sizes["n1024"][1], 0).eigensystem()  # first eigh in a process pays extra
    for key, (d, n, repeats) in eig_sizes.items():
        ops = iter([fresh_op(d, n, k) for k in range(repeats)])
        out[f"operators.eigensystem.{key}.s"] = _median_time(lambda: next(ops).eigensystem(), repeats)

    d, n = 3, 6 if args.smoke else 24
    field = sample_field(law, Lattice(d, n), 1)
    op = build_generator(field, "conductance")
    g = evaluate_all(local_drift(d, law), field)
    resolvent_solve(op, g, 1.0)
    for key, mu in (("mu1", 1.0), ("mu0_01", 0.01)):
        out[f"operators.resolvent_solve.{key}.s"] = _median_time(lambda: resolvent_solve(op, g, mu), 3)

    field = sample_field(law, Lattice(2, 8 if args.smoke else 24), 2)
    horizon = 200.0 if args.smoke else 8000.0
    simulate_vsrw(field, 0, 1.0, np.random.default_rng(0))
    rates = []
    for k in range(3):
        rng = np.random.default_rng(k + 1)
        t0 = time.perf_counter()
        traj = simulate_vsrw(field, 0, horizon, rng)
        rates.append(traj.jump_count / (time.perf_counter() - t0))
    out["walker.jumps_per_s"] = statistics.median(rates)

    out["cli.import.s"], out["cli.import.scipy_stats.s"] = import_times(3)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
