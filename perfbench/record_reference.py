"""Record the statistical reference numbers in reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run once, at the commit whose outputs the benchmark checks against; the
workloads compare later outputs with these numbers within combined standard
errors, so they hold for every benchmark seed.
"""

import json
import os
import subprocess

from condlab.environment import parse_law
from condlab.experiments import diffusivity_experiment, msd_experiment

from workloads import HERE, LAW, MUS, Walk

REFERENCE_SEED = 0


def main():
    law = parse_law(LAW)
    # criterion 8's sigma2 run: same torus as the walk workload, its seed 23
    _, s2, s2_se = diffusivity_experiment(law, 2, 24, MUS, 16, 23)
    report, _ = msd_experiment(law, 2, 24, Walk.times, 24, 256, REFERENCE_SEED,
                               sigma2=s2, sigma2_se=s2_se)
    _, rows = report.tables["msd"]
    _, c_s2, c_se = diffusivity_experiment(law, 3, 24, MUS, 32, REFERENCE_SEED, expected_order=1.5)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=HERE).stdout.strip()
    ref = {
        "recorded_at_commit": commit,
        "seed": REFERENCE_SEED,
        "walk": {
            "sigma2_input": {"sigma2": s2, "sigma2_se": s2_se,
                             "from": "diffusivity_experiment(twopoint:0.5,1,4, d=2, n=24, 16 fields, seed 23)"},
            "times": list(Walk.times),
            "msd_over_t": [float(r[1]) for r in rows],
            "stderr": [float(r[2]) for r in rows],
        },
        "corrector": {"sigma2": c_s2, "sigma2_se": c_se},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
