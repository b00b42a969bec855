"""The benchmark's workloads: inputs from a seed, one iteration, output checks.

Each workload calls condlab only through its public functions.  An iteration
returns a plain record of its outputs; `check` compares every iteration's
record with references and returns, per iteration, the list of checks it
missed (empty when it passed).  Checks run after the timed loop.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
LAW = "twopoint:0.5,1,4"
MUS = [float(m) for m in np.geomspace(1.0, 0.177, 6)] + [0.01]


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _combined_sigmas(value, se, ref, ref_se):
    return abs(value - ref) / max(float(np.hypot(se, ref_se)), 1e-300)


def _target_misses(targets, required):
    """Names of required report targets that are missing or FAIL."""
    seen = dict(targets)
    return [f"target {name} {'missing' if name not in seen else 'FAIL'}"
            for name in required if not seen.get(name, False)]


def torus_generator(omega, d, n):
    """Generator of the conductance walk, assembled from the edge array alone.

    Sites are in C order over (Z/nZ)^d and omega[axis, x] is the edge from x
    to x + e_axis, as documented on `condlab.environment.ConductanceField`.
    """
    import scipy.sparse as sp

    size = n**d
    grid = np.arange(size).reshape((n,) * d)
    sites = np.arange(size)
    rows, cols, vals = [], [], []
    diag = np.zeros(size)
    for axis in range(d):
        fwd = np.roll(grid, -1, axis=axis).ravel()
        w = omega[axis]
        rows += [sites, fwd]
        cols += [fwd, sites]
        vals += [w, w]
        diag -= w
        np.subtract.at(diag, fwd, w)
    rows.append(sites)
    cols.append(sites)
    vals.append(diag)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )


def reference_variance_curve(omegas, d, n, law_mean, times):
    """Ensemble mean of |e^{tL} g|^2 / N for the centred edge g, by expm_multiply.

    Independent of condlab's spectral backend: no eigendecomposition.
    """
    from scipy.sparse.linalg import expm_multiply

    curves = []
    for omega in omegas:
        gen = torus_generator(omega, d, n)
        v = omega[0] - law_mean
        prev, vals = 0.0, []
        for t in times:
            v = expm_multiply(gen * (t - prev), v)
            prev = t
            vals.append(float(v @ v) / v.size)
        curves.append(vals)
    return np.maximum(np.mean(curves, axis=0), 0.0)


class Workload:
    item = "iterations"

    def iterate_traced(self, rec):
        """The iteration the traced run compares with and without spans (rec None)."""
        return self.iterate()


class Spectral(Workload):
    """variance_decay_experiment on the conductance walk, dense spectral method."""

    item = "fields"

    def __init__(self, seed, work, smoke):
        from condlab import environment, experiments
        from tracing import rebind

        self.seed = seed
        self.d, self.n = 2, (12 if smoke else 48)
        self.realizations = 2 if smoke else 4
        self.law = environment.parse_law(LAW)
        self.times = np.geomspace(0.1, 20.0, 25)
        self.run_experiment = experiments.variance_decay_experiment
        # keep the fields the experiment draws, for the independent reference
        self.drawn = []
        sample_field = environment.sample_field

        @functools.wraps(sample_field)
        def recording_sample_field(*args, **kwargs):
            field = sample_field(*args, **kwargs)
            self.drawn.append(field.omega)
            return field

        rebind({id(sample_field): (sample_field, recording_sample_field)})

    @property
    def items_per_iteration(self):
        return self.realizations

    def _call(self, n, realizations):
        curve, _ = self.run_experiment(
            self.law, self.d, n, "edge", "conductance", self.times,
            realizations, self.seed, method="spectral", workers=1,
        )
        return curve

    def warmup(self):
        # a small torus is enough to start BLAS; the first eigh in a process pays extra
        self._call(16, 1)

    def iterate(self):
        self.drawn = []
        curve = self._call(self.n, self.realizations)
        return {"values": np.array(curve.values), "fields": list(self.drawn)}

    def check(self, outputs, smoke):
        from condlab.functionals import evaluate_all, functional_by_name
        from condlab.environment import ConductanceField, Lattice
        from condlab.operators import build_generator
        from condlab.spectral import spectral_measure

        first = outputs[0]["fields"]
        ref = reference_variance_curve(first, self.d, self.n, self.law.mean(), self.times)
        field = ConductanceField(Lattice(self.d, self.n), first[0], law=self.law)
        g = evaluate_all(functional_by_name("edge", self.d, self.law), field)
        mass = spectral_measure(build_generator(field, "conductance"), g, center=False).total_mass
        mean_sq = float(np.mean(np.asarray(g) ** 2))
        mass_miss = (f"measure mass {mass!r} != mean(g^2) {mean_sq!r}"
                     if abs(mass - mean_sq) > 1e-12 * mean_sq else None)
        return [self.check_one(out, first, ref, mass_miss) for out in outputs]

    @staticmethod
    def check_one(out, fields, ref, mass_miss):
        misses = [] if mass_miss is None else [mass_miss]
        if len(out["fields"]) != len(fields) or not all(
                np.array_equal(a, b) for a, b in zip(out["fields"], fields)):
            misses.append("fields differ between iterations")
        rel = np.abs(out["values"] - ref) / np.abs(ref)
        if not np.all(rel <= 1e-6):
            misses.append(f"variance curve off the reference by {float(np.max(rel)):.3e} (limit 1e-6)")
        return misses


class Corrector(Workload):
    """diffusivity_experiment in d=3: sparse resolvent solves, no eigendecomposition."""

    item = "fields"
    identities = ("chain-identity", "estimator-ordering")
    required = identities + ("convergence-order",)

    def __init__(self, seed, work, smoke):
        from condlab import environment, experiments

        self.seed = seed
        self.d, self.n = 3, (6 if smoke else 24)
        self.realizations = 4 if smoke else 32
        self.law = environment.parse_law(LAW)
        self.run_experiment = experiments.diffusivity_experiment

    @property
    def items_per_iteration(self):
        return self.realizations

    def _call(self, realizations):
        return self.run_experiment(
            self.law, self.d, self.n, MUS, realizations, self.seed,
            expected_order=1.5, workers=1,
        )

    def warmup(self):
        self._call(2)

    def iterate(self):
        report, sigma2, sigma2_se = self._call(self.realizations)
        return {"targets": [(t.name, t.passed) for t in report.targets],
                "sigma2": sigma2, "sigma2_se": sigma2_se}

    def check(self, outputs, smoke):
        ref = None if smoke else load_reference()["corrector"]
        return [self.check_one(out, ref) for out in outputs]

    @classmethod
    def check_one(cls, out, ref):
        """Without a reference (smoke sizes) only the algebraic identities are checked."""
        misses = _target_misses(out["targets"], cls.required if ref is not None else cls.identities)
        if ref is not None:
            z = _combined_sigmas(out["sigma2"], out["sigma2_se"], ref["sigma2"], ref["sigma2_se"])
            if z > 3.0:
                misses.append(f"sigma2 {out['sigma2']:.6g} is {z:.2f} combined stderr off the reference (limit 3)")
        return misses


class Walk(Workload):
    """msd_experiment with a fixed sigma2: the walker's jump loop, no operators."""

    item = "walks"
    required = ("gap-nonnegative", "gap-decreasing")
    times = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    def __init__(self, seed, work, smoke):
        from condlab import environment, experiments

        self.seed = seed
        self.d, self.n = 2, (8 if smoke else 24)
        self.realizations, self.walks = (2, 16) if smoke else (24, 256)
        self.law = environment.parse_law(LAW)
        self.sigma2 = load_reference()["walk"]["sigma2_input"]
        self.run_experiment = experiments.msd_experiment

    @property
    def items_per_iteration(self):
        return self.realizations * self.walks

    def _call(self, realizations, walks):
        return self.run_experiment(
            self.law, self.d, self.n, self.times, realizations, walks, self.seed,
            sigma2=self.sigma2["sigma2"], sigma2_se=self.sigma2["sigma2_se"], workers=1,
        )

    def warmup(self):
        self._call(1, 8)

    def iterate(self):
        report, _ = self._call(self.realizations, self.walks)
        _, rows = report.tables["msd"]
        return {"targets": [(t.name, t.passed) for t in report.targets],
                "msd_over_t": [r[1] for r in rows], "stderr": [r[2] for r in rows]}

    def check(self, outputs, smoke):
        ref = None if smoke else load_reference()["walk"]
        return [self.check_one(out, ref) for out in outputs]

    @classmethod
    def check_one(cls, out, ref):
        """Every check here is statistical; without a reference (smoke sizes) none applies."""
        if ref is None:
            return []
        misses = _target_misses(out["targets"], cls.required)
        for t, m, se, rm, rse in zip(cls.times, out["msd_over_t"], out["stderr"],
                                     ref["msd_over_t"], ref["stderr"]):
            z = _combined_sigmas(m, se, rm, rse)
            if z > 4.0:
                misses.append(f"MSD/t at t={t:g} is {z:.2f} combined stderr off the reference (limit 4)")
        return misses


# The README's eight commands, in its order.
README_COMMANDS = [
    ["simulate", "--law", LAW, "--d", "2", "--n", "16", "--horizon", "50"],
    ["decay", "--law", LAW, "--functional", "edge", "--d", "1", "--n", "1024",
     "--kind", "simple", "--realizations", "160", "--expected-alpha", "0.5"],
    ["diffusivity", "--law", LAW, "--d", "3", "--n", "16", "--realizations", "32",
     "--expected-order", "1.5"],
    ["msd", "--law", LAW, "--d", "2", "--n", "24"],
    ["spectrum", "--law", "uniform:1,3", "--n", "64", "--functional", "drift"],
    ["contract", "--p", "0.25", "--eps", "0.1", "--cap", "1e3"],
    ["nash-check", "--law", LAW, "--n-list", "1,2,4,8"],
    ["field-dump", "--law", LAW, "--d", "2", "--n", "8"],
]

# Appended in smoke mode only, to shrink each command; the last flag wins.
SMOKE_OVERRIDES = {
    "simulate": ["--horizon", "5"],
    "decay": ["--n", "64", "--realizations", "8"],
    "diffusivity": ["--n", "6", "--realizations", "4"],
    "msd": ["--n", "8", "--realizations", "2", "--walks", "8", "--no-trend"],
    "spectrum": ["--n", "16"],
    "contract": ["--realizations", "20000", "--fields", "2"],
    "nash-check": ["--n-list", "1,2"],
    "field-dump": [],
}


def _artifact_hashes(out_dir):
    """sha256 of config.txt, summary.txt and every CSV the command wrote."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name in ("config.txt", "summary.txt") or name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _result_line(out_dir):
    try:
        with open(os.path.join(out_dir, "summary.txt")) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    return lines[-1] if lines else None


class Readme(Workload):
    """The README's eight commands, each as `python -m condlab.cli ... --workers 1`.

    The commands are the README's fixed examples with their own default seed,
    so the benchmark seed does not enter them.  The traced run calls
    `condlab.cli.main(argv)` in-process instead, so spans can be recorded.
    """

    item = "commands"

    def __init__(self, seed, work, smoke):
        import condlab.cli

        self.main = condlab.cli.main
        self.out_root = os.path.join(work, "readme")
        self.argvs = []
        for argv in README_COMMANDS:
            extra = SMOKE_OVERRIDES[argv[0]] if smoke else []
            out = os.path.join(self.out_root, argv[0])
            self.argvs.append((argv[0], argv + extra + ["--workers", "1", "--out", out], out))

    @property
    def items_per_iteration(self):
        return len(self.argvs)

    def warmup(self):
        name, argv, out = self.argvs[-1]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.main(argv)
        shutil.rmtree(self.out_root, ignore_errors=True)

    def iterate(self):
        shutil.rmtree(self.out_root, ignore_errors=True)
        codes = []
        for name, argv, out in self.argvs:
            proc = subprocess.run([sys.executable, "-m", "condlab.cli"] + argv,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=150)
            codes.append(proc.returncode)
        return self._collect(codes)

    def iterate_traced(self, rec):
        """In-process `condlab.cli.main(argv)` calls, one span per command when traced."""
        shutil.rmtree(self.out_root, ignore_errors=True)
        codes = []
        for name, argv, out in self.argvs:
            index = rec.begin(f"cli.{name}") if rec is not None else None
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(self.main(argv))
            finally:
                if index is not None:
                    rec.end(index)
        return self._collect(codes)

    def _collect(self, codes):
        out = []
        for (name, _, out_dir), code in zip(self.argvs, codes):
            out.append({"command": name, "code": code, "result": _result_line(out_dir),
                        "hashes": _artifact_hashes(out_dir) if os.path.isdir(out_dir) else {}})
        return out

    def check(self, outputs, smoke):
        return [self.check_one(out, outputs[0]) for out in outputs]

    @staticmethod
    def check_one(out, first):
        misses = []
        for cmd, base in zip(out, first):
            if cmd["code"] != 0:
                misses.append(f"{cmd['command']} exited {cmd['code']}")
            if cmd["result"] != "result: pass":
                misses.append(f"{cmd['command']} summary ends {cmd['result']!r}")
            if cmd["hashes"] != base["hashes"] or not cmd["hashes"]:
                misses.append(f"{cmd['command']} artifacts differ from the first iteration")
        return misses


WORKLOADS = {"spectral": Spectral, "corrector": Corrector, "walk": Walk, "readme": Readme}
