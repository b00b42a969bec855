"""Command line front end.

Eight subcommands drive the library: simulate, decay, diffusivity, msd,
spectrum, contract, nash-check, field-dump.  Parameters come from flags or
from a key=value config file (--config); flags win on conflict.  Every run
echoes its resolved config next to its outputs, so artifacts are reproducible
from the directory alone.

Exit codes: 0 all targets passed, 1 a target failed, 2 invalid configuration
(nothing is written), 3 a backend or solver gave up.
"""

import argparse
import os
import sys

import numpy as np

from .environment import (
    Lattice,
    classify_sites,
    default_eta,
    field_to_csv,
    parse_law,
    sample_field,
    save_field,
    w_statistic,
)
from .errors import (
    AliasingError,
    BackendError,
    ConfigError,
    NonergodicError,
    ParameterError,
    SaturationError,
    SolverError,
)
from .experiments import (
    ExperimentReport,
    contractivity_experiment,
    diffusivity_experiment,
    msd_experiment,
    nash_chain_check,
    variance_decay_experiment,
    write_report,
)
from .functionals import evaluate_all, functional_by_name
from .operators import build_generator, save_spectrum_csv
from .spectral import asymptotic_variance, save_measure_csv, spectral_measure
from .util import child_rng
from .walker import simulate_srw, simulate_vsrw, trajectory_to_csv

__all__ = ["main", "parse_config"]


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _increasing(vals):
    return len(vals) > 0 and all(b > a for a, b in zip(vals, vals[1:]))


# key -> (parser tag, constraint, message); shared by config files and flags
_KEYS = {
    "law": ("law", None, None),
    "d": ("int", lambda v: v >= 1, "d must be >= 1"),
    "n": ("int", lambda v: v >= 3, "n must be >= 3"),
    "functional": ("str", None, None),
    "kind": ("choice:conductance,simple", None, None),
    "method": ("choice:spectral,mc", None, None),
    "times": ("floats", lambda v: _increasing(v) and v[0] > 0,
              "times must be positive and strictly increasing"),
    "mu": ("floats", lambda v: len(v) > 0 and bool(np.all(np.array(v) > 0)),
           "all mu values must be > 0"),
    "t-grid": ("floats", lambda v: _increasing(v) and v[0] >= 0,
               "t-grid must be nonnegative and strictly increasing"),
    "fit-window": ("floats", lambda v: len(v) == 2 and 0 < v[0] < v[1],
                   "fit-window must be LO,HI with 0 < LO < HI"),
    "n-list": ("ints", lambda v: len(v) > 0 and min(v) >= 1, "box sizes must be >= 1"),
    "realizations": ("int", lambda v: v >= 1, "realizations must be >= 1"),
    "walks": ("int", lambda v: v >= 1, "walks must be >= 1"),
    "fields": ("int", lambda v: v >= 1, "fields must be >= 1"),
    "horizon": ("float", lambda v: v > 0, "horizon must be > 0"),
    "seed": ("int", lambda v: v >= 0, "seed must be >= 0"),
    "start": ("int", lambda v: v >= 0, "start must be >= 0"),
    "eta": ("float", lambda v: v > 0, "eta must be > 0"),
    "torus-n": ("int", lambda v: v >= 3, "torus-n must be >= 3"),
    "p": ("float", lambda v: 0 <= v <= 1, "p must be in [0, 1]"),
    "eps": ("float", lambda v: v > 0, "eps must be > 0"),
    "cap": ("float", lambda v: v > 1, "cap must be > 1"),
    "expected-alpha": ("float", None, None),
    "alpha-tol": ("float", lambda v: v > 0, "alpha-tol must be > 0"),
    "expected-order": ("float", None, None),
    "order-tol": ("float", lambda v: v > 0, "order-tol must be > 0"),
    "sigma2": ("float", lambda v: v > 0, "sigma2 must be > 0"),
    "workers": ("int", lambda v: v >= 1, "workers must be >= 1"),
    "out": ("str", None, None),
    "experiment": ("str", None, None),
}


def _convert(key, raw, location):
    tag, constraint, message = _KEYS[key]
    try:
        if tag == "int":
            value = int(raw)
        elif tag == "float":
            value = float(raw)
        elif tag == "floats":
            value = _floats(raw)
        elif tag == "ints":
            value = _ints(raw)
        elif tag == "law":
            value = parse_law(raw)
        elif tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split(",")
            value = raw.strip()
            if value not in choices:
                raise ConfigError([(location, f"{key} must be one of {', '.join(choices)}, got {raw!r}")])
        else:
            value = raw.strip()
    except ConfigError:
        raise
    except ParameterError as exc:
        raise ConfigError([(location, str(exc))])
    except ValueError:
        kind = {"int": "an integer", "float": "a number",
                "floats": "comma-separated numbers", "ints": "comma-separated integers"}[tag]
        raise ConfigError([(location, f"{key} expects {kind}, got {raw!r}")])
    if tag in ("float", "floats") and not np.all(np.isfinite(value)):
        raise ConfigError([(location, f"{key} must be finite, got {raw!r}")])
    if constraint is not None and not constraint(value):
        raise ConfigError([(location, message)])
    return value


def parse_config(text):
    """Parse a key=value config file, reporting every problem at once.

    Blank lines and # comments are skipped.  Unknown keys, malformed values
    and constraint violations are all collected with their line numbers
    before a single ConfigError is raised.
    """
    values = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            errors.append((f"line {lineno}", f"expected key=value, got {body!r}"))
            continue
        if key not in _KEYS:
            errors.append((f"line {lineno}", f"unknown key {key!r}"))
            continue
        try:
            values[key.replace("-", "_")] = _convert(key, raw, f"line {lineno}")
        except ConfigError as exc:
            errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return values


# ---------------------------------------------------------------------------
# Subcommand table


class _Command:
    def __init__(self, defaults, required, runner, help_text, epilog):
        self.defaults = defaults
        self.required = required
        self.runner = runner
        self.help = help_text
        self.epilog = epilog


def _run_simulate(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    if cfg["start"] >= lat.n_sites:
        raise ConfigError([("--start", f"start site {cfg['start']} out of range (torus has {lat.n_sites} sites)")])
    field = sample_field(cfg["law"], lat, cfg["seed"])
    rng = child_rng(cfg["seed"], 9)
    if cfg["kind"] == "conductance":
        traj = simulate_vsrw(field, cfg["start"], cfg["horizon"], rng)
    else:
        traj = simulate_srw(lat, cfg["start"], cfg["horizon"], rng)
    report = ExperimentReport(
        "simulate",
        config={k: cfg[k] if k != "law" else cfg["law"].descriptor()
                for k in ("law", "d", "n", "kind", "horizon", "start", "seed")},
    )
    final = traj.displacements[-1]
    report.notes.append(f"{traj.jump_count} jumps in time {cfg['horizon']:g}")
    report.notes.append(f"final displacement {tuple(int(x) for x in final)}")
    extras = [
        lambda out: trajectory_to_csv(traj, os.path.join(out, "trajectory.csv")),
        lambda out: save_field(field, os.path.join(out, "field.txt")),
    ]
    return report, extras


def _run_decay(cfg):
    _, report = variance_decay_experiment(
        cfg["law"], cfg["d"], cfg["n"], cfg["functional"], cfg["kind"],
        cfg["times"], cfg["realizations"], cfg["seed"], method=cfg["method"],
        walks=cfg["walks"], fit_window=cfg["fit_window"],
        expected_alpha=cfg["expected_alpha"], alpha_tol=cfg["alpha_tol"],
        workers=cfg["workers"],
    )
    return report, []


def _run_diffusivity(cfg):
    report, _, _ = diffusivity_experiment(
        cfg["law"], cfg["d"], cfg["n"], cfg["mu"], cfg["realizations"], cfg["seed"],
        expected_order=cfg["expected_order"], order_tol=cfg["order_tol"],
        workers=cfg["workers"],
    )
    return report, []


def _run_msd(cfg):
    report, _ = msd_experiment(
        cfg["law"], cfg["d"], cfg["n"], cfg["times"], cfg["realizations"],
        cfg["walks"], cfg["seed"], sigma2=cfg["sigma2"], mus=cfg["mu"],
        trend_check=not cfg["no_trend"], workers=cfg["workers"],
    )
    return report, []


def _run_spectrum(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    field = sample_field(cfg["law"], lat, cfg["seed"])
    op = build_generator(field, cfg["kind"])
    lam, _ = op.eigensystem()
    positive = lam[lam > 0]
    report = ExperimentReport(
        "spectrum",
        config={k: cfg[k] if k != "law" else cfg["law"].descriptor()
                for k in ("law", "d", "n", "kind", "seed")},
    )
    report.notes.append(f"{int(np.sum(lam == 0))} zero modes, spectral gap {positive[0]:.12g}")
    extras = [lambda out: save_spectrum_csv(op, os.path.join(out, "spectrum.csv"))]
    if cfg["functional"] is not None:
        f = functional_by_name(cfg["functional"], cfg["d"], cfg["law"])
        m = spectral_measure(op, evaluate_all(f, field), center=True)
        report.config["functional"] = cfg["functional"]
        report.notes.append(f"measure mass {m.total_mass:.12g} (mean {m.removed_mean:.12g} removed)")
        try:
            report.notes.append(f"asymptotic variance {asymptotic_variance(m):.12g}")
        except NonergodicError:
            report.notes.append("measure keeps weight at 0; no asymptotic variance")
        extras.append(lambda out: save_measure_csv(m, os.path.join(out, "measure.csv")))
    return report, extras


def _run_contract(cfg):
    report, _ = contractivity_experiment(
        cfg["p"], cfg["eps"], cfg["cap"], realizations=cfg["realizations"],
        seed=cfg["seed"], fields=cfg["fields"], torus_n=cfg["torus_n"],
        t_grid=cfg["t_grid"], workers=cfg["workers"],
    )
    return report, []


def _run_nash_check(cfg):
    report = nash_chain_check(
        cfg["law"], cfg["d"], cfg["n_list"], cfg["functional"],
        cfg["realizations"], cfg["seed"], torus_n=cfg["torus_n"],
        workers=cfg["workers"],
    )
    return report, []


def _run_field_dump(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    field = sample_field(cfg["law"], lat, cfg["seed"])
    try:
        eta = cfg["eta"] if cfg["eta"] is not None else default_eta(cfg["law"], cfg["d"])
    except ParameterError as exc:
        raise ConfigError([("--eta", str(exc))])
    cls = classify_sites(field, eta)
    report = ExperimentReport(
        "field-dump",
        config={k: cfg[k] if k != "law" else cfg["law"].descriptor()
                for k in ("law", "d", "n", "seed")},
    )
    report.config["eta"] = eta
    try:
        w = w_statistic(field, eta)
        w_text = f"{w:.12g}"
    except SaturationError as exc:
        w, w_text = float("nan"), "saturated"
        report.notes.append(str(exc))
    report.add_table("classification", ("eta", "bad_fraction", "w_statistic"),
                     [(eta, cls.bad_fraction, w)])
    report.notes.append(
        f"bad fraction {cls.bad_fraction:.6g} at eta {eta:.6g}, W = {w_text}"
    )
    extras = [
        lambda out: field_to_csv(field, os.path.join(out, "field.csv")),
        lambda out: save_field(field, os.path.join(out, "field.txt")),
    ]
    return report, extras


_COMMANDS = {
    "simulate": _Command(
        {"law": None, "d": 1, "n": 64, "kind": "conductance", "horizon": 10.0, "start": 0},
        ["law"],
        _run_simulate,
        "simulate one walk and dump its trajectory",
        "writes trajectory.csv (time,site,dx0..dx{d-1}) and field.txt",
    ),
    "decay": _Command(
        {"law": None, "functional": None, "d": 1, "n": 256, "kind": "conductance",
         "method": "spectral", "times": list(np.geomspace(1.0, 100.0, 21)),
         "realizations": 16, "walks": 32, "fit_window": None,
         "expected_alpha": None, "alpha_tol": 0.2},
        ["law", "functional"],
        _run_decay,
        "variance decay of a local functional along the walk",
        "writes curve.csv (time,value,stderr); exponent fitted on the last decade unless --fit-window is given",
    ),
    "diffusivity": _Command(
        {"law": None, "d": 3, "n": 16,
         "mu": [1.0, 0.7071067811865476, 0.5, 0.3535533905932738, 0.25, 0.17677669529663687, 0.01],
         "realizations": 8, "expected_order": None, "order_tol": 0.35},
        ["law"],
        _run_diffusivity,
        "regularized corrector sweep and effective diffusivity",
        "writes estimators.csv (mu,a0,a1,a2,a2_stderr,phi_sq,a2_minus_baseline,diff_stderr); smallest mu is the baseline",
    ),
    "msd": _Command(
        {"law": None, "d": 2, "n": 24, "times": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
         "realizations": 8, "walks": 64, "sigma2": None, "mu": None, "no_trend": False},
        ["law"],
        _run_msd,
        "mean square displacement against the diffusive limit",
        "writes msd.csv (time,msd_over_t,stderr,gap,gap_stderr); sigma2 is estimated when not supplied",
    ),
    "spectrum": _Command(
        {"law": None, "d": 1, "n": 64, "kind": "conductance", "functional": None},
        ["law"],
        _run_spectrum,
        "eigenvalues of the generator, optionally with a functional's measure",
        "writes spectrum.csv (index,eigenvalue) and, with --functional, measure.csv (lambda,weight)",
    ),
    "contract": _Command(
        {"p": 0.25, "eps": 0.1, "cap": 1e3, "realizations": 4_000_000,
         "fields": 12, "torus_n": 12, "t_grid": [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]},
        [],
        _run_contract,
        "initial derivative of the box-sum square under heavy-tailed edges",
        "writes derivative.csv (formula,mc_estimate,mc_stderr,verdict) and analogue_curve.csv (time,mean_square_boxsum)",
    ),
    "nash-check": _Command(
        {"law": None, "d": 1, "functional": "drift", "n_list": [1, 2, 4, 8],
         "realizations": 4, "torus_n": None},
        ["law"],
        _run_nash_check,
        "pathwise box inequality across box sizes",
        "writes boxes.csv (n_box,c_s,lhs_mean,rhs_mean,min_slack)",
    ),
    "field-dump": _Command(
        {"law": None, "d": 2, "n": 8, "eta": None},
        ["law"],
        _run_field_dump,
        "sample a field, classify its sites, dump everything",
        "writes field.csv (axis,site,x0..,value), field.txt and classification.csv (eta,bad_fraction,w_statistic)",
    ),
}

_FLAG_HELP = {
    "law": "conductance law: constant:V | uniform:A,B | twopoint:P,LO,HI | boundedpareto:P,EPS[,CAP]",
    "d": "lattice dimension",
    "n": "torus period per axis (>= 3)",
    "functional": "drift | edge | contract-example | poly:EXPR",
    "kind": "walk kind: conductance (rates = edges) or simple (rate 1)",
    "method": "decay estimator: spectral (exact atoms) or mc (walk ensemble)",
    "times": "comma-separated sampling times, increasing",
    "mu": "comma-separated resolvent parameters; smallest is the baseline",
    "t-grid": "comma-separated times for the analogue curve",
    "fit-window": "LO,HI window for the power-law fit",
    "n-list": "comma-separated box radii",
    "realizations": "number of independent fields",
    "walks": "walks per field",
    "fields": "fields for the analogue curve",
    "horizon": "simulation end time",
    "seed": "master seed",
    "start": "starting site index",
    "eta": "good-site threshold (default: analytic, when the law has one)",
    "torus-n": "torus period override for auxiliary runs",
    "p": "weight of the heavy component",
    "eps": "tail exponent offset (tail index 4+eps)",
    "cap": "upper truncation of the heavy component",
    "expected-alpha": "assert the fitted decay exponent is near this value",
    "alpha-tol": "tolerance for --expected-alpha",
    "expected-order": "assert the fitted mu order is near this value",
    "order-tol": "tolerance for --expected-order",
    "sigma2": "effective diffusivity to compare against (skips estimating it)",
    "workers": "process pool size (default: all cores)",
    "out": "output directory (default: condlab-out/<command>)",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="condlab",
        description="numerical laboratory for random walks among random conductances",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, epilog=spec.epilog)
        p.add_argument("--config", metavar="FILE", help="key=value file; flags override it")
        for key in ("seed", "workers", "out"):
            p.add_argument(f"--{key}", help=_FLAG_HELP[key])
        for key in spec.defaults:
            flag = key.replace("_", "-")
            if flag == "no-trend":
                p.add_argument("--no-trend", action="store_true",
                               help="skip the gap trend target")
                continue
            p.add_argument(f"--{flag}", help=_FLAG_HELP[flag], metavar=flag.upper())
    return parser


def _assemble(args):
    spec = _COMMANDS[args.command]
    cfg = {key: val for key, val in spec.defaults.items()}
    cfg.setdefault("seed", 0)
    cfg.setdefault("workers", None)
    cfg.setdefault("out", None)
    errors = []
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([("--config", f"cannot read {args.config!r}: {exc}")])
        try:
            loaded = parse_config(text)
        except ConfigError as exc:
            raise ConfigError([(f"{args.config}: {loc}", msg) for loc, msg in exc.errors])
        exp = loaded.pop("experiment", None)
        if exp is not None and exp != args.command:
            errors.append((args.config, f"config is for {exp!r} but the command is {args.command!r}"))
        for key, val in loaded.items():
            if key in cfg:
                cfg[key] = val
    for key in _KEYS:
        dest = key.replace("-", "_")
        raw = getattr(args, dest, None)
        if raw is None or dest not in cfg:
            continue
        try:
            cfg[dest] = _convert(key, raw, f"--{key}")
        except ConfigError as exc:
            errors.extend(exc.errors)
    if getattr(args, "no_trend", False):
        cfg["no_trend"] = True
    for key in spec.required:
        if cfg.get(key) is None:
            errors.append((f"--{key.replace('_', '-')}", "required (flag or config file)"))
    if errors:
        raise ConfigError(errors)
    if cfg["workers"] is None:
        cfg["workers"] = os.cpu_count() or 1
    if cfg["out"] is None:
        cfg["out"] = os.path.join("condlab-out", args.command)
    return cfg


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _assemble(args)
        report, extras = _COMMANDS[args.command].runner(cfg)
    except ConfigError as exc:
        for loc, msg in exc.errors:
            print(f"config error ({loc}): {msg}", file=sys.stderr)
        return 2
    except (ParameterError, AliasingError, NonergodicError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BackendError, SolverError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    out = cfg["out"]
    paths = write_report(report, out)
    for extra in extras:
        extra(out)
    with open(os.path.join(out, "summary.txt")) as fh:
        sys.stdout.write(fh.read())
    print(f"wrote {out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
