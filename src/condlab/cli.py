"""Command line front end.

Eight subcommands drive the library: simulate, decay, diffusivity, msd,
spectrum, contract, nash-check, field-dump.  Parameters come from flags or
from a key=value config file (--config); flags win on conflict.  Each
subcommand's runner returns an ExperimentReport, and write_report writes all
of it, field.txt included, after checking that none of its paths is a
directory.  config.txt is written here, from the resolved config: every
input but out and workers, unset ones left out, under the keys parse_config
reads, floats in shortest round-trip form and laws by descriptor.  Results
go to summary.txt and the tables, so `--config <out>/config.txt` reruns the
command and rewrites the directory byte for byte.

Exit codes: 0 all targets passed, 1 a target failed, 2 invalid configuration
(nothing is written) or an --out that cannot be written, 3 a backend or
solver gave up.
"""

import argparse
import os
import sys
from collections import namedtuple

import numpy as np

from .environment import (
    ConductanceField,
    ConductanceLaw,
    Lattice,
    classify_sites,
    default_eta,
    parse_law,
    sample_field,
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
    _DECAY_METHODS,
    ExperimentReport,
    contractivity_experiment,
    diffusivity_experiment,
    msd_experiment,
    nash_chain_check,
    variance_decay_experiment,
    write_report,
)
from .functionals import evaluate_all, functional_by_name
from .operators import _WALK_WEIGHTS, _walk_weights, build_generator
from .spectral import asymptotic_variance, spectral_measure
from .util import STREAM_SIMULATE_WALK, child_rng, field_seed, float_text
from .walker import simulate_vsrw

__all__ = ["main", "parse_config"]


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _increasing(vals):
    return len(vals) > 0 and all(b > a for a, b in zip(vals, vals[1:]))


# key -> (parser tag, constraint, message, flag help); shared by config files and flags
_KEYS = {
    "law": ("law", None, None,
            "conductance law: constant:V | uniform:A,B | twopoint:P,LO,HI | boundedpareto:P,EPS[,CAP]"),
    "d": ("int", lambda v: v >= 1, "d must be >= 1", "lattice dimension"),
    "n": ("int", lambda v: v >= 3, "n must be >= 3", "torus period per axis (>= 3)"),
    "functional": ("str", None, None, "drift | edge | contract-example | poly:EXPR"),
    "kind": ("choice:" + ",".join(_WALK_WEIGHTS), None, None,
             "walk kind: conductance (rates = edges) or simple (rate 1)"),
    "method": ("choice:" + ",".join(_DECAY_METHODS), None, None,
               "decay estimator: spectral (exact atoms) or mc (walk ensemble)"),
    "times": ("floats", lambda v: _increasing(v) and v[0] > 0,
              "times must be positive and strictly increasing", "comma-separated sampling times, increasing"),
    "mu": ("floats", lambda v: len(v) > 0 and bool(np.all(np.array(v) > 0)), "all mu values must be > 0",
           "comma-separated positive resolvent parameters; mu=0 is always solved too"),
    "t-grid": ("floats", lambda v: len(v) >= 2 and _increasing(v) and v[0] >= 0,
               "t-grid must be at least two nonnegative, strictly increasing times",
               "comma-separated times for the analogue curve"),
    "fit-window": ("floats", lambda v: len(v) == 2 and 0 < v[0] < v[1],
                   "fit-window must be LO,HI with 0 < LO < HI", "LO,HI window for the power-law fit"),
    "n-list": ("ints", lambda v: len(v) > 0 and min(v) >= 1, "box sizes must be >= 1", "comma-separated box radii"),
    "realizations": ("int", lambda v: v >= 1, "realizations must be >= 1", "number of independent fields"),
    "walks": ("int", lambda v: v >= 1, "walks must be >= 1", "walks per field"),
    "fields": ("int", lambda v: v >= 1, "fields must be >= 1", "fields for the analogue curve"),
    "horizon": ("float", lambda v: v > 0, "horizon must be > 0", "simulation end time"),
    "seed": ("int", lambda v: v >= 0, "seed must be >= 0", "master seed"),
    "start": ("int", lambda v: v >= 0, "start must be >= 0", "starting site index"),
    "eta": ("float", lambda v: v > 0, "eta must be > 0",
            "good-site threshold (default: analytic, when the law has one)"),
    "torus-n": ("int", lambda v: v >= 3, "torus-n must be >= 3", "torus period override for auxiliary runs"),
    "p": ("float", lambda v: 0 <= v <= 1, "p must be in [0, 1]", "weight of the heavy component"),
    "eps": ("float", lambda v: v > 0, "eps must be > 0", "tail exponent offset (tail index 4+eps)"),
    "cap": ("float", lambda v: v > 1, "cap must be > 1", "upper truncation of the heavy component"),
    "expected-alpha": ("float", None, None, "assert the fitted decay exponent is near this value"),
    "alpha-tol": ("float", lambda v: v > 0, "alpha-tol must be > 0", "tolerance for --expected-alpha"),
    "expected-order": ("float", None, None, "assert the fitted mu order is near this value"),
    "order-tol": ("float", lambda v: v > 0, "order-tol must be > 0", "tolerance for --expected-order"),
    "sigma2": ("float", lambda v: v > 0, "sigma2 must be > 0",
               "effective diffusivity to compare against (skips the torus solves; the gap is then unpaired)"),
    "no-trend": ("flag", None, None, "skip the gap trend target (in a config file: no-trend=true)"),
    "workers": ("int", lambda v: v >= 1, "workers must be >= 1", "process pool size (default: 1)"),
    "out": ("str", None, None, "output directory (default: condlab-out/<command>)"),
    "experiment": ("str", None, None, None),
}


# parser tag -> parser; flags and choices are parsed in _convert
_PARSERS = {"int": int, "float": float, "floats": _floats, "ints": _ints, "law": parse_law, "str": str.strip}


def _convert(key, raw, location):
    tag, constraint, message, _ = _KEYS[key]
    try:
        if tag in _PARSERS:
            value = _PARSERS[tag](raw)
        elif tag == "flag":
            value = raw.strip()
            if value not in ("true", "false"):
                raise ConfigError([(location, f"{key} must be true or false, got {raw!r}")])
            value = value == "true"
        elif tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split(",")
            value = raw.strip()
            if value not in choices:
                raise ConfigError([(location, f"{key} must be one of {', '.join(choices)}, got {raw!r}")])
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


def _config_text(value):
    """A resolved config value as parse_config reads it back: floats exact, laws by descriptor."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_text(value)
    if isinstance(value, list):
        return ",".join(_config_text(v) for v in value)
    if isinstance(value, ConductanceLaw):
        return value.descriptor()
    return str(value)


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


# a subcommand's keys with their defaults, the keys it requires, its runner, help and epilog;
# a runner takes the resolved config and returns the ExperimentReport that write_report writes
_Command = namedtuple("_Command", "defaults required runner help epilog")


def _library_args(cfg):
    """The resolved config minus out: for each experiment command, its keys are
    exactly the keyword parameters of the experiment the command runs."""
    return {k: v for k, v in cfg.items() if k != "out"}


def _run_simulate(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    if cfg["start"] >= lat.n_sites:
        raise ConfigError([("--start", f"start site {cfg['start']} out of range (torus has {lat.n_sites} sites)")])
    field = sample_field(cfg["law"], lat, field_seed(cfg["seed"], 0))
    walked = ConductanceField(lat, _walk_weights(field, cfg["kind"]))  # the simple walk's are all ones
    traj = simulate_vsrw(walked, cfg["start"], cfg["horizon"], child_rng(cfg["seed"], STREAM_SIMULATE_WALK))
    report = ExperimentReport("simulate", field=field)
    final = traj.displacement_at(traj.horizon)  # the start for a walk that never jumps
    report.notes.append(f"{traj.jump_count} jumps in time {cfg['horizon']:g}")
    report.notes.append(f"final displacement {tuple(int(x) for x in final)}")
    # the t = 0 row, then one row per jump
    jumps = zip(traj.times.tolist(), traj.sites.tolist(), traj.displacements.tolist())
    report.add_table("trajectory", ["time", "site"] + [f"dx{i}" for i in range(lat.d)],
                     [(0, traj.start) + (0,) * lat.d] + [(t, s, *dx) for t, s, dx in jumps])
    return report


def _run_spectrum(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    field = sample_field(cfg["law"], lat, field_seed(cfg["seed"], 0))
    op = build_generator(field, cfg["kind"])
    lam, _ = op.eigensystem()
    positive = lam[lam > 0]
    report = ExperimentReport("spectrum")
    report.notes.append(f"{int(np.sum(lam == 0))} zero modes, spectral gap {positive[0]:.12g}")
    report.add_table("spectrum", ("index", "eigenvalue"), enumerate(lam.tolist()))
    if cfg["functional"] is not None:
        f = functional_by_name(cfg["functional"], cfg["d"], cfg["law"])
        m = spectral_measure(op, evaluate_all(f, field), center=True)
        report.notes.append(f"measure mass {m.total_mass:.12g} (mean {m.removed_mean:.12g} removed)")
        try:
            report.notes.append(f"asymptotic variance {asymptotic_variance(m):.12g}")
        except NonergodicError:
            report.notes.append("measure keeps weight at 0; no asymptotic variance")
        # repr strings, which write_report keeps as they are, so load_measure_csv reads m back exactly
        report.add_table("measure", ("lambda", "weight"),
                         [(repr(x), repr(w)) for x, w in zip(m.lambdas.tolist(), m.weights.tolist())])
    return report


def _run_field_dump(cfg):
    lat = Lattice(cfg["d"], cfg["n"])
    field = sample_field(cfg["law"], lat, field_seed(cfg["seed"], 0))
    try:
        eta = cfg["eta"] if cfg["eta"] is not None else default_eta(cfg["law"], cfg["d"])
    except ParameterError as exc:
        raise ConfigError([("--eta", str(exc))])
    cls = classify_sites(field, eta)
    report = ExperimentReport("field-dump", field=field)
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
    coords = list(zip(*(c.tolist() for c in np.unravel_index(np.arange(lat.n_sites), lat.shape))))
    report.add_table("field", ["axis", "site"] + [f"x{i}" for i in range(lat.d)] + ["value"],
                     [(axis, site, *coords[site], value) for axis in range(lat.d)
                      for site, value in enumerate(field.omega[axis].tolist())])
    return report


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
        lambda cfg: variance_decay_experiment(**_library_args(cfg))[1],
        "variance decay of a local functional along the walk",
        "writes curve.csv (time,value,stderr); exponent fitted on the last decade unless --fit-window is given",
    ),
    "diffusivity": _Command(
        {"law": None, "d": 3, "n": 16,
         "mu": [1.0, 0.7071067811865476, 0.5, 0.3535533905932738, 0.25, 0.17677669529663687, 0.01],
         "realizations": 8, "expected_order": None, "order_tol": 0.35},
        ["law"],
        lambda cfg: diffusivity_experiment(**_library_args(cfg))[0],
        "regularized corrector sweep and exact torus diffusivity",
        "writes estimators.csv (mu,a0,a1,a2,a2_stderr,phi_sq,a2_minus_torus,diff_stderr), one row per mu "
        "and one at mu=0, and fields.csv (field,sigma2_torus) with each field's 2 A2(0)",
    ),
    "msd": _Command(
        {"law": None, "d": 2, "n": 24, "times": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
         "realizations": 8, "walks": 64, "sigma2": None, "no_trend": False},
        ["law"],
        lambda cfg: msd_experiment(**_library_args(cfg))[0],
        "mean square displacement against the diffusive limit",
        "writes msd.csv (time,msd_over_t,stderr,gap,gap_stderr); without --sigma2, each walked "
        "field's torus diffusivity 2 A2(0) is solved and listed in fields.csv (field,sigma2_torus), "
        "and the gap is the mean of the per-field gaps with their stderr",
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
        lambda cfg: contractivity_experiment(**_library_args(cfg))[0],
        "initial derivative of the box-sum square under heavy-tailed edges",
        "writes derivative.csv (formula,mc_estimate,mc_stderr,verdict) and analogue_curve.csv (time,mean_square_boxsum)",
    ),
    "nash-check": _Command(
        {"law": None, "d": 1, "functional": "drift", "n_list": [1, 2, 4, 8],
         "realizations": 4, "torus_n": None},
        ["law"],
        lambda cfg: nash_chain_check(**_library_args(cfg)),
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
            p.add_argument(f"--{key}", help=_KEYS[key][3])
        for key in spec.defaults:
            flag = key.replace("_", "-")
            if _KEYS[flag][0] == "flag":  # a bare flag stands for flag=true
                p.add_argument(f"--{flag}", action="store_const", const="true", help=_KEYS[flag][3])
            else:
                p.add_argument(f"--{flag}", help=_KEYS[flag][3], metavar=flag.upper())
    return parser


def _assemble(args):
    spec = _COMMANDS[args.command]
    cfg = {"seed": 0, "workers": 1, "out": None, **spec.defaults}
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
            else:
                errors.append((args.config, f"{args.command} takes no key {key.replace('_', '-')!r}"))
    for key in _KEYS:
        dest = key.replace("-", "_")
        raw = getattr(args, dest, None)
        if raw is None or dest not in cfg:
            continue
        try:
            cfg[dest] = _convert(key, raw, f"--{key}")
        except ConfigError as exc:
            errors.extend(exc.errors)
    for key in spec.required:
        if cfg.get(key) is None:
            errors.append((f"--{key.replace('_', '-')}", "required (flag or config file)"))
    if errors:
        raise ConfigError(errors)
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
        try:
            report = _COMMANDS[args.command].runner(cfg)
        except ConfigError as exc:  # the library names a config key, the command line its flag
            raise ConfigError([(f"--{loc.replace('_', '-')}" if loc.replace("_", "-") in _KEYS else loc, msg)
                               for loc, msg in exc.errors])
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
    # the run's inputs under their config-file keys, so --config <out>/config.txt reruns it
    report.config = {key.replace("_", "-"): _config_text(value) for key, value in cfg.items()
                     if key not in ("out", "workers") and value is not None}
    try:
        write_report(report, out)
    except OSError as exc:
        print(f"config error (--out): {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(out, "summary.txt")) as fh:
        sys.stdout.write(fh.read())
    print(f"wrote {out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
