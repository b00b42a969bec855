"""Desk-scale reproductions: decay exponents, diffusivity orders, MSD gaps,
the non-contractivity counterexample, and the box-inequality chain.

Every experiment returns an ExperimentReport holding result tables, fits,
notes and pass/fail target checks; write_report serializes all of it
deterministically (no timestamps, fixed float formatting), so reruns of the
same inputs produce byte-identical artifacts.  The report's config, the
inputs that config.txt lists, is left empty here: the command line fills it
from the config it resolved.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .environment import _FIELD_MAGIC, BoundedPareto, Constant, Lattice, sample_field, save_field
from .errors import ConfigError, FitError
from .functionals import (
    Polynomial,
    box_sum_field,
    contract_example,
    evaluate_all,
    functional_by_name,
    local_drift,
)
from .operators import (
    build_generator,
    dirichlet_form,
    resolvent_solve,
    simple_generator,
    sobolev_constant,
)
from .spectral import (
    DecayCurve,
    PowerLawFit,
    Quadrature,
    _QUADRATURE_ROWS,
    _quadrature_group,
    diffusivity_estimators,
    fourier_measure,
    variance_curve,
)
from .util import (
    STREAM_CONTRACT_WINDOWS,
    STREAM_DECAY_WALKS,
    child_rng,
    field_groups,
    field_seed,
    mean_and_stderr,
    parallel_map,
)
from .walker import _field_batch, _field_groups, msd_estimate

__all__ = [
    "TargetCheck",
    "ExperimentReport",
    "write_report",
    "decay_fit",
    "variance_decay_experiment",
    "diffusivity_experiment",
    "msd_experiment",
    "ContractivityResult",
    "contractivity_experiment",
    "nash_chain_check",
]


@dataclass
class TargetCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    experiment: str
    config: dict = dc_field(default_factory=dict)  # key -> text, written to config.txt as it is
    tables: dict = dc_field(default_factory=dict)
    fits: dict = dc_field(default_factory=dict)
    targets: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)
    field: object = None  # a Field that write_report saves as field.txt

    @property
    def passed(self):
        return all(t.passed for t in self.targets)

    def add_table(self, name, columns, rows):
        self.tables[name] = (list(columns), [tuple(r) for r in rows])

    def check(self, name, passed, detail):
        self.targets.append(TargetCheck(name, bool(passed), detail))


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def write_report(report, out_dir):
    """Write config.txt, summary, CSV tables and field.txt; returns the paths written.

    config.txt holds an experiment= line, then each report.config key with
    its text as it is, in key order; a report built by the library alone has
    no keys there.

    This is the one writer of `# condlab-csv v1` files: a cell is written
    with 12 significant digits, or as it is when it is already a string.
    First it checks that no path it will write is a directory, and raises
    IsADirectoryError naming the path if one is, so that such a run writes
    nothing.  Then it removes the files in out_dir that this report does not
    write and that begin as a table or a field record does, so a rerun into
    the same directory keeps none of an earlier run's artifacts.  A report
    that carries a field saves it as field.txt.
    """
    import errno
    import os

    written = ["config.txt", *(f"{name}.csv" for name in sorted(report.tables)), "summary.txt"]
    if report.field is not None:
        written.append("field.txt")
    paths = [os.path.join(out_dir, name) for name in written]
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    os.makedirs(out_dir, exist_ok=True)
    for name in set(os.listdir(out_dir)) - set(written):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, errors="replace") as fh:
                head = fh.readline(80)
            if head == _FIELD_MAGIC + "\n" or head.startswith("# condlab-csv v1 "):
                os.remove(path)

    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write("# condlab-config v1\n")
        fh.write(f"experiment={report.experiment}\n")
        for key, text in sorted(report.config.items()):
            fh.write(f"{key}={text}\n")

    for name, (columns, rows) in sorted(report.tables.items()):
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as fh:
            fh.write(f"# condlab-csv v1 {name}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("# condlab-summary v1\n")
        fh.write(f"experiment: {report.experiment}\n")
        for note in report.notes:
            fh.write(f"note: {note}\n")
        for name, fit in sorted(report.fits.items()):
            fh.write(
                f"fit {name}: exponent={fit.exponent:.6g} "
                f"ci=[{fit.ci_low:.6g},{fit.ci_high:.6g}] residual={fit.residual:.3g} "
                f"window=[{fit.window[0]:.6g},{fit.window[1]:.6g}] curved={_fmt(fit.curved)}\n"
            )
        for t in report.targets:
            fh.write(f"{'PASS' if t.passed else 'FAIL'} {t.name}: {t.detail}\n")
        fh.write(f"result: {'pass' if report.passed else 'fail'}\n")
    if report.field is not None:
        save_field(report.field, os.path.join(out_dir, "field.txt"))
    return paths


# ---------------------------------------------------------------------------
# Power-law fitting


def _loglog_fit(x, y):
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return slope, intercept, float(np.sqrt(np.mean(resid**2)))


def _bootstrap_exponents(t, v, rng):
    """Exponents -slope of the log-log least-squares line over 400 resamples of (t, v).

    All resamples come from one draw, which yields the same indices as
    drawing them one row at a time.  A resample that picks a single time
    has no line and is skipped.  Each slope is the closed-form least-squares
    solution, cov(x, y) / var(x) in logs, computed for all rows at once.
    """
    idx = rng.integers(0, len(t), (400, len(t)))
    picked = t[idx]
    keep = np.any(picked != picked[:, :1], axis=1)
    x, y = np.log(t)[idx[keep]], np.log(v)[idx[keep]]
    x -= x.mean(axis=1, keepdims=True)
    y -= y.mean(axis=1, keepdims=True)
    return -(x * y).sum(axis=1) / (x * x).sum(axis=1)


def decay_fit(curve, window=None):
    """Fit value ~ C t^-alpha on a log-log window of the curve.

    Needs at least 5 strictly positive samples in the window.  Reports a
    bootstrap confidence interval and a quadratic-curvature flag that fires
    on exponential-looking (non-power-law) data.
    """
    times, values = curve.times, curve.values
    if window is None:
        window = (times[-1] / 10.0, times[-1])
    lo, hi = float(window[0]), float(window[1])
    mask = (times >= lo * (1 - 1e-12)) & (times <= hi * (1 + 1e-12))
    t, v = times[mask], values[mask]
    if len(t) < 5:
        raise FitError(f"need >= 5 samples in fit window [{lo:g}, {hi:g}], have {len(t)}")
    if np.any(v <= 0):
        raise FitError(f"nonpositive curve values inside fit window [{lo:g}, {hi:g}]")
    slope, intercept, resid = _loglog_fit(t, v)
    lx = np.log(t) - np.mean(np.log(t))
    quad = np.polyfit(lx, np.log(v), 2)
    curvature = float(quad[0])
    boots = _bootstrap_exponents(t, v, np.random.default_rng(0))
    lo_ci, hi_ci = np.percentile(boots, [2.5, 97.5]) if boots.size else (math.nan, math.nan)
    fit = PowerLawFit(
        exponent=float(-slope),
        intercept=float(intercept),
        window=(lo, hi),
        residual=resid,
        ci_low=float(lo_ci),
        ci_high=float(hi_ci),
        curvature=curvature,
        curved=abs(curvature) > 0.1,
    )
    curve.fit = fit
    return fit


# ---------------------------------------------------------------------------
# Variance decay


def _check_times(times):
    """times as a float array; ConfigError unless nonempty, positive, finite and increasing."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError([("times", "times must not be empty")])
    if not (np.all(times > 0) and np.all(np.diff(times) > 0) and times[-1] < np.inf):
        raise ConfigError([("times", "times must be positive, finite and strictly increasing")])
    return times


def _check_counts(**counts):
    """ConfigError naming every count below 1."""
    bad = [(name, f"{name} must be >= 1") for name, value in counts.items() if value < 1]
    if bad:
        raise ConfigError(bad)


def _decay_spectral_group(args):
    """Each field's variance curve, with its quadrature certificate: width, steps, rounding, checks."""
    law, lat, f, kind, times, master, group = args
    fields = [sample_field(law, lat, field_seed(master, r)) for r in group]
    gs = [evaluate_all(f, field) for field in fields]
    if kind == "simple":
        quads = [Quadrature(fourier_measure(lat, g), 0.0, 0, 0.0, 0) for g in gs]
    else:
        quads = _quadrature_group([build_generator(field, kind) for field in fields], gs, times)
    return [(variance_curve(q.measure, times).values,) + q[1:] for q in quads]


def _walker_note(walks, jumps):
    return f"walker: {walks} walks, {jumps} jumps simulated"


def _decay_mc_group(args):
    """Each field's two-time correlation from a lockstep group's walks, with its jump count."""
    law, lat, f, kind, times, master, group, walks = args
    fields = [sample_field(law, lat, field_seed(master, r)) for r in group]
    weights = [field.omega if kind == "conductance" else lat.unit_weights for field in fields]
    values = [evaluate_all(f, field) for field in fields]
    sample_times = 2.0 * np.asarray(times)
    runs = _field_batch(lat, weights, walks, sample_times[-1], sample_times, master,
                        STREAM_DECAY_WALKS, group)
    return [((vals[starts][:, None] * vals[sites]).mean(axis=0), int(jumps.sum()))
            for vals, (starts, sites, _, jumps) in zip(values, runs)]


def variance_decay_experiment(
    law,
    d,
    n,
    functional,
    kind,
    times,
    realizations,
    seed,
    method="spectral",
    walks=32,
    fit_window=None,
    expected_alpha=None,
    alpha_tol=0.2,
    workers=1,
):
    """Ensemble average of E[(f_t)^2] over fields, with a power-law fit.

    The spectral method evaluates atom sums per field, at any torus size: the
    simple walk's exact measure comes from an FFT, the conductance walk's
    from Lanczos quadrature, certified at every requested time by a
    Gauss/Gauss-Radau bracket of relative width at most QUADRATURE_RTOL
    (SolverError if it cannot close).  Quadratures run in lockstep groups of
    fields, at most _QUADRATURE_ROWS sites in all unless a field alone has
    more, and at least one group per worker; grouping changes no result.
    The summary notes the engine, and for quadrature the most Lanczos steps
    and bracket evaluations, the widest bracket and the largest rounding
    allowance over the fields.  The mc method estimates the
    equivalent two-time correlation E[f(w(0)) f(w(2t))] from simulated walks
    started uniformly.  functional is a registry name or descriptor, built
    once for the law, or a LocalFunctional, which each field's task receives
    as it is; a declared nonzero mean is refused either way.
    """
    times = _check_times(times)
    _check_counts(realizations=realizations, walks=walks)
    lat = Lattice(d, n)
    if isinstance(functional, str):
        fname, f = functional, functional_by_name(functional, d, law)
    else:
        fname, f = functional.name, functional
    if f.mean_hint is not None and abs(f.mean_hint) > 0:
        raise ConfigError(
            [("functional", f"{fname!r} has nonzero mean {f.mean_hint:g}; center it first")]
        )
    if method not in ("spectral", "mc"):
        raise ConfigError([("method", f"unknown method {method!r}")])

    if method == "spectral":
        groups = field_groups(realizations, lat.n_sites, _QUADRATURE_ROWS, workers)
        tasks = [(law, lat, f, kind, times, seed, g) for g in groups]
        run = _decay_spectral_group
    else:
        groups = _field_groups(realizations, lat.n_sites, walks, workers)
        tasks = [(law, lat, f, kind, times, seed, g, walks) for g in groups]
        run = _decay_mc_group
    results = [field for part in parallel_map(run, tasks, workers) for field in part]
    curves = [r[0] for r in results]
    samples = np.stack(curves)
    mean, se = mean_and_stderr(samples, axis=0)
    clipped = int(np.count_nonzero(mean < 0))
    curve = DecayCurve(times, np.maximum(mean, 0.0), se, label="variance")

    report = ExperimentReport("decay")
    report.add_table(
        "curve",
        ("time", "value", "stderr"),
        list(zip(times, curve.values, curve.stderrs)),
    )
    if method == "spectral" and kind == "simple":
        report.notes.append("spectral engine: exact Fourier measure of the simple walk")
    elif method == "spectral":
        report.notes.append(
            f"spectral engine: Lanczos Gauss/Gauss-Radau quadrature, at most "
            f"{max(r[2] for r in results)} steps and {max(r[4] for r in results)} bracket "
            f"evaluations per field, max relative bracket width "
            f"{max(r[1] for r in results):.2g}, rounding allowance "
            f"{max(r[3] for r in results):.2g} of the mass"
        )
    else:
        report.notes.append(_walker_note(realizations * walks, sum(r[1] for r in results)))
    if clipped:
        report.notes.append(f"{clipped} noisy negative curve values clipped to 0")
    if float(np.max(curve.values)) < 1e-20:
        report.notes.append("functional vanishes on this law; nothing to fit")
        fit = None
    else:
        try:
            fit = decay_fit(curve, fit_window)
            report.fits["alpha"] = fit
        except FitError as exc:
            fit = None
            report.notes.append(f"fit skipped: {exc}")
    if expected_alpha is not None:
        if fit is None:
            report.check("decay-exponent", False, f"no fit available, expected {expected_alpha:g}")
        else:
            err = abs(fit.exponent - expected_alpha)
            report.check(
                "decay-exponent",
                err <= alpha_tol,
                f"fitted {fit.exponent:.4f}, expected {expected_alpha:g} +/- {alpha_tol:g}",
            )
    return curve, report


# ---------------------------------------------------------------------------
# Diffusivity


def _field_correctors(field, shifts):
    """One field's estimator rows (shift, (a0, a1, a2, phi_sq)), worst chain residual, CG iterations and residual."""
    op = build_generator(field, "conductance")
    g = evaluate_all(local_drift(field.lattice.d, field.law), field)
    phis, iterations, residual = resolvent_solve(op, g, shifts)
    rows = []
    worst = 0.0
    for mu, est in zip(shifts, diffusivity_estimators(field, phis)):
        r1, r2 = est.chain_residuals(mu)
        worst = max(worst, r1, r2)
        rows.append((est.a0, est.a1, est.a2, est.phi_second_moment))
    return np.array(rows), worst, iterations, residual


def _diffusivity_one_field(args):
    """_field_correctors on the field sampled from seed, inside the field's own task."""
    law, lat, seed, shifts = args
    return _field_correctors(sample_field(law, lat, seed), shifts)


# worst relative residual of the estimator chain identities that passes
_CHAIN_TOL = 1e-8


def _chain_detail(worst_chain):
    return f"worst relative chain residual {worst_chain:.3e} (target {_CHAIN_TOL:.0e})"


def _torus_correctors(results):
    """Stack per-field corrector runs, in field order.

    Returns the estimator rows (fields, shifts, (a0, a1, a2, phi_sq)), the
    worst chain residual, the most CG iterations and the worst verified
    residual over the fields.
    """
    return (np.stack([r[0] for r in results]), max(r[1] for r in results),
            max(r[2] for r in results), max(r[3] for r in results))


def diffusivity_experiment(
    law,
    d,
    n,
    mus,
    realizations,
    seed,
    expected_order=None,
    order_tol=0.35,
    workers=1,
):
    """Each field's torus diffusivity, and the regularized corrector's order in mu.

    Each field's correctors phi_mu = (mu - L)^-1 D, for every mu and for
    mu = 0, come from one multi-shift conjugate-gradient run; the report
    notes the most iterations over the fields and the worst verified
    residual.  The drift D is centred, so the zero shift solves the torus
    corrector equation, and sigma2_torus = 2 A2(0) is the field's exact
    torus diffusivity (Gloria & Mourrat, PTRF 2012).  The reported sigma2 is
    its mean over the fields, with their standard error.  The order is
    fitted on the per-field means of A2(mu) - A2(0) over every positive mu;
    with fewer than 2 mus, a vanishing corrector or a difference that is
    not positive, a note says why there is no fit.
    """
    mus = np.sort(np.asarray(mus, dtype=float))[::-1]
    if not np.all(mus > 0):
        raise ConfigError([("mu", "all mu values must be > 0")])
    repeated = mus[1:][np.diff(mus) == 0]
    if repeated.size:
        raise ConfigError([("mu", f"mu value {float(repeated[0])!r} is repeated")])
    if realizations < 2:
        raise ConfigError([("realizations", "need at least 2 realizations")])
    shifts = np.append(mus, 0.0)
    lat = Lattice(d, n)
    # each task samples its own field, so no more than a worker's fields are held at once
    stack, worst_chain, cg_steps, cg_residual = _torus_correctors(parallel_map(
        _diffusivity_one_field, [(law, lat, field_seed(seed, r), shifts) for r in range(realizations)],
        workers))
    a_means, a_ses = mean_and_stderr(stack, axis=0)
    # A2(mu) - A2(0) field by field; the zero shift's column is exactly 0
    d_mean, d_se = mean_and_stderr(stack[:, :, 2] - stack[:, -1:, 2], axis=0)
    torus = 2.0 * stack[:, -1, 2]
    sigma2, sigma2_se = (float(v) for v in mean_and_stderr(torus))

    report = ExperimentReport("diffusivity")
    report.add_table(
        "estimators",
        ("mu", "a0", "a1", "a2", "a2_stderr", "phi_sq", "a2_minus_torus", "diff_stderr"),
        list(zip(shifts, *a_means.T[:3], a_ses[:, 2], a_means[:, 3], d_mean, d_se)),
    )
    report.add_table("fields", ("field", "sigma2_torus"), list(enumerate(torus)))
    report.notes.append(
        f"corrector solves: multi-shift CG, at most {cg_steps} iterations per field, "
        f"worst verified residual {cg_residual:.2g}"
    )
    report.notes.append(
        f"torus diffusivity 2 A2(0) {sigma2:.6g} +/- {sigma2_se:.2g}, "
        f"field sd {float(np.std(torus, ddof=1)):.2g}"
    )
    report.check("chain-identity", worst_chain < _CHAIN_TOL, _chain_detail(worst_chain))
    # at mu = 0 the three estimators agree by algebra, which chain-identity checks
    positive = stack[:, :-1]
    order_ok = bool(np.all(positive[..., 2] <= positive[..., 1] + 1e-12) and
                    np.all(positive[..., 1] <= positive[..., 0] + 1e-12))
    report.check("estimator-ordering", order_ok, "a2 <= a1 <= a0 on every (field, mu > 0)")

    if len(mus) < 2:
        no_fit = "fewer than 2 mu values"
    elif np.max(np.abs(d_mean)) < 1e-14:
        no_fit = "the corrector vanishes, A2 is constant in mu"
    elif np.any(d_mean[:-1] <= 0):
        no_fit = "A2(mu) - A2(0) is not positive at every mu"
    else:
        no_fit = None
        slope, intercept, resid = _loglog_fit(mus, d_mean[:-1])
        report.fits["mu_order"] = PowerLawFit(
            exponent=float(slope),
            intercept=float(intercept),
            window=(float(mus[-1]), float(mus[0])),
            residual=resid,
        )
    if no_fit is not None:
        report.notes.append(f"no mu-order fit: {no_fit}")
    if expected_order is not None:
        if no_fit is not None:
            report.check("convergence-order", False, f"no fit available, expected {expected_order:g}")
        else:
            report.check(
                "convergence-order",
                abs(slope - expected_order) <= order_tol,
                f"fitted order {slope:.4f}, expected {expected_order:g} +/- {order_tol:g}",
            )
    return report, sigma2, sigma2_se


# ---------------------------------------------------------------------------
# Mean square displacement


def msd_experiment(
    law,
    d,
    n,
    times,
    realizations,
    walks,
    seed,
    sigma2=None,
    sigma2_se=0.0,
    trend_check=True,
    workers=1,
):
    """Measure MSD/t and its gap above d sigma^2.

    Field r is sampled once, from field_seed(seed, r), and that one field
    is both walked and, when sigma2 is solved for, solved on.  Without a
    supplied sigma2, and unless the law is constant, each field gets its
    torus diffusivity sigma2_r = 2 A2(0) from the zero-shift corrector of
    diffusivity_experiment, one solve per field; the fields table lists
    them.  The gap is then paired: the mean over fields of
    MSD_r/t - d sigma2_r, with the standard error of those per-field gaps,
    or for a single field the walks' standard error.  A failed
    chain-identity check of the solves is carried over.  A supplied sigma2,
    or the constant law's exact 2 w, is compared unpaired: its sigma2_se is
    combined with the walks' standard error.  A single sampling time has no
    gap trend, so the gap-decreasing target is skipped with a note.
    """
    times = _check_times(times)
    _check_counts(realizations=realizations, walks=walks)
    if realizations * walks < 2:
        raise ConfigError([("walks", "need at least 2 walks in all (realizations x walks) for a stderr")])
    report = ExperimentReport("msd")
    lat = Lattice(d, n)
    fields = [sample_field(law, lat, field_seed(seed, r)) for r in range(realizations)]
    constant_law = isinstance(law, Constant)
    if sigma2 is None and constant_law:
        sigma2, sigma2_se = 2.0 * law.value, 0.0
        report.notes.append("constant law: exact diffusivity used, no corrector needed")
    paired = sigma2 is None
    if paired:
        stack, worst_chain, cg_steps, cg_residual = _torus_correctors(
            parallel_map(functools.partial(_field_correctors, shifts=[0.0]), fields, workers))
        torus = 2.0 * stack[:, 0, 2]
        sigma2 = float(torus.mean())
        report.add_table("fields", ("field", "sigma2_torus"), list(enumerate(torus)))
        report.notes.append(
            f"torus diffusivity 2 A2(0) of the walked fields {sigma2:.6g} "
            f"+/- {float(mean_and_stderr(torus)[1]):.2g}; corrector solves: at most "
            f"{cg_steps} CG iterations per field, worst verified residual {cg_residual:.2g}"
        )
        if worst_chain >= _CHAIN_TOL:
            report.check("chain-identity", False, _chain_detail(worst_chain))
    curve = msd_estimate(fields, walks, times, seed, workers)
    if paired:
        gap, se_total = mean_and_stderr(curve.field_msd_over_t - d * torus[:, None], axis=0)
        if realizations == 1:
            se_total = curve.stderr
    else:
        gap = curve.msd_over_t - d * sigma2
        se_total = np.sqrt(curve.stderr**2 + (d * sigma2_se) ** 2)
    report.add_table(
        "msd",
        ("time", "msd_over_t", "stderr", "gap", "gap_stderr"),
        list(zip(times, curve.msd_over_t, curve.stderr, gap, se_total)),
    )
    report.notes.append(f"short-time rate mean E[p(0)] = {curve.short_time_rate:.6g}")
    report.notes.append(_walker_note(curve.walks_total, curve.jumps_total))
    if constant_law:
        # each axis is Skellam(wt, wt), so Var |X_t|^2 = d(2wt + 8w^2t^2): the
        # gates use that exact stderr, not the noisy (or 0) one of a few walks
        wt = law.value * times
        exact_se = np.sqrt(d * (2.0 * wt + 8.0 * wt**2) / curve.walks_total) / times
        dev = np.abs(curve.msd_over_t - 2.0 * d * law.value) / exact_se
        report.check(
            "constant-baseline",
            bool(np.all(dev <= 3.0)),
            f"max |MSD/t - 2d| = {np.max(dev):.2f} exact stderr (limit 3)",
        )
    gate_se = np.hypot(exact_se, d * sigma2_se) if constant_law else se_total
    worst = float(np.min(gap / np.maximum(gate_se, 1e-300)))
    report.check(
        "gap-nonnegative",
        worst >= -3.0,
        f"min gap = {worst:.2f} stderr above -3 cutoff" if worst >= -3.0 else f"gap dips to {worst:.2f} stderr",
    )
    if trend_check and not constant_law and len(times) < 2:
        report.notes.append("one sampling time: no gap trend to check")
    elif trend_check and not constant_law:
        k = int(np.argmax(gap))
        ok = k <= len(times) // 2 and gap[-1] < gap[k]
        report.check(
            "gap-decreasing",
            ok,
            f"peak at t={times[k]:g} (index {k}), final gap {gap[-1]:.4g} vs peak {gap[k]:.4g}",
        )
    return report, DecayCurve(times, np.maximum(gap, 0.0), se_total, label="msd-gap")


# ---------------------------------------------------------------------------
# Contractivity counterexample


@dataclass
class ContractivityResult:
    formula: float
    mc_estimate: float
    mc_stderr: float
    exact_stderr: float
    verdict: str
    curve_times: np.ndarray
    curve_values: np.ndarray
    curve_monotone: bool
    boundedpareto_mean: float


def _contract_window_values(e):
    """f over translates -2..2 from the 8-edge window, columns are offsets -3..4."""
    return {u: e[:, u + 2] + e[:, u + 5] ** 2 for u in range(-2, 3)}


def _contract_estimand_poly():
    """S_1(Lf) S_1(f) as a polynomial in the 8 window edges, offsets -3..4."""
    f0 = contract_example().poly
    f = {u: f0.shift((u,)) for u in range(-2, 3)}
    s1f = f[-1] + f[0] + f[1]
    s1lf = Polynomial()
    for x in (-1, 0, 1):
        forward, backward = Polynomial.edge((x,), 0), Polynomial.edge((x - 1,), 0)
        s1lf = s1lf + forward * (f[x + 1] - f[x]) + backward * (f[x - 1] - f[x])
    return s1lf * s1f


def contract_exact_moments(p, eps, cap):
    """Exact mean and variance of the window estimand, by moment algebra.

    The estimand is a fixed polynomial in 8 independent edges, so both its
    expectation and its second moment reduce to products of one-edge moments
    of the (1-p) delta_0 + p Pareto mixture.  The variance is what makes the
    MC standard error trustworthy: heavy tails put most of it in events far
    too rare for an empirical estimate to see.
    """
    law = BoundedPareto(p, eps, cap)
    moment = functools.cache(lambda k: p * law.pareto_moment(k) if p > 0 else 0.0)
    h = _contract_estimand_poly()
    mean = h.expect(moment)
    second = (h * h).expect(moment)
    return mean, max(second - mean * mean, 0.0)


# window rows drawn and reduced together: a block's arrays stay in cache,
# where a chunk's 1e6 x 8 did not (4096 timed best of 4096, 16384 and 65536)
_CONTRACT_BLOCK = 4096


def _contract_uniforms(seed, chunk_idx, size):
    """The chunk's uniforms (u, v), each (size, 8), yielded _CONTRACT_BLOCK rows at a time.

    The chunk's stream holds all of u, then all of v, one 64-bit output per
    double, so v is read from a second copy of the stream advanced past u.
    """
    urng = child_rng(seed, STREAM_CONTRACT_WINDOWS, chunk_idx)
    vrng = child_rng(seed, STREAM_CONTRACT_WINDOWS, chunk_idx)
    vrng.bit_generator.advance(8 * size)
    for lo in range(0, size, _CONTRACT_BLOCK):
        rows = min(_CONTRACT_BLOCK, size - lo)
        yield urng.random((rows, 8)), vrng.random((rows, 8))


def _contract_mc_chunk(args):
    p, eps, cap, seed, chunk_idx, size = args
    a = 4.0 + eps
    h_sums, h2_sums = [], []
    for u, v in _contract_uniforms(seed, chunk_idx, size):
        heavy = u < p
        e = np.where(heavy, (1.0 - v * (1.0 - cap**-a)) ** (-1.0 / a), 0.0)
        f = _contract_window_values(e)
        s1f = f[-1] + f[0] + f[1]
        s1lf = np.zeros(len(e))
        for x in (-1, 0, 1):
            s1lf += e[:, x + 3] * (f[x + 1] - f[x]) + e[:, x + 2] * (f[x - 1] - f[x])
        h = s1lf * s1f
        h_sums.append(float(h.sum()))
        h2_sums.append(float((h * h).sum()))
    return math.fsum(h_sums), math.fsum(h2_sums), size


def contractivity_experiment(
    p,
    eps,
    cap,
    realizations=4_000_000,
    seed=0,
    fields=12,
    torus_n=12,
    t_grid=(0.0, 0.25, 0.5, 1.0, 2.0, 4.0),
    workers=1,
):
    """Initial derivative of t -> E[(S_1(f_t))^2] for the square-reading functional.

    The closed moment form m1 m2 - m3 + m4 - m2^2 + 2 m1 m2^2 - 2 m1 m4 is
    evaluated from the exact truncated moments of the law with its light mass
    at 0, and checked against a plain Monte Carlo average of S_1(Lf) S_1(f)
    over i.i.d. 8-edge windows.  A positive value exhibits non-contractivity;
    the rate-1 walk analogue below it must stay nonincreasing.  On the ring
    of torus_n sites that analogue, E[(S_1 e^{tL} g)^2] per field, is the
    variance curve of the Fourier measure of S_1 g, exact by FFT at any
    torus_n.  Its fields are field_seed(seed, k) of boundedpareto:p,eps,cap,
    whose light mass sits at 1, not 0; the summary names both laws and gives
    E[S_1(Lf) S_1(f)] under boundedpareto, by the same moment algebra.
    """
    _check_counts(realizations=realizations, fields=fields)
    t_grid = np.asarray(t_grid, dtype=float)
    # the analogue check compares consecutive times, so it needs two of them
    if t_grid.size < 2 or not (t_grid[0] >= 0 and np.all(np.diff(t_grid) > 0) and t_grid[-1] < np.inf):
        raise ConfigError([("t_grid", "t-grid must be at least two nonnegative, strictly increasing, finite times")])
    law = BoundedPareto(p, eps, cap)
    moments = [p * law.pareto_moment(i) if p > 0 else 0.0 for i in range(1, 5)]
    m1, m2, m3, m4 = moments
    formula = m1 * m2 - m3 + m4 - m2 * m2 + 2.0 * m1 * m2 * m2 - 2.0 * m1 * m4
    _, exact_var = contract_exact_moments(p, eps, cap)
    bp_mean = _contract_estimand_poly().expect(law.moment)
    exact_se = math.sqrt(exact_var / int(realizations))

    chunk = 1_000_000
    sizes = []
    left = int(realizations)
    while left > 0:
        sizes.append(min(chunk, left))
        left -= sizes[-1]
    parts = parallel_map(
        _contract_mc_chunk,
        [(p, eps, cap, seed, i, s) for i, s in enumerate(sizes)],
        workers,
    )
    total = sum(s for _, _, s in parts)
    mc = math.fsum(h for h, _, _ in parts) / total
    second = math.fsum(h2 for _, h2, _ in parts) / total
    var = max(second - mc * mc, 0.0)
    mc_se = math.sqrt(var / max(total - 1, 1))

    # the same functional under the rate-1 walk: box sums and the walk's
    # semigroup are both convolutions on the ring, so they commute and
    # mean((S_1 e^{tL} g)^2) is the variance curve of the Fourier measure of
    # S_1 g, which must be nonincreasing
    lat = Lattice(1, torus_n)
    f = functional_by_name("contract-example", 1, law)
    curves = np.empty((fields, len(t_grid)))
    monotone = True
    for k in range(fields):
        fld = sample_field(law, lat, field_seed(seed, k))
        s = box_sum_field(evaluate_all(f, fld), lat, 1)
        curves[k] = variance_curve(fourier_measure(lat, s), t_grid).values
        steps = np.diff(curves[k])
        if np.any(steps > 1e-10 * max(curves[k, 0], 1.0)):
            monotone = False
    mean_curve = curves.mean(axis=0)

    # the empirical stderr cannot see the rare cap-scale events that carry
    # much of the heavy-tailed variance, so the verdict uses the exact one
    se_used = max(exact_se, 1e-300)
    if formula > 0:
        verdict = "positive-agree" if abs(mc - formula) <= 3.0 * se_used else "mc-disagrees"
    elif formula == 0:
        verdict = "zero-derivative"
    else:
        verdict = "inconclusive"

    report = ExperimentReport("contract")
    report.add_table(
        "derivative",
        ("formula", "mc_estimate", "mc_stderr", "exact_stderr", "verdict"),
        [(formula, mc, mc_se, exact_se, verdict)],
    )
    if exact_se > 10.0 * max(mc_se, 1e-300):
        report.notes.append(
            f"empirical stderr {mc_se:.3g} is a heavy-tail underestimate; "
            f"exact stderr {exact_se:.3g} (from closed moments) decides the verdict"
        )
    report.notes.append(
        f"formula and windows: each edge 0 with probability {1.0 - p:.6g}, else Pareto(4+{eps:g}) "
        f"truncated at {cap:g}; that light mass at 0 lies outside w >= 1"
    )
    if 3.0 * exact_se >= abs(formula):
        report.notes.append(
            f"sampled sign unresolved: 3 exact stderr {3.0 * exact_se:.3g} >= |formula| {abs(formula):.3g}, "
            f"so {int(realizations)} windows cannot tell the derivative's sign"
        )
    report.notes.append(
        f"analogue fields: {law.descriptor()}, light mass at 1; under it "
        f"E[S_1(Lf) S_1(f)] = {bp_mean:.6g} by moment algebra, against the formula's {formula:.6g}"
    )
    report.add_table(
        "analogue_curve",
        ("time", "mean_square_boxsum"),
        list(zip(t_grid, mean_curve)),
    )
    if verdict == "inconclusive":
        report.notes.append("formula nonpositive: cap too small to keep the quartic moment dominant")
        report.check("derivative-agreement", True, "inconclusive (reported, not failed)")
    elif verdict == "zero-derivative":
        report.check("derivative-agreement", abs(mc) <= 3.0 * se_used,
                     f"degenerate law, derivative 0, mc {mc:.3g}")
    else:
        report.check(
            "derivative-agreement",
            verdict == "positive-agree",
            f"formula {formula:.6g}, mc {mc:.6g} +/- {exact_se:.3g} exact ({mc_se:.3g} empirical)",
        )
    report.check(
        "analogue-nonincreasing",
        monotone,
        "rate-1 curve nonincreasing at every grid step on every field",
    )
    result = ContractivityResult(formula, mc, mc_se, exact_se, verdict, t_grid, mean_curve, monotone,
                                 bp_mean)
    return report, result


# ---------------------------------------------------------------------------
# Box inequality chain


def _nash_one_field(args):
    """One field's E[g^2], simple-walk energy and mean squared box sum per box size."""
    law, op0, f, n_list, seed = args
    lat = op0.lattice
    field = sample_field(law, lat, seed)
    g = evaluate_all(f, field)
    g = g - g.mean()
    m2s = []
    for nb in n_list:
        s = box_sum_field(g, lat, nb)
        m2s.append(float(np.mean(s * s)))
    return float(np.mean(g * g)), dirichlet_form(op0, g), m2s


def nash_chain_check(law, d, n_list, functional, realizations, seed, torus_n=None, workers=1):
    """Verify the box variance inequality at each box size and locate its optimum.

    For centered g the bound E[g^2] <= C_S(n) n^2 E_simple(g,g)
    + 2 E[(S_n g)^2]/|B_n|^2 must hold pathwise; the report also compares
    the size minimizing the right side with the heuristic optimum
    (N'/(2e E))^(1/(d+2)).  functional is a registry name or descriptor, or
    a LocalFunctional, which each field's task receives as it is.
    """
    _check_counts(realizations=realizations)
    n_list = sorted(int(v) for v in n_list)
    if not n_list or n_list[0] < 1:
        raise ConfigError([("n_list", "box sizes must be >= 1")])
    repeated = [a for a, b in zip(n_list, n_list[1:]) if a == b]
    if repeated:
        raise ConfigError([("n_list", f"box size {repeated[0]} is repeated")])
    f = functional_by_name(functional, d, law) if isinstance(functional, str) else functional
    derived = torus_n is None
    if derived:
        torus_n = 2 * (n_list[-1] + f.radius) + 3
    lat = Lattice(d, torus_n)
    if 2 * (n_list[-1] + f.radius) >= torus_n:
        raise ConfigError([("n", f"torus period {torus_n} too small for box {n_list[-1]} plus stencil")])
    op0 = simple_generator(lat)
    cs = {nb: sobolev_constant(d, nb) for nb in n_list}
    rows = {nb: [] for nb in n_list}
    slack_min = math.inf
    argmins = []
    w_opts = []
    results = parallel_map(
        _nash_one_field,
        [(law, op0, f, n_list, field_seed(seed, r)) for r in range(realizations)],
        workers,
    )
    for ef2, energy, m2s in results:
        rhs_by_n = {}
        best_norm = ef2
        for nb, m2 in zip(n_list, m2s):
            size = (2 * nb + 1) ** d
            rhs = cs[nb] * nb * nb * energy + 2.0 * m2 / size**2
            rhs_by_n[nb] = rhs
            slack_min = min(slack_min, rhs - ef2)
            rows[nb].append((ef2, rhs, m2 / size))
            best_norm = max(best_norm, m2 / size)
        argmins.append(min(rhs_by_n, key=rhs_by_n.get))
        if energy > 0:
            w_opts.append((best_norm / (2.0 * math.e * energy)) ** (1.0 / (d + 2)))
    report = ExperimentReport("nash-check")
    if derived:
        report.notes.append(f"torus period {torus_n}: 2 (largest box + stencil radius) + 3")
    table = []
    for nb in n_list:
        arr = np.array(rows[nb])
        table.append(
            (nb, cs[nb], arr[:, 0].mean(), arr[:, 1].mean(), float(np.min(arr[:, 1] - arr[:, 0])))
        )
    report.add_table("boxes", ("n_box", "c_s", "lhs_mean", "rhs_mean", "min_slack"), table)
    report.check(
        "box-inequality",
        slack_min >= -1e-10,
        f"minimum slack {slack_min:.4g} across {realizations} fields x {len(n_list)} boxes",
    )
    counts = {nb: argmins.count(nb) for nb in n_list}
    modal = max(counts, key=counts.get)
    w_mean = float(np.mean(w_opts)) if w_opts else math.nan
    report.notes.append(
        f"tightest box size {modal} (counts {counts}); heuristic optimum w = {w_mean:.3g}"
    )
    return report
