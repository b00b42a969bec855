"""Desk-scale reproductions: decay exponents, diffusivity orders, MSD gaps,
the non-contractivity counterexample, and the box-inequality chain.

Every experiment returns an ExperimentReport holding a canonical config echo,
result tables, fits, and pass/fail target checks; write_report serializes all
of it deterministically (no timestamps, fixed float formatting), so reruns of
the same config produce byte-identical artifacts.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .environment import BoundedPareto, Constant, Lattice, sample_field
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
    semigroup_apply,
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
from .util import child_rng, field_groups, field_seed, mean_and_stderr, parallel_map
from .walker import EnsembleConfig, _field_batch, _field_groups, msd_estimate

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
    config: dict
    tables: dict = dc_field(default_factory=dict)
    fits: dict = dc_field(default_factory=dict)
    targets: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

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
    if isinstance(x, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in x)
    return str(x)


def write_report(report, out_dir):
    """Write config echo, summary, and CSV tables; returns the paths written."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []

    cfg_path = os.path.join(out_dir, "config.txt")
    with open(cfg_path, "w") as fh:
        fh.write("# condlab-config v1\n")
        fh.write(f"experiment={report.experiment}\n")
        for key in sorted(report.config):
            fh.write(f"{key}={_fmt(report.config[key])}\n")
    paths.append(cfg_path)

    for name, (columns, rows) in sorted(report.tables.items()):
        tbl_path = os.path.join(out_dir, f"{name}.csv")
        with open(tbl_path, "w") as fh:
            fh.write(f"# condlab-csv v1 {name}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        paths.append(tbl_path)

    sum_path = os.path.join(out_dir, "summary.txt")
    with open(sum_path, "w") as fh:
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
    paths.append(sum_path)
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
    """times as a float array; ConfigError unless nonempty, positive and increasing."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError([("times", "times must not be empty")])
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ConfigError([("times", "times must be positive and strictly increasing")])
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
    runs = _field_batch(lat, weights, walks, sample_times[-1], sample_times, master, 2, group)
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

    report = ExperimentReport(
        "decay",
        config={
            "law": law.descriptor(),
            "d": d,
            "n": n,
            "functional": fname,
            "kind": kind,
            "method": method,
            "times": times,
            "realizations": realizations,
            "walks": walks if method == "mc" else 0,
            "seed": seed,
        },
    )
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


def _diffusivity_one_field(args):
    law, lat, seed, mus = args
    field = sample_field(law, lat, seed)
    op = build_generator(field, "conductance")
    g = evaluate_all(local_drift(lat.d, law), field)
    phis, iterations, residual = resolvent_solve(op, g, mus)
    rows = []
    worst = 0.0
    for mu, phi in zip(mus, phis):
        est = diffusivity_estimators(field, phi)
        r1, r2 = est.chain_residuals(mu)
        worst = max(worst, r1, r2)
        rows.append((est.a0, est.a1, est.a2, est.phi_second_moment))
    return np.array(rows), worst, iterations, residual


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
    """Sweep the regularized corrector over mu and fit the convergence order.

    mus must be positive; the smallest plays the role of the converged
    baseline and the order is fitted on A2(mu) - A2(mu_min) over the rest,
    using per-field pairing so field-to-field scatter cancels.  Extrapolating
    that power law below mu_min yields the reported effective diffusivity.
    Each field's correctors phi_mu = (mu - L)^-1 D for all mus come from one
    multi-shift conjugate-gradient run; the report notes the most iterations
    over the fields and the worst verified residual.
    """
    mus = np.sort(np.asarray(mus, dtype=float))[::-1]
    if not np.all(mus > 0):
        raise ConfigError([("mu", "all mu values must be > 0")])
    repeated = mus[1:][np.diff(mus) == 0]
    if repeated.size:
        raise ConfigError([("mu", f"mu value {float(repeated[0])!r} is repeated")])
    if len(mus) < 3:
        raise ConfigError([("mu", "need at least 3 mu values (fit points plus baseline)")])
    if realizations < 2:
        raise ConfigError([("realizations", "need at least 2 realizations")])
    seeds = [field_seed(seed, r) for r in range(realizations)]
    lat = Lattice(d, n)
    results = parallel_map(_diffusivity_one_field, [(law, lat, s, mus) for s in seeds], workers)
    stack = np.stack([r[0] for r in results])  # (fields, mus, 4)
    worst_chain = max(r[1] for r in results)
    cg_steps = max(r[2] for r in results)
    cg_residual = max(r[3] for r in results)
    a_means, a_ses = mean_and_stderr(stack, axis=0)

    fit_idx = np.arange(len(mus) - 1)
    diffs = stack[:, fit_idx, 2] - stack[:, -1:, 2]
    d_mean, d_se = mean_and_stderr(diffs, axis=0)

    report = ExperimentReport(
        "diffusivity",
        config={
            "law": law.descriptor(),
            "d": d,
            "n": n,
            "mu": mus,
            "realizations": realizations,
            "seed": seed,
        },
    )
    rows = []
    for i, mu in enumerate(mus):
        row = [mu, a_means[i, 0], a_means[i, 1], a_means[i, 2], a_ses[i, 2], a_means[i, 3]]
        if i < len(mus) - 1:
            row += [d_mean[i], d_se[i]]
        else:
            row += [0.0, 0.0]
        rows.append(row)
    report.add_table(
        "estimators",
        ("mu", "a0", "a1", "a2", "a2_stderr", "phi_sq", "a2_minus_baseline", "diff_stderr"),
        rows,
    )
    report.notes.append(
        f"corrector solves: multi-shift CG, at most {cg_steps} iterations per field, "
        f"worst verified residual {cg_residual:.2g}"
    )
    report.check(
        "chain-identity",
        worst_chain < 1e-8,
        f"worst relative chain residual {worst_chain:.3e} (target 1e-08)",
    )
    order_ok = bool(np.all(stack[:, :, 2] <= stack[:, :, 1] + 1e-12) and
                    np.all(stack[:, :, 1] <= stack[:, :, 0] + 1e-12))
    report.check("estimator-ordering", order_ok, "a2 <= a1 <= a0 on every (field, mu)")

    sigma2 = 2.0 * a_means[-1, 2]
    sigma2_se = 2.0 * a_ses[-1, 2]
    not_extrapolated = None  # why sigma2 stays the baseline 2 A2(mu_min)
    if np.max(np.abs(d_mean)) < 1e-14:
        report.notes.append("corrector vanishes; A2 constant in mu, no order to fit")
        not_extrapolated = "the corrector vanishes"
    elif np.any(d_mean <= 0):
        not_extrapolated = "the mu-order fit failed"
        report.check(
            "mu-order-fit",
            False,
            "nonpositive A2 differences; mu grid too close to baseline noise, "
            "sigma2 not extrapolated",
        )
    else:
        slope, intercept, resid = _loglog_fit(mus[fit_idx], d_mean)
        rng = np.random.default_rng(1)
        boots, boot_sigma = [], []
        for _ in range(200):
            pick = rng.integers(0, realizations, realizations)
            bm = diffs[pick].mean(axis=0)
            if np.any(bm <= 0):
                continue
            s, c, _ = _loglog_fit(mus[fit_idx], bm)
            boots.append(s)
            base = stack[pick, -1, 2].mean()
            boot_sigma.append(2.0 * (base - math.exp(c + s * math.log(mus[-1]))))
        ci = np.percentile(boots, [2.5, 97.5]) if boots else (math.nan, math.nan)
        fit = PowerLawFit(
            exponent=float(slope),
            intercept=float(intercept),
            window=(float(mus[fit_idx][-1]), float(mus[0])),
            residual=resid,
            ci_low=float(ci[0]),
            ci_high=float(ci[1]),
        )
        report.fits["mu_order"] = fit
        # extrapolate the fitted power below the baseline to shave its bias
        sigma2 = 2.0 * (a_means[-1, 2] - math.exp(intercept + slope * math.log(mus[-1])))
        if boot_sigma:
            sigma2_se = float(np.std(boot_sigma, ddof=1))
        if expected_order is not None:
            err = abs(slope - expected_order)
            report.check(
                "convergence-order",
                err <= order_tol,
                f"fitted order {slope:.4f}, expected {expected_order:g} +/- {order_tol:g}",
            )
    report.config["sigma2"] = sigma2
    value = f"{sigma2:.6g} +/- {sigma2_se:.2g}"
    if not_extrapolated is None:
        report.notes.append(f"extrapolated effective diffusivity {value}")
    else:
        report.notes.append(
            f"effective diffusivity {value} (baseline 2 A2(mu_min), not extrapolated: "
            f"{not_extrapolated})"
        )
    return report, float(sigma2), float(sigma2_se)


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
    mus=None,
    sigma2_realizations=12,
    trend_check=True,
    workers=1,
):
    """Measure MSD/t and its gap above d sigma-bar^2.

    When sigma2 is not supplied it is produced by diffusivity_experiment on
    the same law and torus, and its uncertainty is propagated into the gap's
    standard errors.
    """
    times = _check_times(times)
    _check_counts(realizations=realizations, walks=walks)
    report = ExperimentReport(
        "msd",
        config={
            "law": law.descriptor(),
            "d": d,
            "n": n,
            "times": times,
            "realizations": realizations,
            "walks": walks,
            "seed": seed,
        },
    )
    constant_law = isinstance(law, Constant)
    if sigma2 is None:
        if constant_law:
            sigma2, sigma2_se = 2.0 * law.value, 0.0
            report.notes.append("constant law: exact diffusivity used, no corrector needed")
        else:
            if mus is None:
                mus = np.concatenate((np.geomspace(1.0, 0.177, 6), [0.01]))
            sub, sigma2, sigma2_se = diffusivity_experiment(
                law, d, n, mus, sigma2_realizations, seed + 1, workers=workers
            )
            report.targets.extend(t for t in sub.targets if not t.passed)
    report.config["sigma2"] = sigma2
    cfg = EnsembleConfig(
        law=law,
        lattice=Lattice(d, n),
        kind="conductance",
        realizations=realizations,
        walks=walks,
        horizon=float(times[-1]),
        times=times,
        seed=seed,
    )
    curve = msd_estimate(cfg, workers)
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
    if trend_check and not constant_law:
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
    urng, vrng = child_rng(seed, 3, chunk_idx), child_rng(seed, 3, chunk_idx)
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
    the rate-1 walk analogue below it must stay nonincreasing.
    """
    _check_counts(realizations=realizations, fields=fields)
    law = BoundedPareto(p, eps, cap)
    moments = [p * law.pareto_moment(i) if p > 0 else 0.0 for i in range(1, 5)]
    m1, m2, m3, m4 = moments
    formula = m1 * m2 - m3 + m4 - m2 * m2 + 2.0 * m1 * m2 * m2 - 2.0 * m1 * m4
    _, exact_var = contract_exact_moments(p, eps, cap)
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

    # the same functional under the rate-1 walk: box sums commute with the
    # generator there, so the curve must be nonincreasing field by field
    lat = Lattice(1, torus_n)
    f = functional_by_name("contract-example", 1, law)
    op = simple_generator(lat)
    t_grid = np.asarray(t_grid, dtype=float)
    curves = np.empty((fields, len(t_grid)))
    monotone = True
    for k in range(fields):
        fld = sample_field(law, lat, field_seed(seed + 77, k))
        g = evaluate_all(f, fld)
        for i, t in enumerate(t_grid):
            s = box_sum_field(semigroup_apply(op, g, t), lat, 1)
            curves[k, i] = float(np.mean(s * s))
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

    report = ExperimentReport(
        "contract",
        config={
            "p": p,
            "eps": eps,
            "cap": cap,
            "realizations": realizations,
            "fields": fields,
            "torus_n": torus_n,
            "seed": seed,
            "t_grid": t_grid,
        },
    )
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
    result = ContractivityResult(formula, mc, mc_se, exact_se, verdict, t_grid, mean_curve, monotone)
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
    f = functional_by_name(functional, d, law) if isinstance(functional, str) else functional
    if torus_n is None:
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
    report = ExperimentReport(
        "nash-check",
        config={
            "law": law.descriptor(),
            "d": d,
            "n": torus_n,
            "n_list": n_list,
            "functional": f.name,
            "realizations": realizations,
            "seed": seed,
        },
    )
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
    report.config["modal_box"] = modal
    return report
