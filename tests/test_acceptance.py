"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible under ``pytest -s`` or by running this file directly with
``python3 tests/test_acceptance.py``).  The criteria pin exact-oracle
agreement, the inequality and identity suites, decay exponents, the
tail/decay equivalence verdicts, diffusivity convergence orders, the
non-contractivity example, and the MSD gap, each with its stated tolerance
and runtime budget.

Known red: criterion 2 includes the reciprocal tail bound
spectral_tail(mu) <= 8 mu E[(R_mu f)^2], which is violated by measures
carrying weight on eigenvalues below roughly 0.17 mu (a single atom at
lambda = 0.1 with mu = 1 already breaks it).  The check is kept as stated
rather than weakened, so that sub-check fails and the printed line reports
the measured violation statistics.

Run directly with ``--json PATH``, the file also writes each criterion's
verdict, measured numbers and runtime to PATH as JSON.
"""

import math
import time

import numpy as np
import scipy.linalg

from condlab.environment import (
    BoundedPareto,
    Constant,
    Lattice,
    TwoPoint,
    Uniform,
    bad_cluster,
    default_eta,
    sample_field,
    w_statistic,
)
from condlab.errors import ParameterError, SaturationError
from condlab.experiments import (
    contractivity_experiment,
    diffusivity_experiment,
    msd_experiment,
    variance_decay_experiment,
)
from condlab.functionals import box_sum_field, evaluate_all, functional_by_name
from condlab.operators import (
    build_generator,
    dirichlet_form,
    resolvent_solve,
    semigroup_apply,
    simple_generator,
    sobolev_constant,
)
from condlab.spectral import (
    SpectralMeasure,
    additive_variance,
    asymptotic_variance,
    corrector_error_term,
    diffusivity_estimators,
    finite_time_deficit,
    resolvent_second_moment,
    spectral_measure,
    spectral_tail,
    synthetic_power_measure,
    tail_decay_agreement,
    variance_curve,
)


# each criterion's verdict and measured numbers, by its printed name
MEASURED = {}


def _line(name, ok, detail, **numbers):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    MEASURED[name] = {"passed": bool(ok), **numbers}


def _target(report, name):
    for t in report.targets:
        if t.name == name:
            return t
    raise AssertionError(f"report has no target named {name!r}")


def _rel(a, b):
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def test_criterion_1_exact_oracles():
    """Ring spectra and dense brute-force agreement on tiny tori."""
    semigroup_times, mus, variance_times = (0.05, 0.3, 1.7), (1.0, 0.1, 0.01), (0.0, 0.4, 2.0)
    # the dense references come first, so the timed region holds only condlab
    # calls; the field and generator are built again inside it
    cases = []
    for n in (3, 4, 5):
        field = sample_field(Constant(1.0), Lattice(1, n), 0)
        op = build_generator(field, "conductance")
        dense = op.matrix.toarray()
        rng = np.random.default_rng(n)
        draws = []
        for _ in range(20):
            g = rng.normal(size=n)
            gc = g - g.mean()
            draws.append((
                g,
                [scipy.linalg.expm(t * dense) @ g for t in semigroup_times],
                [np.linalg.solve(mu * np.eye(n) - dense, g) for mu in mus],
                [float(np.mean((scipy.linalg.expm(t * dense) @ gc) ** 2)) for t in variance_times],
            ))
        cases.append((n, draws))

    t0 = time.perf_counter()
    worst_eig = 0.0
    worst_rel = 0.0
    for n, draws in cases:
        field = sample_field(Constant(1.0), Lattice(1, n), 0)
        op = build_generator(field, "conductance")
        lam, _ = op.eigensystem()
        ring = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
        worst_eig = max(worst_eig, float(np.max(np.abs(lam - ring))))
        for g, semigroup_refs, resolvent_refs, variance_refs in draws:
            for t, ref in zip(semigroup_times, semigroup_refs):
                worst_rel = max(worst_rel, _rel(semigroup_apply(op, g, t), ref))
            for mu, ref in zip(mus, resolvent_refs):
                worst_rel = max(worst_rel, _rel(resolvent_solve(op, g, mu), ref))
            m = spectral_measure(op, g, center=True)
            for t, ref in zip(variance_times, variance_refs):
                var = variance_curve(m, [t]).values[0]
                worst_rel = max(worst_rel, abs(var - ref) / max(ref, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_eig < 1e-10 and worst_rel < 1e-8 and elapsed < 1.0
    _line(
        "criterion-1 exact oracles",
        ok,
        f"ring spectrum err {worst_eig:.2e} (limit 1e-10), "
        f"dense-oracle rel err {worst_rel:.2e} (limit 1e-8), {elapsed:.2f}s",
        ring_spectrum_err=worst_eig, dense_rel_err=worst_rel, seconds=elapsed,
    )
    assert worst_eig < 1e-10
    assert worst_rel < 1e-8
    assert elapsed < 1.0


def test_criterion_2_inequality_suite():
    """Property suite over sampled fields; the 8*mu reciprocal bound is
    expected to fail and its violations are reported, not hidden."""
    t0 = time.perf_counter()
    configs = [
        (1, 16, TwoPoint(0.3, 1.0, 4.0)),
        (1, 24, Uniform(1.0, 3.0)),
        (2, 8, TwoPoint(0.5, 1.0, 4.0)),
        (2, 10, Uniform(1.0, 2.0)),
        (3, 5, TwoPoint(0.4, 1.0, 3.0)),
        (1, 32, BoundedPareto(0.2, 0.5, 50.0)),
    ]
    cases = 0
    failures = []
    recip_total = 0
    recip_bad = []
    w_checked = 0
    simple_ops = {}
    for round_idx in range(12):
        for cfg_idx, (d, n, law) in enumerate(configs):
            seed = 1000 * round_idx + cfg_idx
            lat = Lattice(d, n)
            field = sample_field(law, lat, seed)
            fname = "drift" if (round_idx + cfg_idx) % 2 else "edge"
            g = evaluate_all(functional_by_name(fname, d, law), field)
            g = g - g.mean()
            if float(np.max(np.abs(g))) < 1e-12:
                continue
            op = build_generator(field, "conductance")
            key = (d, n)
            if key not in simple_ops:
                simple_ops[key] = simple_generator(lat)
            op0 = simple_ops[key]

            # conductances >= 1 dominate the rate-1 form
            e_cond = dirichlet_form(op, g)
            e_simple = dirichlet_form(op0, g)
            cases += 1
            if e_simple > e_cond * (1 + 1e-12) + 1e-15:
                failures.append(f"form domination seed {seed}")

            # smoothing: the evolved function's energy obeys x e^-x <= 1/e
            norm_sq = float(np.mean(g * g))
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                ft = semigroup_apply(op, g, t)
                cases += 1
                if dirichlet_form(op, ft) > norm_sq / (2.0 * math.e * t) + 1e-14:
                    failures.append(f"smoothing seed {seed} t {t}")

            m = spectral_measure(op, g, center=False)
            grid = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 12.0])
            curve = variance_curve(m, grid).values
            cases += 1
            if np.any(np.diff(curve) > 1e-12 * (curve[0] + 1.0)):
                failures.append(f"variance monotone seed {seed}")

            for mu in (1.0, 0.1, 0.01):
                lhs = float(np.mean(resolvent_solve(op, g, mu) * g))
                rhs = float(np.mean(resolvent_solve(op0, g, mu) * g))
                cases += 1
                if lhs > rhs * (1 + 1e-9) + 1e-13:
                    failures.append(f"resolvent comparison seed {seed} mu {mu}")

            # seminash: variance vs Sobolev-scaled energy plus box-sum term
            for nb in (1, 2, 3):
                s = box_sum_field(g, lat, nb)
                size = (2 * nb + 1) ** d
                bound = sobolev_constant(d, nb) * nb * nb * e_simple
                bound += 2.0 * float(np.mean(s * s)) / size**2
                cases += 1
                if bound < norm_sq - 1e-10:
                    failures.append(f"seminash seed {seed} box {nb}")

            for mu in (2.0, 1.0, 0.25, 0.05):
                tail = spectral_tail(m, mu)
                cases += 1
                if tail > 4.0 * corrector_error_term(m, 2, mu) * (1 + 1e-9) + 1e-15:
                    failures.append(f"quartic error bound seed {seed} mu {mu}")
                cases += 1
                recip_total += 1
                rhs = 8.0 * mu * resolvent_second_moment(m, mu)
                if tail > rhs * (1 + 1e-9) + 1e-15:
                    recip_bad.append(rhs / tail)

            # percolation-style closure bound on the cluster statistic
            try:
                eta = default_eta(law, d)
                w = w_statistic(field, eta)
            except (ParameterError, SaturationError):
                w = None
            if w is not None:
                cases += 1
                w_checked += 1
                if w > 2 * d * len(bad_cluster(field, eta).sites) ** 2 + 1e-9:
                    failures.append(f"cluster bound seed {seed}")

    elapsed = time.perf_counter() - t0
    recip_msg = (
        f"reciprocal bound tail <= 8 mu E[(R_mu f)^2] violated on "
        f"{len(recip_bad)}/{recip_total} cases (worst rhs/lhs "
        f"{min(recip_bad):.2f})" if recip_bad else "reciprocal bound held"
    )
    ok = not failures and not recip_bad and cases >= 1000 and elapsed < 120.0
    _line(
        "criterion-2 inequality suite",
        ok,
        f"{cases} cases, {w_checked} cluster checks, "
        f"{len(failures)} core failures; {recip_msg}; {elapsed:.1f}s",
        cases=cases, core_failures=len(failures), reciprocal_violations=len(recip_bad),
        reciprocal_cases=recip_total, worst_reciprocal_ratio=min(recip_bad, default=None),
        seconds=elapsed,
    )
    assert cases >= 1000
    assert elapsed < 120.0
    assert not failures, failures[:5]
    assert not recip_bad, recip_msg


def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    worst_chain = 0.0
    worst_parseval = 0.0
    fields = 0
    for idx in range(24):
        d, n, law = [
            (2, 8, TwoPoint(0.5, 1.0, 4.0)),
            (2, 10, Uniform(1.0, 3.0)),
            (3, 6, TwoPoint(0.3, 1.0, 5.0)),
        ][idx % 3]
        lat = Lattice(d, n)
        field = sample_field(law, lat, 400 + idx)
        op = build_generator(field, "conductance")
        g = evaluate_all(functional_by_name("drift", d, law), field)
        for mu in (1.0, 1e-1, 1e-2, 1e-3):
            phi = resolvent_solve(op, g, mu)
            est = diffusivity_estimators(field, phi)
            worst_chain = max(worst_chain, *est.chain_residuals(mu))
        m = spectral_measure(op, g, center=True)
        gc = g - g.mean()
        ref = float(np.mean(gc * gc))
        var0 = variance_curve(m, [0.0]).values[0]
        worst_parseval = max(worst_parseval, abs(var0 - ref) / max(ref, 1e-300))
        fields += 1

    # additive-functional identity, atom by atom on synthetic measures;
    # t(sigma^2 - xi) subtracts two O(lambda t) terms, so keep lambda t
    # well away from 0 where that difference loses all its digits
    rng = np.random.default_rng(7)
    worst_zt = 0.0
    for _ in range(200):
        lam = float(rng.uniform(0.05, 50.0))
        w = float(rng.uniform(0.1, 10.0))
        m1 = SpectralMeasure(np.array([lam]), np.array([w]))
        for t in (0.05, 0.5, 5.0, 50.0):
            zt = 2.0 * w * (math.expm1(-lam * t) + lam * t) / lam**2
            exact = additive_variance(m1, t)
            worst_zt = max(worst_zt, abs(zt - exact) / max(abs(zt), 1e-300))
            other = t * (asymptotic_variance(m1) - finite_time_deficit(m1, t))
            worst_zt = max(worst_zt, abs(zt - other) / max(abs(zt), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_chain < 1e-8
        and worst_zt < 1e-12
        and worst_parseval < 1e-12
        and fields >= 20
        and elapsed < 60.0
    )
    _line(
        "criterion-3 identity suite",
        ok,
        f"chain residual {worst_chain:.2e} (limit 1e-8) on {fields} fields, "
        f"additive identity {worst_zt:.1e}, Parseval {worst_parseval:.1e}, {elapsed:.1f}s",
        chain_residual=worst_chain, additive_identity=worst_zt, parseval=worst_parseval,
        seconds=elapsed,
    )
    assert fields >= 20
    assert worst_chain < 1e-8
    assert worst_zt < 1e-12
    assert worst_parseval < 1e-12
    assert elapsed < 60.0


def test_criterion_4_decay_exponents():
    t0 = time.perf_counter()
    law = TwoPoint(0.5, 1.0, 4.0)
    runs = [
        ("edge d=1", 1, 1024, "edge", np.geomspace(0.5, 200.0, 25), 160, 11, 0.5, 0.15),
        ("drift d=1", 1, 1024, "drift", np.geomspace(0.5, 200.0, 25), 160, 12, 1.5, 0.2),
        ("edge d=2", 2, 32, "edge", np.geomspace(0.1, 8.0, 25), 48, 13, 1.0, 0.2),
    ]
    fitted = []
    exponents = {}
    all_ok = True
    for label, d, n, fname, times, reals, seed, alpha, tol in runs:
        _, report = variance_decay_experiment(
            law, d, n, fname, "simple", times, reals, seed,
            expected_alpha=alpha, alpha_tol=tol,
        )
        got = report.fits["alpha"].exponent
        exponents[label] = got
        fitted.append(f"{label} {got:.3f} (target {alpha:g}+/-{tol:g})")
        all_ok = all_ok and _target(report, "decay-exponent").passed
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 600.0
    _line("criterion-4 decay exponents", ok, "; ".join(fitted) + f"; {elapsed:.1f}s",
          exponents=exponents, seconds=elapsed)
    assert all_ok, fitted
    assert elapsed < 600.0


def test_criterion_5_tail_decay_equivalence():
    t0 = time.perf_counter()
    instances = 0
    disagreements = []
    cfgs = [
        (1, 24, TwoPoint(0.3, 1.0, 4.0), "edge"),
        (1, 32, Uniform(1.0, 3.0), "drift"),
        (2, 9, TwoPoint(0.5, 1.0, 4.0), "edge"),
        (2, 12, Uniform(1.0, 2.0), "drift"),
        (3, 5, TwoPoint(0.4, 1.0, 3.0), "edge"),
        (1, 40, BoundedPareto(0.2, 0.5, 50.0), "drift"),
    ]
    for rep in range(3):
        for cfg_idx, (d, n, law, fname) in enumerate(cfgs):
            lat = Lattice(d, n)
            field = sample_field(law, lat, 9000 + 10 * rep + cfg_idx)
            op = build_generator(field, "conductance")
            g = evaluate_all(functional_by_name(fname, d, law), field)
            if float(np.max(np.abs(g - g.mean()))) < 1e-12:
                continue
            m = spectral_measure(op, g, center=True)
            for alpha in (1.2, 1.5, 2.0):
                res = tail_decay_agreement(m, alpha)
                instances += 1
                if not (res.agree and res.forward_bound_ok and res.reverse_bound_ok):
                    disagreements.append((d, n, law.descriptor(), alpha))
    # synthetic spectra with known density exponent: divergence flips at
    # alpha = a.  Divergent probes keep half a unit of margin from the
    # boundary; the truncated grid cannot resolve slower growth than that.
    sweeps = [
        (0.5, [(1.5, True), (2.0, True), (2.5, True)]),
        (1.0, [(1.5, True), (2.0, True), (3.0, True)]),
        (1.5, [(1.25, False), (1.5, False), (2.0, True), (2.5, True)]),
        (2.0, [(1.5, False), (2.0, False), (2.5, True), (3.0, True)]),
    ]
    for a_true, probes in sweeps:
        m = synthetic_power_measure(a_true)
        for alpha, expect_div in probes:
            res = tail_decay_agreement(m, alpha)
            instances += 1
            if not (res.agree and res.time_divergent == expect_div
                    and res.forward_bound_ok and res.reverse_bound_ok):
                disagreements.append(("synthetic", a_true, alpha))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and instances >= 50 and elapsed < 120.0
    _line(
        "criterion-5 tail/decay equivalence",
        ok,
        f"{instances} measures, {len(disagreements)} verdict disagreements, {elapsed:.1f}s",
        measures=instances, disagreements=len(disagreements), seconds=elapsed,
    )
    assert instances >= 50
    assert not disagreements, disagreements[:5]
    assert elapsed < 120.0


def test_criterion_6_diffusivity_convergence():
    t0 = time.perf_counter()
    mus = list(np.geomspace(1.0, 0.177, 6)) + [0.01]
    law = TwoPoint(0.5, 1.0, 4.0)
    report3, _, _ = diffusivity_experiment(
        law, 3, 16, mus, 32, 42, expected_order=1.5, order_tol=0.35,
    )
    order3 = report3.fits["mu_order"].exponent
    ok3 = _target(report3, "convergence-order").passed
    report2, _, _ = diffusivity_experiment(law, 2, 16, mus, 16, 42)
    order2 = report2.fits["mu_order"].exponent
    chain_ok = (
        _target(report3, "chain-identity").passed
        and _target(report2, "chain-identity").passed
    )
    elapsed = time.perf_counter() - t0
    ok = ok3 and order2 >= 0.7 and chain_ok and elapsed < 900.0
    _line(
        "criterion-6 diffusivity convergence",
        ok,
        f"d=3 order {order3:.3f} (target 1.5+/-0.35), d=2 slope {order2:.3f} "
        f"(floor 0.7), {elapsed:.1f}s",
        order_d3=order3, slope_d2=order2, seconds=elapsed,
    )
    assert ok3, f"d=3 order {order3}"
    assert order2 >= 0.7, f"d=2 slope {order2}"
    assert chain_ok
    assert elapsed < 900.0


def test_criterion_7_non_contractivity():
    t0 = time.perf_counter()
    report, res = contractivity_experiment(0.25, 0.1, 1e3)
    elapsed = time.perf_counter() - t0
    ok = (
        res.formula > 0
        and res.verdict == "positive-agree"
        and res.curve_monotone
        and _target(report, "derivative-agreement").passed
        and _target(report, "analogue-nonincreasing").passed
        and elapsed < 300.0
    )
    _line(
        "criterion-7 non-contractivity",
        ok,
        f"formula {res.formula:.6f} > 0, mc {res.mc_estimate:.4f} "
        f"+/- {res.exact_stderr:.4f} (exact), analogue monotone "
        f"{res.curve_monotone}, {elapsed:.1f}s",
        formula=res.formula, mc_estimate=res.mc_estimate, exact_stderr=res.exact_stderr,
        boundedpareto_mean=res.boundedpareto_mean, seconds=elapsed,
    )
    assert res.formula > 0
    assert res.verdict == "positive-agree", res
    assert res.curve_monotone
    assert elapsed < 300.0


def test_criterion_8_msd_gap():
    t0 = time.perf_counter()
    report_c, _ = msd_experiment(
        Constant(1.0), 2, 16, (0.5, 1.0, 2.0, 4.0, 8.0),
        realizations=16, walks=100, seed=21,
    )
    const_ok = _target(report_c, "constant-baseline").passed
    report_t, _ = msd_experiment(
        TwoPoint(0.5, 1.0, 4.0), 2, 24, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        realizations=24, walks=256, seed=22,
    )
    gap_ok = _target(report_t, "gap-nonnegative").passed
    trend_ok = _target(report_t, "gap-decreasing").passed
    elapsed = time.perf_counter() - t0
    _, rows = report_t.tables["msd"]
    gaps, gap_ses = [row[3] for row in rows], [row[4] for row in rows]
    ok = const_ok and gap_ok and trend_ok and elapsed < 600.0
    _line(
        "criterion-8 msd gap",
        ok,
        f"constant baseline {_target(report_c, 'constant-baseline').detail}; "
        f"gap nonnegative {gap_ok}, eventually decreasing {trend_ok}; {elapsed:.1f}s",
        min_gap_stderrs=min(g / s for g, s in zip(gaps, gap_ses)),
        times=[row[0] for row in rows], gap=gaps, gap_stderr=gap_ses, seconds=elapsed,
    )
    assert const_ok, _target(report_c, "constant-baseline").detail
    assert gap_ok, _target(report_t, "gap-nonnegative").detail
    assert trend_ok, _target(report_t, "gap-decreasing").detail
    assert elapsed < 600.0


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Run the acceptance criteria, one line each.")
    parser.add_argument("--json", metavar="PATH",
                        help="also write each criterion's verdict, numbers and runtime to PATH")
    args = parser.parse_args()
    tests = [
        test_criterion_1_exact_oracles,
        test_criterion_2_inequality_suite,
        test_criterion_3_identity_suite,
        test_criterion_4_decay_exponents,
        test_criterion_5_tail_decay_equivalence,
        test_criterion_6_diffusivity_convergence,
        test_criterion_7_non_contractivity,
        test_criterion_8_msd_gap,
    ]
    failed = 0
    for fn in tests:
        try:
            fn()
        except AssertionError:
            failed += 1
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(MEASURED, fh, indent=1, default=float)
            fh.write("\n")
    raise SystemExit(1 if failed else 0)
