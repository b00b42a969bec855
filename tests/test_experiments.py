"""Experiment drivers: fits, reports, and the cross-method oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from condlab import experiments, operators, walker
from condlab.environment import BoundedPareto, Constant, Lattice, TwoPoint, Uniform, sample_field
from condlab.errors import ConfigError, FitError, ParameterError
from condlab.experiments import (
    _CONTRACT_BLOCK,
    ExperimentReport,
    _bootstrap_exponents,
    _loglog_fit,
    _contract_mc_chunk,
    _contract_uniforms,
    contract_exact_moments,
    contractivity_experiment,
    decay_fit,
    diffusivity_experiment,
    msd_experiment,
    nash_chain_check,
    variance_decay_experiment,
    write_report,
)
from condlab.functionals import (
    LocalFunctional,
    Polynomial,
    box_sum_field,
    centered_edge,
    contract_example,
    evaluate_all,
    local_drift,
)
from condlab.operators import DENSE_LIMIT, build_generator, semigroup_apply, simple_generator
from condlab.spectral import DecayCurve, asymptotic_variance, corrector_error_term, spectral_measure
from condlab.util import child_rng, field_groups, field_seed
from condlab.walker import msd_estimate

LAW = TwoPoint(0.5, 1.0, 4.0)


def _target(report, name):
    for t in report.targets:
        if t.name == name:
            return t
    raise AssertionError(f"no target {name!r} in {[t.name for t in report.targets]}")


def test_decay_fit_recovers_an_exact_power_law():
    t = np.geomspace(1.0, 100.0, 30)
    curve = DecayCurve(t, 3.0 * t**-0.7)
    fit = decay_fit(curve)
    assert fit.exponent == pytest.approx(0.7, abs=1e-9)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-9)
    assert not fit.curved
    assert fit.ci_low <= 0.7 <= fit.ci_high


def test_decay_fit_flags_exponential_curvature():
    t = np.geomspace(0.5, 6.0, 24)
    fit = decay_fit(DecayCurve(t, np.exp(-2.0 * t)))
    assert fit.curved
    assert abs(fit.curvature) > 0.1


def test_decay_fit_window_and_failure_modes():
    t = np.geomspace(1.0, 100.0, 40)
    curve = DecayCurve(t, 5.0 * t**-1.2)
    fit = decay_fit(curve, window=(10.0, 100.0))
    assert fit.window == (10.0, 100.0)
    assert fit.exponent == pytest.approx(1.2, abs=1e-9)
    with pytest.raises(FitError):
        decay_fit(DecayCurve(t, np.zeros_like(t)))
    with pytest.raises(FitError):
        decay_fit(DecayCurve(np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.5, 0.25])))


def _looped_bootstrap(t, v, rng):
    """The bootstrap as one polyfit per resample: the reference for the one-pass version."""
    boots = []
    for _ in range(400):
        idx = rng.integers(0, len(t), len(t))
        if len(np.unique(t[idx])) < 2:
            continue
        s, _, _ = _loglog_fit(t[idx], v[idx])
        boots.append(-s)
    return np.array(boots)


@pytest.mark.parametrize("m", [5, 6, 12, 25])
def test_one_pass_bootstrap_matches_the_polyfit_loop(m):
    rng = np.random.default_rng(m)
    t = np.geomspace(1.0, 100.0, m)
    v = 2.0 * t**-1.5 * np.exp(0.05 * rng.normal(size=m))
    skipped = 0
    for seed in range(8):
        ref = _looped_bootstrap(t, v, np.random.default_rng(seed))
        got = _bootstrap_exponents(t, v, np.random.default_rng(seed))
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12)
        skipped += 400 - len(ref)
    if m == 5:
        # a 5-point window draws a one-time resample about once in 625
        assert skipped > 0


@pytest.mark.parametrize("m,alpha,noise,curved", [(5, 0.5, 0.02, 0.0), (7, 1.5, 0.1, 0.0),
                                                  (25, 1.0, 0.0, 0.0), (25, 2.5, 0.05, 0.3)])
def test_decay_fit_matches_the_polyfit_loop(m, alpha, noise, curved):
    t = np.geomspace(0.5, 200.0, m)
    lt = np.log(t)
    v = np.exp(-alpha * lt + curved * (lt - lt.mean()) ** 2
               + noise * np.random.default_rng(m).normal(size=m))
    fit = decay_fit(DecayCurve(t, v), window=(t[0], t[-1]))
    ref = _looped_bootstrap(t, v, np.random.default_rng(0))
    slope, _, _ = _loglog_fit(t, v)
    ci = np.percentile(ref, [2.5, 97.5])
    curvature = np.polyfit(lt - np.mean(lt), np.log(v), 2)[0]
    assert abs(fit.exponent + slope) <= 1e-12
    assert abs(fit.ci_low - ci[0]) <= 1e-12 and abs(fit.ci_high - ci[1]) <= 1e-12
    assert abs(fit.curvature - curvature) <= 1e-12


def test_exact_contract_moments_frozen_values():
    mean, var = contract_exact_moments(0.25, 0.1, 1e3)
    # moment-algebra expansion agrees with the closed four-moment form
    a = 4.1
    norm = 1.0 - 1e3**-a
    m = [0.25 * (a / (a - k)) * (1.0 - 1e3 ** (k - a)) / norm for k in range(1, 5)]
    closed = m[0] * m[1] - m[2] + m[3] - m[1] ** 2 + 2 * m[0] * m[1] ** 2 - 2 * m[0] * m[3]
    assert mean == pytest.approx(closed, rel=1e-12)
    assert mean == pytest.approx(0.8811072891599946, rel=1e-12)
    assert math.sqrt(var) == pytest.approx(416089.19, abs=0.5)
    assert contract_exact_moments(0.0, 0.1, 1e3) == (0.0, 0.0)
    # bit for bit as the separate dict algebra computed them
    assert contract_exact_moments(0.25, 0.1, 1e3) == (0.8811072891599944, 173130216929.06308)
    assert contract_exact_moments(0.9, 8, 3) == (-0.31635789651137003, 28.508208410276556)


@pytest.mark.parametrize("p, eps, cap", [(0.25, 0.1, 1e3), (0.9, 8.0, 3.0), (0.05, 2.0, 1e4)])
def test_contract_moment_algebra_mean_is_the_closed_four_moment_formula(p, eps, cap):
    # the experiment reports the polynomial's expectation; the closed form in
    # the law's first four moments is an independent route to the same number
    _, result = contractivity_experiment(p, eps, cap, realizations=1000, fields=1)
    law = BoundedPareto(p, eps, cap)
    m1, m2, m3, m4 = (p * law.pareto_moment(k) for k in range(1, 5))
    closed = m1 * m2 - m3 + m4 - m2 * m2 + 2.0 * m1 * m2 * m2 - 2.0 * m1 * m4
    assert abs(result.formula - closed) <= 1e-15 * abs(closed)


def test_contract_mc_matches_formula_when_tails_are_light():
    # small cap makes the exact stderr tight, so this sharply validates both
    # the sampler and the polynomial expectation machinery
    rep, res = contractivity_experiment(0.9, 8.0, 3.0, realizations=400_000,
                                        fields=4, torus_n=12)
    assert res.exact_stderr < 0.01
    assert abs(res.mc_estimate - res.formula) <= 4 * res.exact_stderr
    # the derivative happens to be negative here; the verdict records that
    assert res.formula < 0
    assert res.verdict == "inconclusive"
    assert res.curve_monotone
    assert _target(rep, "analogue-nonincreasing").passed


def test_contract_without_tail_mass_has_a_zero_derivative():
    # p = 0: every edge is 0, so the formula and every window's product vanish
    rep, res = contractivity_experiment(0.0, 0.1, 1e3, realizations=2000, fields=2)
    assert res.verdict == "zero-derivative"
    assert res.formula == 0.0
    assert res.mc_estimate == 0.0
    assert _target(rep, "derivative-agreement").passed


@pytest.mark.parametrize("torus_n", [12, 64, 8192])
def test_contract_analogue_curve_matches_the_evolved_box_sums(torus_n):
    # the curve comes from the Fourier measure of S_1 g; the oracle applies
    # e^{tL} to g first, densely or (beyond the dense limit) by expm_multiply
    law = BoundedPareto(0.9, 8.0, 3.0)
    lat = Lattice(1, torus_n)
    op = simple_generator(lat)
    t_grid = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    dense = torus_n <= DENSE_LIMIT
    for seed in range(3 if dense else 1):
        # one field per run, so the mean curve is that field's curve
        _, res = contractivity_experiment(0.9, 8.0, 3.0, realizations=100, seed=seed, fields=1,
                                          torus_n=torus_n, t_grid=t_grid)
        g = evaluate_all(contract_example(law), sample_field(law, lat, field_seed(seed, 0)))
        if dense:
            evolved = [semigroup_apply(op, g, t) for t in t_grid]
        else:
            evolved = [expm_multiply(op.matrix * t, g) for t in t_grid]
        ref = [np.mean(box_sum_field(v, lat, 1) ** 2) for v in evolved]
        assert np.allclose(res.curve_values, ref, rtol=1e-12 if dense else 1e-10, atol=0.0)
        assert res.curve_monotone


def test_contractivity_rejects_heavy_stderr_hiding():
    # the heavy-tailed default carries a per-sample std near 4.2e5; the
    # empirical stderr at small n is orders of magnitude smaller and a note
    # flags that the exact one is being used instead
    rep, res = contractivity_experiment(0.25, 0.1, 1e3, realizations=100_000,
                                        fields=3, torus_n=12)
    assert res.exact_stderr > 100.0
    assert res.formula == pytest.approx(0.8811072891599946, rel=1e-12)
    assert any("stderr" in note for note in rep.notes)
    # recorded when each chunk drew its 1e5 x 8 uniforms at once
    assert res.mc_estimate == pytest.approx(-1.6909035487229493, rel=1e-12)
    assert res.mc_stderr == pytest.approx(0.9008870502768779, rel=1e-12)


def test_contract_summary_names_both_laws_and_the_boundedpareto_mean():
    rep, res = contractivity_experiment(0.25, 0.1, 1e3, realizations=1000, fields=2)
    assert res.formula == pytest.approx(0.8811072891599946, rel=1e-12)
    assert res.boundedpareto_mean == pytest.approx(-5.371740740948194, rel=1e-12)
    assert any("light mass at 0 lies outside w >= 1" in note for note in rep.notes)
    (analogue,) = [note for note in rep.notes if note.startswith("analogue fields: ")]
    assert analogue.startswith("analogue fields: boundedpareto:0.25,0.1,1000, light mass at 1")
    assert "= -5.37174 by moment algebra, against the formula's 0.881107" in analogue


@pytest.mark.parametrize("p, eps, cap, windows, unresolved", [
    (0.25, 0.1, 1e3, 4_000_000, True),  # the README law: 3 x 208 >= 0.881
    (0.1, 0.1, 20.0, 1_000_000, False),  # exact stderr about 0.12 against 0.420
])
def test_contract_notes_when_the_sampled_sign_is_unresolved(p, eps, cap, windows, unresolved):
    rep, res = contractivity_experiment(p, eps, cap, realizations=windows, fields=1)
    notes = [note for note in rep.notes if note.startswith("sampled sign unresolved")]
    assert (3.0 * res.exact_stderr >= abs(res.formula)) == unresolved
    assert len(notes) == unresolved
    # the gate keeps its 3 sigma rule either way
    assert _target(rep, "derivative-agreement").passed


def test_contract_boundedpareto_mean_matches_a_ring_average():
    # S_1(Lg) S_1(g) averaged over a ring through the lattice pipeline, which
    # does not transcribe the polynomial; block means of 64 sites carry the
    # short-range correlation of neighbouring windows into the stderr
    p, eps, cap = 0.3, 0.5, 5.0
    law, lat = BoundedPareto(p, eps, cap), Lattice(1, 1 << 20)
    field = sample_field(law, lat, 3)
    g = evaluate_all(contract_example(law), field)
    lg = build_generator(field, "conductance").matrix @ g
    h = (box_sum_field(lg, lat, 1) * box_sum_field(g, lat, 1)).reshape(-1, 64).mean(axis=1)
    se = h.std(ddof=1) / math.sqrt(h.size)
    _, res = contractivity_experiment(p, eps, cap, realizations=1000, fields=1)
    assert abs(h.mean() - res.boundedpareto_mean) <= 4.0 * se
    assert h.mean() + 4.0 * se < 0.0  # the ring resolves the negative sign


def _one_shot_contract_chunk(p, eps, cap, seed, chunk_idx, size):
    """The window estimand's sums over a chunk drawn in one piece: the reference."""
    rng = child_rng(seed, 3, chunk_idx)
    a = 4.0 + eps
    u = rng.random((size, 8))
    v = rng.random((size, 8))
    e = np.where(u < p, (1.0 - v * (1.0 - cap**-a)) ** (-1.0 / a), 0.0)
    f = {k: e[:, k + 2] + e[:, k + 5] ** 2 for k in range(-2, 3)}
    s1f = f[-1] + f[0] + f[1]
    s1lf = np.zeros(size)
    for x in (-1, 0, 1):
        s1lf += e[:, x + 3] * (f[x + 1] - f[x]) + e[:, x + 2] * (f[x - 1] - f[x])
    h = s1lf * s1f
    return float(h.sum()), float((h * h).sum()), u, v


# a chunk that is not a multiple of the block, so the last block is short
ODD_CHUNK = 10037


def test_contract_blocks_replay_the_chunk_draws():
    blocks = list(_contract_uniforms(4, 2, ODD_CHUNK))
    assert [len(u) for u, _ in blocks[:-1]] == [_CONTRACT_BLOCK] * (len(blocks) - 1)
    assert len(blocks[-1][0]) == ODD_CHUNK % _CONTRACT_BLOCK
    _, _, u, v = _one_shot_contract_chunk(0.25, 0.1, 1e3, 4, 2, ODD_CHUNK)
    assert np.array_equal(np.concatenate([u for u, _ in blocks]), u)
    assert np.array_equal(np.concatenate([v for _, v in blocks]), v)


@pytest.mark.parametrize("p, eps, cap", [(0.25, 0.1, 1e3), (0.9, 8.0, 3.0)])
def test_contract_chunk_sums_match_the_one_shot_reference(p, eps, cap):
    h, h2, size = _contract_mc_chunk((p, eps, cap, 4, 2, ODD_CHUNK))
    ref_h, ref_h2, _, _ = _one_shot_contract_chunk(p, eps, cap, 4, 2, ODD_CHUNK)
    assert size == ODD_CHUNK
    assert h == pytest.approx(ref_h, rel=1e-12)
    assert h2 == pytest.approx(ref_h2, rel=1e-12)


def test_contract_chunk_memory_stays_within_a_few_blocks():
    # one-shot draws of a 1e6-row chunk allocated about 300 MB
    tracemalloc.start()
    try:
        _contract_mc_chunk((0.25, 0.1, 1e3, 0, 0, 1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("method", ["spectral", "mc"])
def test_decay_refuses_an_unknown_kind_before_any_walk(method, monkeypatch):
    # the mc method once walked every kind but conductance as the simple walk
    def no_walks(*args):
        raise AssertionError("walks simulated for an unknown kind")

    monkeypatch.setattr(experiments, "_field_batch", no_walks)
    with pytest.raises(ParameterError, match="kind must be 'conductance' or 'simple', got 'bogus'"):
        variance_decay_experiment(LAW, 1, 12, "edge", "bogus", [1, 2, 4], 2, 0, method=method, walks=4)


def test_decay_spectral_and_mc_methods_agree_on_shared_fields():
    times = np.array([0.5, 1.0, 2.0])
    spec, _ = variance_decay_experiment(LAW, 1, 12, "edge", "conductance",
                                        times, 6, 5, method="spectral")
    mc, _ = variance_decay_experiment(LAW, 1, 12, "edge", "conductance",
                                      times, 6, 5, method="mc", walks=400)
    dev = np.abs(spec.values - mc.values) / np.maximum(mc.stderrs, 1e-300)
    assert float(dev.max()) < 4.0


def test_decay_experiment_is_deterministic():
    times = np.geomspace(0.5, 4.0, 6)
    a, _ = variance_decay_experiment(LAW, 1, 16, "edge", "simple", times, 5, 7)
    b, _ = variance_decay_experiment(LAW, 1, 16, "edge", "simple", times, 5, 7)
    c, _ = variance_decay_experiment(LAW, 1, 16, "edge", "simple", times, 5, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_simple_walk_runs_build_no_generator(monkeypatch):
    # the rate-1 walk's measures come from the FFT; a 10^6-site simple_generator costs 133 MB
    def no_generator(*args):
        raise AssertionError("a generator was built for the simple walk")

    monkeypatch.setattr(operators.TorusOperator, "__init__", no_generator)
    curve, report = variance_decay_experiment(LAW, 2, 12, "edge", "simple", np.geomspace(0.5, 4.0, 6), 3, 0)
    assert report.notes[0] == "spectral engine: exact Fourier measure of the simple walk"
    assert np.all(curve.values > 0)
    assert contractivity_experiment(0.25, 0.1, 1e3, realizations=1000, fields=2)[1].curve_monotone


def test_decay_experiment_validation():
    times = np.array([1.0, 2.0])
    with pytest.raises(ConfigError):
        variance_decay_experiment(LAW, 1, 12, "poly:e[0;0]", "conductance", times, 2, 0)
    with pytest.raises(ConfigError):
        variance_decay_experiment(LAW, 1, 12, "edge", "conductance", np.array([2.0, 1.0]), 2, 0)
    with pytest.raises(ConfigError):
        variance_decay_experiment(LAW, 1, 12, "edge", "conductance", times, 2, 0, method="magic")
    for method in ("spectral", "mc"):
        with pytest.raises(ConfigError, match="times must not be empty"):
            variance_decay_experiment(LAW, 1, 12, "edge", "conductance", [], 2, 0, method=method)
    # a nan or infinite time would pass the ordering test and write a nan curve value
    for bad in ([1.0, 2.0, 4.0, 8.0, 16.0, np.inf], [1.0, np.nan, 4.0]):
        with pytest.raises(ConfigError, match="times must be positive, finite and strictly increasing"):
            variance_decay_experiment(LAW, 1, 12, "edge", "simple", bad, 2, 0)


def test_decay_experiment_runs_beyond_the_dense_limit():
    times = np.array([1.0, 2.0])
    curve, report = variance_decay_experiment(LAW, 1, 5000, "edge", "conductance", times, 2, 0)
    lat = Lattice(1, 5000)
    refs = []
    for r in range(2):
        field = sample_field(LAW, lat, field_seed(0, r))
        v, prev, ref = evaluate_all(centered_edge(1, LAW), field), 0.0, []
        for t in times:
            v = expm_multiply(build_generator(field).matrix * (t - prev), v)
            prev = t
            ref.append(float(v @ v) / v.size)
        refs.append(ref)
    assert np.allclose(curve.values, np.mean(refs, axis=0), rtol=1e-8, atol=0.0)
    assert any(note.startswith("spectral engine: Lanczos") for note in report.notes)


def _assert_report_does_not_depend_on_workers(tmp_path, run, tables):
    """Write run(workers) for workers 1 and 2 and compare the files byte for byte."""
    for workers in (1, 2):
        write_report(run(workers), tmp_path / str(workers))
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert {"config.txt", "summary.txt"} | {f"{t}.csv" for t in tables} <= set(files)
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_decay_report_does_not_depend_on_workers(tmp_path):
    times = np.geomspace(0.2, 5.0, 6)
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: variance_decay_experiment(LAW, 2, 10, "edge", "conductance", times, 3, 4,
                                                  workers=workers)[1],
        ["curve"],
    )


def test_decay_report_does_not_depend_on_workers_or_quadrature_groups(tmp_path, monkeypatch):
    times = np.geomspace(0.2, 5.0, 6)

    def run(workers):
        return variance_decay_experiment(LAW, 2, 10, "edge", "conductance", times, 5, 4,
                                         workers=workers)[1]

    whole = run(1)
    assert any(" bracket evaluations per field," in note for note in whole.notes)
    write_report(whole, tmp_path / "whole")
    # two fields of 100 sites to a group: [0], [1, 2], [3, 4] at one worker
    monkeypatch.setattr(experiments, "_QUADRATURE_ROWS", 200)
    assert [list(g) for g in field_groups(5, 100, experiments._QUADRATURE_ROWS, 1)] == [[0], [1, 2], [3, 4]]
    for workers in (1, 2, 3):
        write_report(run(workers), tmp_path / str(workers))
    files = sorted(p.name for p in (tmp_path / "whole").iterdir())
    assert {"config.txt", "summary.txt", "curve.csv"} <= set(files)
    for workers in (1, 2, 3):
        for name in files:
            assert (tmp_path / str(workers) / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_decay_takes_a_functional_outside_the_registry(tmp_path):
    # a centered functional built by hand; its name is not a registry entry
    diff = Polynomial.edge((0, 0), 0) - Polynomial.edge((0, 0), 1)
    f = LocalFunctional("my-diff", diff, LAW)
    times = np.geomspace(0.2, 5.0, 6)
    for method in ("spectral", "mc"):
        _assert_report_does_not_depend_on_workers(
            tmp_path / method,
            lambda workers: variance_decay_experiment(LAW, 2, 6, f, "conductance", times, 3, 4,
                                                      method=method, walks=50,
                                                      workers=workers)[1],
            ["curve"],
        )
        # the library writes no inputs to config.txt; the command line does
        assert (tmp_path / method / "1" / "config.txt").read_text() == "# condlab-config v1\nexperiment=decay\n"
    _assert_report_does_not_depend_on_workers(
        tmp_path / "nash",
        lambda workers: nash_chain_check(LAW, 2, [1, 2], f, realizations=3, seed=5,
                                         workers=workers),
        ["boxes"],
    )


def test_diffusivity_report_does_not_depend_on_workers(tmp_path):
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: diffusivity_experiment(LAW, 2, 8, [1.0, 0.5, 0.25, 0.05], 4, 3,
                                               workers=workers)[0],
        ["estimators", "fields"],
    )


def test_decay_mc_report_does_not_depend_on_workers(tmp_path):
    times = np.array([0.25, 0.5, 1.0, 2.0])
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: variance_decay_experiment(LAW, 2, 6, "edge", "conductance", times, 3, 4,
                                                  method="mc", walks=50, workers=workers)[1],
        ["curve"],
    )


def test_nash_check_report_does_not_depend_on_workers(tmp_path):
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: nash_chain_check(LAW, 2, [1, 2], "drift", realizations=3, seed=5,
                                         workers=workers),
        ["boxes"],
    )


def test_msd_report_does_not_depend_on_workers(tmp_path):
    # workers reach the walked fields' corrector solves and their walks
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: msd_experiment(LAW, 1, 12, (0.5, 1.0, 2.0), realizations=2, walks=20,
                                       seed=4, no_trend=True, workers=workers)[0],
        ["msd", "fields"],
    )


def test_decay_experiment_notes_a_vanishing_functional():
    curve, report = variance_decay_experiment(
        Constant(2.0), 1, 12, "drift", "conductance", np.array([0.5, 1.0]), 3, 1,
    )
    assert float(np.max(curve.values)) == 0.0
    assert any("vanishes" in note for note in report.notes)
    assert "alpha" not in report.fits
    assert report.passed


def test_diffusivity_experiment_chain_order_and_torus_rows():
    mus = [1.0, 0.5, 0.25, 0.05]
    report, sigma2, sigma2_se = diffusivity_experiment(LAW, 2, 8, mus, 6, 3)
    assert _target(report, "chain-identity").passed
    assert _target(report, "estimator-ordering").passed
    columns, rows = report.tables["estimators"]
    assert columns == ["mu", "a0", "a1", "a2", "a2_stderr", "phi_sq", "a2_minus_torus", "diff_stderr"]
    assert [row[0] for row in rows] == mus + [0.0]
    a0, a1, a2 = rows[-1][1:4]
    # at mu = 0 the three estimators agree by algebra, and the difference is 0 by definition
    assert a1 == pytest.approx(a0, rel=1e-12) and a2 == pytest.approx(a0, rel=1e-12)
    assert rows[-1][6:] == (0.0, 0.0)
    # A2 falls with mu down to the torus value
    diffs = [row[6] for row in rows[:-1]]
    assert np.all(np.diff(diffs) < 0.0) and diffs[-1] > 0.0
    _, fields = report.tables["fields"]
    torus = np.array([value for _, value in fields])
    assert [r for r, _ in fields] == list(range(6))
    alone = [experiments._diffusivity_one_field((LAW, Lattice(2, 8), field_seed(3, r), [0.0]))[0][0, 2]
             for r in range(6)]
    assert torus == pytest.approx(2.0 * np.array(alone), rel=1e-10)
    assert sigma2 == pytest.approx(torus.mean(), rel=1e-14) == pytest.approx(2.0 * a2, rel=1e-14)
    assert sigma2_se == pytest.approx(np.std(torus, ddof=1) / math.sqrt(6), rel=1e-12)
    assert float(torus.mean()) == sigma2
    assert "mu_order" in report.fits
    solves = [note for note in report.notes if note.startswith("corrector solves: multi-shift CG")]
    assert len(solves) == 1 and "worst verified residual" in solves[0]


DIFFUSIVITY_LAWS = {
    "constant": Constant(1.5),
    "uniform": Uniform(1.0, 3.0),
    "twopoint": TwoPoint(0.5, 1.0, 4.0),
    "boundedpareto": BoundedPareto(0.3, 0.5, 1e3),
}


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("name", sorted(DIFFUSIVITY_LAWS))
def test_zero_shift_corrector_matches_the_dense_measure_field_by_field(name, d, n):
    # A2(mu) - A2(0) is the error term sum w mu^2 / (lambda (lambda + mu)^2) of
    # the drift's measure, and 2 A2(0) is 2 E[w_0] minus its asymptotic variance
    law, lat, mus = DIFFUSIVITY_LAWS[name], Lattice(d, n), [1.0, 0.1, 0.01]
    for r in range(2):
        seed = field_seed(11, r)
        rows = experiments._diffusivity_one_field((law, lat, seed, mus + [0.0]))[0]
        field = sample_field(law, lat, seed)
        m = spectral_measure(build_generator(field, "conductance"),
                             evaluate_all(local_drift(d, law), field), center=True)
        a2 = rows[:, 2]
        dense = 2.0 * float(np.mean(field.omega[0])) - asymptotic_variance(m)
        assert 2.0 * a2[-1] == pytest.approx(dense, rel=1e-12), r
        for mu, a in zip(mus, a2):
            assert a - a2[-1] == pytest.approx(corrector_error_term(m, 2, mu), rel=1e-7, abs=1e-15), (r, mu)


@pytest.mark.parametrize("n", [64, 1024, DENSE_LIMIT + 4])
def test_one_dimensional_torus_diffusivity_is_the_harmonic_mean(n):
    # in d=1 the torus corrector is explicit: sigma2_torus = 2 / mean(1/w)
    lat = Lattice(1, n)
    report, _, _ = diffusivity_experiment(LAW, 1, n, (), 2, 17)
    for r, value in report.tables["fields"][1]:
        omega = sample_field(LAW, lat, field_seed(17, r)).omega[0]
        assert value == pytest.approx(2.0 / np.mean(1.0 / omega), rel=1e-12), r


def test_diffusivity_constant_law_has_no_order_to_fit():
    report, sigma2, _ = diffusivity_experiment(Constant(2.0), 1, 8, [1.0, 0.5, 0.1], 2, 0)
    assert any("vanishes" in note for note in report.notes)
    assert "mu_order" not in report.fits
    assert sigma2 == pytest.approx(4.0)  # twice the edge mean, no correction
    assert report.passed


def test_diffusivity_validation():
    with pytest.raises(ConfigError):
        diffusivity_experiment(LAW, 1, 8, [1.0, -0.5, 0.1], 4, 0)
    with pytest.raises(ConfigError):
        diffusivity_experiment(LAW, 1, 8, [1.0, 0.5, 0.1], 1, 0)  # no spread
    with pytest.raises(ConfigError, match=r"mu value 0\.5 is repeated"):
        diffusivity_experiment(LAW, 1, 8, [0.5, 1.0, 0.1, 0.5], 4, 0)


def test_msd_constant_law_uses_the_exact_diffusivity():
    report, gap = msd_experiment(Constant(1.0), 1, 12, (0.5, 1.0, 2.0),
                                 realizations=4, walks=60, seed=3)
    assert any("exact diffusivity" in note for note in report.notes)
    assert _target(report, "constant-baseline").name == "constant-baseline"
    assert np.all(gap.values >= 0.0)
    names = [t.name for t in report.targets]
    assert "gap-decreasing" not in names  # nothing to trend on a flat medium
    with pytest.raises(ConfigError, match="times must not be empty"):
        msd_experiment(Constant(1.0), 1, 12, [], realizations=4, walks=60, seed=3)
    with pytest.raises(ConfigError, match="times must be positive, finite and strictly increasing"):
        msd_experiment(Constant(1.0), 1, 12, [0.5, 1.0, np.inf], realizations=4, walks=60, seed=3)


MSD_TIMES = (0.5, 1.0, 2.0, 4.0)


def _msd_columns(report):
    columns, rows = report.tables["msd"]
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(columns)}


def test_msd_pairs_each_walked_field_with_its_own_torus_diffusivity(tmp_path):
    d, n, realizations, walks, seed = 2, 8, 6, 32, 9
    report, gap_curve = msd_experiment(LAW, d, n, MSD_TIMES, realizations, walks, seed)
    # the walked fields are diffusivity's fields on the same (law, d, n, seed)
    sub, sigma2, _ = diffusivity_experiment(LAW, d, n, (), realizations, seed)
    write_report(report, tmp_path / "msd")
    write_report(sub, tmp_path / "diffusivity")
    assert (tmp_path / "msd" / "fields.csv").read_bytes() == (tmp_path / "diffusivity" / "fields.csv").read_bytes()
    assert np.mean([value for _, value in report.tables["fields"][1]]) == pytest.approx(sigma2, rel=1e-14)
    # the gap is the mean of the per-field gaps MSD_r/t - d sigma2_r, with their stderr
    torus = np.array([value for _, value in sub.tables["fields"][1]])
    fields = [sample_field(LAW, Lattice(d, n), field_seed(seed, r)) for r in range(realizations)]
    curve = msd_estimate(fields, walks, MSD_TIMES, seed)
    gaps = curve.field_msd_over_t - d * torus[:, None]
    columns = _msd_columns(report)
    assert np.array_equal(columns["msd_over_t"], curve.msd_over_t)
    assert columns["gap"] == pytest.approx(gaps.mean(axis=0), rel=1e-12, abs=1e-14)
    assert columns["gap_stderr"] == pytest.approx(gaps.std(axis=0, ddof=1) / math.sqrt(realizations),
                                                  rel=1e-12)
    assert np.array_equal(gap_curve.stderrs, columns["gap_stderr"])
    assert report.passed


def test_msd_of_one_field_uses_its_exact_diffusivity_and_the_walks_stderr():
    d, n, walks, seed = 2, 8, 64, 9
    report, _ = msd_experiment(LAW, d, n, MSD_TIMES, 1, walks, seed)
    ((field, sigma2),) = report.tables["fields"][1]
    alone = experiments._diffusivity_one_field((LAW, Lattice(d, n), field_seed(seed, 0), [0.0]))[0]
    assert field == 0 and sigma2 == 2.0 * alone[0, 2]
    columns = _msd_columns(report)
    assert np.array_equal(columns["gap"], columns["msd_over_t"] - d * sigma2)
    # one field has no field-to-field spread: its walks give the error bar
    assert np.all(columns["stderr"] > 0)
    assert np.array_equal(columns["gap_stderr"], columns["stderr"])


def test_msd_carries_over_a_failed_chain_identity(monkeypatch):
    monkeypatch.setattr(experiments, "_CHAIN_TOL", 0.0)
    report, _ = msd_experiment(LAW, 1, 12, (0.5, 1.0), 2, 8, 4, no_trend=True)
    assert not _target(report, "chain-identity").passed
    assert not report.passed


def test_msd_samples_each_field_once(monkeypatch):
    # every module-level binding of sample_field counts, the walker's included
    calls = []
    real = sample_field

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (experiments, walker):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counting)
    realizations = 3
    for law, sigma2 in ((LAW, None), (LAW, 4.0), (Constant(2.0), None)):
        calls.clear()
        msd_experiment(law, 2, 8, MSD_TIMES, realizations, 8, 5, sigma2=sigma2, no_trend=True)
        assert len(calls) == realizations, (law, sigma2)
        assert [seed for _, _, seed in calls] == [field_seed(5, r) for r in range(realizations)]


# sha256 of msd.csv (and fields.csv when paired): the README's `msd` (paired,
# seed 0), a supplied sigma2 (the `walk` benchmark's seed-0 run) and the
# constant law (criterion 8's baseline).  The unpaired pins were recorded
# before the gap was paired per field, the paired ones when every field was
# sampled twice, once for its solve and once for its walks
MSD_SHA256 = {
    "paired": {"msd.csv": "bc148f3992270e3c3f7fc541a4e45bf3a38afdf05bfb3800434669f4530188bc",
               "fields.csv": "46a2babba3ab6b00f838c14129722847bcbbf5a5a3210793f4c2848b4f006f37"},
    "supplied": {"msd.csv": "8410b76c98f84189bf316e2b72686aa9be61f7ca004959001eeeea14a9608cfd"},
    "constant": {"msd.csv": "85eed209c459ca815c957257f66fe934697d89e9a6cb199fb91ae133fea7a8a4"},
}


def test_msd_tables_are_pinned(tmp_path):
    runs = {
        "paired": msd_experiment(LAW, 2, 24, (0.5, 1.0, 2.0, 4.0, 8.0, 16.0), 8, 64, 0),
        "supplied": msd_experiment(LAW, 2, 24, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0), 24, 256, 0,
                                   sigma2=4.0181196468082, sigma2_se=0.029903292720652844),
        "constant": msd_experiment(Constant(1.0), 2, 16, (0.5, 1.0, 2.0, 4.0, 8.0),
                                   realizations=16, walks=100, seed=21),
    }
    for name, (report, _) in runs.items():
        assert ("fields" in report.tables) == (name == "paired"), name
        write_report(report, tmp_path / name)
        for filename, pin in MSD_SHA256[name].items():
            digest = hashlib.sha256((tmp_path / name / filename).read_bytes()).hexdigest()
            assert digest == pin, (name, filename)


def test_nash_chain_check_holds_and_reports_the_tightest_box():
    report = nash_chain_check(Uniform(1.0, 3.0), 1, [1, 2, 4], "drift",
                              realizations=4, seed=2)
    assert _target(report, "box-inequality").passed
    (tightest,) = [note for note in report.notes if note.startswith("tightest box size ")]
    assert int(tightest.split()[3]) in (1, 2, 4)
    assert "boxes" in report.tables
    with pytest.raises(ConfigError):
        nash_chain_check(LAW, 1, [], "drift", realizations=2, seed=0)
    with pytest.raises(ConfigError):
        nash_chain_check(LAW, 1, [4], "drift", realizations=2, seed=0, torus_n=9)
    # a repeated size would be computed and reported twice
    with pytest.raises(ConfigError, match="box size 2 is repeated"):
        nash_chain_check(LAW, 1, [2, 1, 2], "drift", realizations=2, seed=0)


@pytest.mark.parametrize("t_grid", [[], [1.0], [2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0],
                                    [0.0, 1.0, np.inf], [0.0, np.nan, 1.0]],
                         ids=["empty", "one-time", "decreasing", "repeated", "negative", "infinite", "nan"])
def test_contract_t_grid_needs_two_increasing_nonnegative_times(t_grid):
    # one time would pass analogue-nonincreasing without checking a step, and
    # an infinite one would pass it on a nan curve value
    with pytest.raises(ConfigError, match="t-grid must be at least two nonnegative, strictly increasing"):
        contractivity_experiment(0.9, 8.0, 3.0, realizations=100, fields=1, torus_n=8, t_grid=t_grid)


_ZERO_COUNTS = {
    "nash-realizations": (nash_chain_check, (LAW, 1, [1], "drift"), dict(realizations=0, seed=0)),
    "decay-realizations": (variance_decay_experiment, (LAW, 1, 12, "edge", "conductance", [1.0]),
                           dict(realizations=0, seed=0)),
    "decay-mc-walks": (variance_decay_experiment, (LAW, 1, 12, "edge", "conductance", [1.0]),
                       dict(realizations=2, seed=0, method="mc", walks=0)),
    "msd-walks": (msd_experiment, (Constant(1.0), 1, 12, [1.0]), dict(realizations=2, walks=0, seed=0)),
    "contract-realizations": (contractivity_experiment, (0.25, 0.1, 1e3), dict(realizations=0)),
    "contract-fields": (contractivity_experiment, (0.25, 0.1, 1e3), dict(realizations=100, fields=0)),
}


@pytest.mark.parametrize("case", list(_ZERO_COUNTS), ids=list(_ZERO_COUNTS))
def test_zero_counts_are_config_errors(case):
    # the CLI refuses these counts with exit 2; the library refuses them up front
    run, args, kwargs = _ZERO_COUNTS[case]
    count = case.rsplit("-", 1)[1]
    with pytest.raises(ConfigError, match=f"{count} must be >= 1"):
        run(*args, **kwargs)


def test_report_passed_property_and_tables():
    rep = ExperimentReport("demo", config={"n": 3})
    assert rep.passed  # vacuously
    rep.check("first", True, "fine")
    assert rep.passed
    rep.check("second", False, "broken")
    assert not rep.passed
    rep.add_table("t", ("a", "b"), [(1, 2.5)])
    assert rep.tables["t"] == (["a", "b"], [(1, 2.5)])


def test_write_report_is_byte_deterministic(tmp_path):
    report = nash_chain_check(Uniform(1.0, 3.0), 1, [1, 2], "drift",
                              realizations=3, seed=11)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    write_report(report, d1)
    write_report(report, d2)
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    assert "config.txt" in files and "summary.txt" in files
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    config = (d1 / "config.txt").read_text().splitlines()
    assert config[0] == "# condlab-config v1"
    assert "experiment=nash-check" in config
    summary = (d1 / "summary.txt").read_text()
    assert summary.startswith("# condlab-summary v1")
    assert "PASS box-inequality" in summary
    assert summary.rstrip().endswith("result: pass")


def test_rebuilt_experiment_writes_identical_bytes(tmp_path):
    def run():
        rep, _, _ = diffusivity_experiment(LAW, 1, 10, [1.0, 0.5, 0.1], 3, 9)
        return rep

    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_report(run(), d1)
    write_report(run(), d2)
    for p in sorted(d1.iterdir()):
        assert p.read_bytes() == (d2 / p.name).read_bytes()
