"""Experiment drivers: fits, reports, and the cross-method oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from condlab import experiments
from condlab.environment import Constant, Lattice, TwoPoint, Uniform, sample_field
from condlab.errors import ConfigError, FitError
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
from condlab.functionals import LocalFunctional, Polynomial, centered_edge, evaluate_all
from condlab.operators import build_generator
from condlab.spectral import DecayCurve
from condlab.util import child_rng, field_groups, field_seed

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
    assert curve.fit is fit


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
        assert "functional=my-diff\n" in (tmp_path / method / "1" / "config.txt").read_text()
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
        ["estimators"],
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
    # workers reach the corrector sweep that supplies sigma2 and the walker's fields
    _assert_report_does_not_depend_on_workers(
        tmp_path,
        lambda workers: msd_experiment(LAW, 1, 12, (0.5, 1.0, 2.0), realizations=2, walks=20,
                                       seed=4, sigma2_realizations=3, trend_check=False,
                                       workers=workers)[0],
        ["msd"],
    )


def test_decay_experiment_notes_a_vanishing_functional():
    curve, report = variance_decay_experiment(
        Constant(2.0), 1, 12, "drift", "conductance", np.array([0.5, 1.0]), 3, 1,
    )
    assert float(np.max(curve.values)) == 0.0
    assert any("vanishes" in note for note in report.notes)
    assert "alpha" not in report.fits
    assert report.passed


def test_diffusivity_experiment_chain_order_and_extrapolation():
    mus = [1.0, 0.5, 0.25, 0.05]
    report, sigma2, sigma2_se = diffusivity_experiment(LAW, 2, 8, mus, 6, 3)
    assert _target(report, "chain-identity").passed
    assert _target(report, "estimator-ordering").passed
    columns, rows = report.tables["estimators"]
    assert columns[0] == "mu" and "a2" in columns
    a2 = {row[0]: row[columns.index("a2")] for row in rows}
    # A2 grows with mu, and the extrapolated value sits below the baseline
    assert a2[1.0] > a2[0.05]
    assert 0.0 < sigma2 <= 2.0 * a2[0.05]
    assert sigma2_se >= 0.0
    assert report.config["sigma2"] == sigma2
    assert "mu_order" in report.fits
    solves = [note for note in report.notes if note.startswith("corrector solves: multi-shift CG")]
    assert len(solves) == 1 and "worst verified residual" in solves[0]


def test_diffusivity_constant_law_has_no_order_to_fit():
    report, sigma2, _ = diffusivity_experiment(Constant(2.0), 1, 8, [1.0, 0.5, 0.1], 2, 0)
    assert any("vanishes" in note for note in report.notes)
    assert "mu_order" not in report.fits
    assert sigma2 == pytest.approx(4.0)  # twice the edge mean, no correction
    assert report.passed


def test_diffusivity_validation():
    with pytest.raises(ConfigError):
        diffusivity_experiment(LAW, 1, 8, [1.0, 0.5], 4, 0)  # too few mus
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


def test_nash_chain_check_holds_and_reports_the_tightest_box():
    report = nash_chain_check(Uniform(1.0, 3.0), 1, [1, 2, 4], "drift",
                              realizations=4, seed=2)
    assert _target(report, "box-inequality").passed
    assert report.config["modal_box"] in (1, 2, 4)
    assert "boxes" in report.tables
    with pytest.raises(ConfigError):
        nash_chain_check(LAW, 1, [], "drift", realizations=2, seed=0)
    with pytest.raises(ConfigError):
        nash_chain_check(LAW, 1, [4], "drift", realizations=2, seed=0, torus_n=9)


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
