"""Spectral measures, decay/tail statistics, diffusivity estimators."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from condlab import spectral
from condlab.environment import (
    BoundedPareto,
    Constant,
    Lattice,
    TwoPoint,
    Uniform,
    sample_field,
)
from condlab.errors import NonergodicError, ParameterError, SolverError
from condlab.functionals import centered_edge, evaluate_all, local_drift
from condlab.operators import (
    _lanczos,
    build_generator,
    resolvent_solve,
    semigroup_apply,
    simple_generator,
)
from condlab.spectral import (
    QUADRATURE_RTOL,
    DecayCurve,
    SpectralMeasure,
    _gauss_radau,
    _quadrature_group,
    additive_variance,
    asymptotic_variance,
    corrector_error_term,
    diffusivity_estimators,
    finite_time_deficit,
    fourier_measure,
    load_measure_csv,
    quadrature_measure,
    resolvent_second_moment,
    spectral_measure,
    spectral_tail,
    synthetic_power_measure,
    tail_decay_agreement,
    variance_curve,
)
from condlab.util import field_seed

LAW = TwoPoint(0.5, 1.0, 4.0)


def _field_measure(d, n, seed, fname="drift", center=True):
    field = sample_field(LAW, Lattice(d, n), seed)
    op = build_generator(field, "conductance")
    f = local_drift(d, LAW) if fname == "drift" else centered_edge(d, LAW)
    g = evaluate_all(f, field)
    return field, op, g, spectral_measure(op, g, center=center)


def _random_measure(rng, atoms=30):
    lam = np.sort(rng.uniform(1e-3, 20.0, atoms))
    w = rng.uniform(0.0, 2.0, atoms)
    return SpectralMeasure(lam, w)


def test_parseval_total_mass_is_the_mean_square():
    _, op, g, m = _field_measure(2, 7, 1)
    gc = g - g.mean()
    assert m.total_mass == pytest.approx(float(np.mean(gc * gc)), rel=1e-12)
    assert variance_curve(m, [0.0]).values[0] == pytest.approx(m.total_mass, rel=1e-12)
    assert m.removed_mean == pytest.approx(float(g.mean()))
    m_raw = spectral_measure(op, g, center=False)
    assert m_raw.total_mass == pytest.approx(float(np.mean(g * g)), rel=1e-12)


def test_variance_curve_matches_the_evolved_function():
    _, op, g, m = _field_measure(1, 14, 3, fname="edge")
    gc = g - g.mean()
    for t in (0.1, 0.7, 3.0):
        evolved = semigroup_apply(op, gc, t)
        assert variance_curve(m, [t]).values[0] == pytest.approx(float(np.mean(evolved**2)), rel=1e-10)
    curve = variance_curve(m, [0.0, 0.5, 1.0])
    assert curve.values[0] >= curve.values[1] >= curve.values[2]
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="times must be finite and >= 0"):
            variance_curve(m, [1.0, bad])


def test_measure_validation_and_zero_mass():
    with pytest.raises(ParameterError):
        SpectralMeasure(np.array([2.0, 1.0]), np.array([1.0, 1.0]))  # not sorted
    with pytest.raises(ParameterError):
        SpectralMeasure(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        SpectralMeasure(np.array([1.0]), np.array([-1.0]))
    m = SpectralMeasure(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    assert m.zero_mass() == 0.5


def test_nonergodic_guard_on_uncentered_measures():
    # an uncentered functional with nonzero mean leaves real weight at 0
    _, op, g, m = _field_measure(1, 10, 5, fname="drift", center=True)
    field = sample_field(LAW, Lattice(1, 10), 5)
    raw = spectral_measure(op, field.omega[0], center=False)
    assert raw.zero_mass() > 1e-6
    for fn in (spectral_tail, ):
        with pytest.raises(NonergodicError):
            fn(raw, 1.0)
    with pytest.raises(NonergodicError):
        asymptotic_variance(raw)
    with pytest.raises(NonergodicError):
        finite_time_deficit(raw, 1.0)
    # additive_variance tolerates zero atoms: they contribute w t^2
    v = additive_variance(SpectralMeasure(np.array([0.0]), np.array([2.0])), 3.0)
    assert v == pytest.approx(2.0 * 9.0)


def test_additive_variance_identity_atomwise_and_summed():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = _random_measure(rng)
        for t in (0.05, 1.0, 12.0):
            direct = additive_variance(m, t)
            atomwise = math.fsum(
                2.0 * w * (math.expm1(-lam * t) + lam * t) / lam**2
                for lam, w in zip(m.lambdas, m.weights)
            )
            assert direct == pytest.approx(atomwise, rel=1e-12)
            decomposed = t * (asymptotic_variance(m) - finite_time_deficit(m, t))
            assert direct == pytest.approx(decomposed, rel=1e-10)
    # the deficit is sandwiched between 0 and the asymptotic rate
    m = _random_measure(np.random.default_rng(3))
    for t in (0.1, 1.0, 100.0):
        assert 0.0 <= finite_time_deficit(m, t) <= asymptotic_variance(m)
    # the lag dies off like 1/t once every mode has relaxed
    assert finite_time_deficit(m, 1e8) < 1e-3 * asymptotic_variance(m)


def test_synthetic_power_measure_carries_exact_bin_mass():
    alpha = 1.5
    m = synthetic_power_measure(alpha, atoms=4000, lo=1e-5, hi=1.0)
    assert m.total_mass == pytest.approx((1.0 - 1e-5**alpha) / alpha, rel=1e-12)
    # tail sums approach the closed form integral of lambda^(alpha-2)
    for delta in (1e-3, 1e-2, 1e-1):
        closed = (delta ** (alpha - 1.0) - 1e-5 ** (alpha - 1.0)) / (alpha - 1.0)
        assert spectral_tail(m, delta) == pytest.approx(closed, rel=5e-3)
    # variance decay follows t^-alpha over the scaling window
    late, later = variance_curve(m, [100.0, 1000.0]).values
    r = late / later
    assert math.log(r, 10.0) == pytest.approx(alpha, abs=0.05)


def test_resolvent_second_moment_matches_the_solver():
    field, op, g, m = _field_measure(2, 8, 9)
    for mu in (1.0, 0.1, 0.01):
        phi = resolvent_solve(op, g, mu)
        direct = float(np.mean(phi * phi))
        assert resolvent_second_moment(m, mu) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("d, n", [(1, 7), (2, 5), (3, 3)])
def test_estimators_of_a_stack_are_each_rows_estimates(d, n):
    field = sample_field(LAW, Lattice(d, n), 2)
    phis = np.random.default_rng(n).normal(size=(4, field.lattice.n_sites))
    assert diffusivity_estimators(field, phis) == [diffusivity_estimators(field, p) for p in phis]
    with pytest.raises(ParameterError):
        diffusivity_estimators(field, phis[None])
    with pytest.raises(ParameterError):
        diffusivity_estimators(field, phis[:, 1:])


def test_estimator_chain_and_error_term_identity():
    field, op, g, m = _field_measure(2, 8, 13)
    lam, w = m.lambdas, m.weights
    pos = lam > 1e-12
    sigma_half = float(np.mean(field.omega[0])) - float(np.sum(w[pos] / lam[pos]))
    for mu in (1.0, 0.1, 0.01):
        phi = resolvent_solve(op, g, mu)
        est = diffusivity_estimators(field, phi)
        r1, r2 = est.chain_residuals(mu)
        assert r1 < 1e-10 and r2 < 1e-10
        assert est.a2 <= est.a1 + 1e-12
        assert est.a1 <= est.a0 + 1e-12
        # each estimator exceeds the torus-exact value by its error term
        for k, a in ((0, est.a0), (1, est.a1), (2, est.a2)):
            ik = corrector_error_term(m, k, mu)
            assert a - sigma_half == pytest.approx(ik, rel=1e-6, abs=1e-10)


def test_quartic_error_bound_is_atomwise():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = _random_measure(rng, atoms=20)
        for mu in (2.0, 0.5, 0.05):
            assert spectral_tail(m, mu) <= 4.0 * corrector_error_term(m, 2, mu) * (1 + 1e-12)


def test_reciprocal_tail_bound_has_a_unit_atom_counterexample():
    # a single atom below ~0.17 mu already violates tail <= 8 mu E[(R f)^2]
    m = SpectralMeasure(np.array([0.1]), np.array([1.0]))
    mu = 1.0
    tail = spectral_tail(m, mu)
    rhs = 8.0 * mu * resolvent_second_moment(m, mu)
    assert tail == pytest.approx(10.0)
    assert rhs == pytest.approx(8.0 / 1.1**2)
    assert tail > rhs  # the bound genuinely fails here
    # while an atom above the threshold satisfies it
    m2 = SpectralMeasure(np.array([0.5]), np.array([1.0]))
    assert spectral_tail(m2, mu) <= 8.0 * mu * resolvent_second_moment(m2, mu)


def test_load_measure_csv_refuses_a_file_without_its_header(tmp_path):
    # the round trip of a written measure.csv is a CLI test
    bad = tmp_path / "bad.csv"
    bad.write_text("lambda,weight\n1.0,1.0\n")
    with pytest.raises(ParameterError):
        load_measure_csv(bad)


def test_tail_decay_agreement_unit_cases():
    # genuine mass at zero diverges on both sides of the equivalence
    m0 = SpectralMeasure(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    res = tail_decay_agreement(m0, 1.5)
    assert res.time_divergent and res.tail_divergent and res.agree

    m = synthetic_power_measure(1.0)
    fast = tail_decay_agreement(m, 2.0)
    assert fast.time_divergent and fast.tail_divergent and fast.agree
    slow = tail_decay_agreement(m, 1.0 + 1e-9)  # right at the boundary
    assert not slow.time_divergent and not slow.tail_divergent and slow.agree
    with pytest.raises(ParameterError):
        tail_decay_agreement(m, 1.0)


def test_decay_curve_validation():
    with pytest.raises(ParameterError):
        DecayCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        DecayCurve(np.array([0.5, 1.0]), np.array([1.0, -1.0]))
    c = DecayCurve(np.array([0.5, 1.0]), np.array([1.0, 0.5]),
                   stderrs=np.array([0.1, 0.05]), label="demo")
    assert c.label == "demo"


# ---------------------------------------------------------------------------
# Matrix-free engines against the dense oracle

ORACLE_LAWS = {
    "constant": Constant(1.5),
    "uniform": Uniform(1.0, 3.0),
    "twopoint": TwoPoint(0.5, 1.0, 4.0),
    "pareto": BoundedPareto(0.3, 0.5, 1e3),
}
# largest period per dimension that keeps a torus within 512 sites
ORACLE_MAX_N = {1: 512, 2: 22, 3: 8}


@st.composite
def _oracle_case(draw):
    law = ORACLE_LAWS[draw(st.sampled_from(sorted(ORACLE_LAWS)))]
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, ORACLE_MAX_N[d]))
    seed = draw(st.integers(0, 2**31 - 1))
    field = sample_field(law, Lattice(d, n), seed)
    rng = np.random.default_rng(seed)
    # an uncentered g, so the exact zero atom is exercised too
    g = rng.normal(size=field.lattice.n_sites) + draw(st.sampled_from([0.0, 0.3]))
    t_max = draw(st.sampled_from([0.5, 5.0, 50.0]))
    return build_generator(field, "conductance"), g, np.geomspace(0.01, t_max, 12)


def _dense_curve(op, g, times):
    return variance_curve(spectral_measure(op, g, center=False), times).values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_oracle_case())
def test_gauss_and_radau_rules_bracket_the_dense_curve(case):
    op, g, times = case
    v = g - g.mean()
    mass = float(v @ v) / v.size
    zero = float(g.mean()) ** 2
    exact = _dense_curve(op, g, times)
    # rounding allowance: the bracket is an inequality between exact sums
    slack = 1e-12 * exact + 1e-14 * mass
    # the bracket is open, hence informative, over the first steps
    for alphas, betas, _ in itertools.islice(_lanczos([op], v[None]), 60):
        _, _, lower, upper = _gauss_radau(alphas, betas, times)
        assert np.all(zero + mass * lower <= exact + slack), len(alphas)
        assert np.all(exact <= zero + mass * upper + slack), len(alphas)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_oracle_case())
def test_quadrature_curve_is_within_its_tolerance_of_the_dense_oracle(case):
    op, g, times = case
    quad = quadrature_measure(op, g, times)
    exact = _dense_curve(op, g, times)
    assert quad.width <= QUADRATURE_RTOL
    assert 0 < quad.steps < op.lattice.n_sites
    assert quad.measure.total_mass == pytest.approx(float(np.mean(g * g)), rel=1e-12)
    got = variance_curve(quad.measure, times).values
    # 1e-13 of the mass covers the dense oracle's own rounding
    assert np.all(np.abs(got - exact) <= QUADRATURE_RTOL * exact + 1e-13 * quad.measure.total_mass)


SHARED_SCHEDULE_STEPS = {"twopoint": 358, "uniform": 319, "pareto": 253, "constant": 253}


@pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
def test_long_quadrature_runs_stay_within_tolerance_of_the_dense_oracle(law):
    # hundreds of steps on 512 sites: the plain recurrence has lost
    # orthogonality and holds copies of converged Ritz values
    field = sample_field(ORACLE_LAWS[law], Lattice(1, 512), 7)
    op = build_generator(field, "conductance")
    g = np.random.default_rng(7).normal(size=512) + 0.3
    times = np.geomspace(0.01, 1000.0, 12)
    quad = quadrature_measure(op, g, times)
    exact = _dense_curve(op, g, times)
    assert quad.width <= QUADRATURE_RTOL
    assert quad.steps >= 200
    got = variance_curve(quad.measure, times).values
    assert np.all(np.abs(got - exact) <= QUADRATURE_RTOL * exact + 1e-13 * quad.measure.total_mass)
    ritz = quad.measure.lambdas[1:]
    copies = int(np.sum(np.diff(ritz) <= 1e-9 * ritz[1:]))
    # the constant law's ring has 257 distinct eigenvalues, so no copy is needed
    assert copies > 0 or law == "constant"
    # checks placed by the field's own widths: 9-10 here, where a schedule of
    # checks 10 apart through step 90, then k // 8 apart, took 18-21 and
    # closed at SHARED_SCHEDULE_STEPS
    assert quad.checks <= 12
    assert quad.steps <= 1.1 * SHARED_SCHEDULE_STEPS[law]


def test_quadrature_memory_does_not_grow_with_the_steps():
    law = TwoPoint(0.5, 1.0, 4.0)
    field = sample_field(law, Lattice(2, 320), 0)
    op = build_generator(field)
    g = evaluate_all(centered_edge(2, law), field)
    op.matrix  # built once per operator, outside the recurrence
    tracemalloc.start()
    try:
        quad = quadrature_measure(op, g, np.geomspace(0.1, 200.0, 30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert quad.steps > 200
    # a stored basis would take quad.steps vectors
    assert peak < 16 * g.nbytes
    # 2 t delta at the latest time, delta = k eps |L| with |L| <= 2 max_rate
    eps = np.finfo(float).eps
    assert quad.rounding == pytest.approx(2.0 * 200.0 * quad.steps * eps * 2.0 * op.max_rate)


def test_quadrature_of_zero_is_the_zero_measure():
    op = build_generator(sample_field(TwoPoint(0.5, 1.0, 4.0), Lattice(2, 6), 0))
    quad = quadrature_measure(op, np.zeros(36), [0.5, 1.0])
    assert (quad.width, quad.steps, quad.measure.total_mass) == (0.0, 0, 0.0)
    assert np.array_equal(variance_curve(quad.measure, [0.5, 1.0]).values, [0.0, 0.0])


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
def test_quadrature_is_exact_at_early_breakdown_on_the_constant_law(d, n):
    # the lattice Laplacian has few distinct eigenvalues, so a point mass
    # exhausts its Krylov space long before the site count
    op = build_generator(sample_field(Constant(1.0), Lattice(d, n), 0))
    g = np.zeros(op.lattice.n_sites)
    g[0] = 1.0
    times = np.geomspace(0.1, 10.0, 9)
    quad = quadrature_measure(op, g, times)
    distinct = len(np.unique(np.round(op.eigensystem()[0], 9)))
    assert quad.width == 0.0
    assert quad.steps == distinct - 1
    exact = _dense_curve(op, g, times)
    assert np.allclose(variance_curve(quad.measure, times).values, exact, rtol=1e-12, atol=0.0)


def test_quadrature_beyond_the_dense_limit_matches_expm_multiply():
    law = TwoPoint(0.5, 1.0, 4.0)
    field = sample_field(law, Lattice(2, 128), 4)
    op = build_generator(field)
    g = evaluate_all(centered_edge(2, law), field)
    times = np.geomspace(0.1, 20.0, 9)
    quad = quadrature_measure(op, g, times)
    assert quad.width <= QUADRATURE_RTOL
    got = variance_curve(quad.measure, times).values
    v, prev, ref = g, 0.0, []
    for t in times:
        v = expm_multiply(op.matrix * (t - prev), v)
        prev = t
        ref.append(float(v @ v) / v.size)
    assert np.allclose(got, ref, rtol=1e-8, atol=0.0)


def test_quadrature_refuses_to_return_an_open_bracket(monkeypatch):
    _, op, g, _ = _field_measure(2, 12, 5, fname="edge")
    times = np.geomspace(0.1, 20.0, 9)
    assert quadrature_measure(op, g, times).steps > 10
    monkeypatch.setattr(spectral, "QUADRATURE_MAX_STEPS", 10)
    with pytest.raises(SolverError, match="after 10 Lanczos steps"):
        quadrature_measure(op, g, times)


def test_a_width_that_has_not_fallen_waits_half_the_steps(monkeypatch):
    law = Uniform(1.0, 3.0)
    field = sample_field(law, Lattice(2, 12), 5)
    op = build_generator(field)
    g = evaluate_all(centered_edge(2, law), field)
    times = np.geomspace(0.1, 20.0, 9)
    real = spectral._gauss_radau
    checks, brackets = [], []

    def stale_at_30(alphas, betas, times):
        # the first check at k >= 30 returns the previous check's bracket,
        # so its width has not fallen
        nodes, weights, lower, upper = real(alphas, betas, times)
        checks.append(alphas.shape[1])
        if checks[-1] >= 30 and sum(k >= 30 for k in checks) == 1:
            lower, upper = brackets[-1]
        brackets.append((lower, upper))
        return nodes, weights, lower, upper

    # the real widths fall at step 30, and the line through them asks for 10 more steps
    assert quadrature_measure(op, g, times).steps == 40
    monkeypatch.setattr(spectral, "_gauss_radau", stale_at_30)
    quad = quadrature_measure(op, g, times)
    # with no line to follow, the field waits max(10, 30 // 2) steps
    assert checks == [10, 20, 30, 45]
    assert quad.steps == 45 and quad.width <= QUADRATURE_RTOL


@st.composite
def _quadrature_group_case(draw):
    d = draw(st.integers(1, 3))
    lat = Lattice(d, draw(st.integers(3, ORACLE_MAX_N[d])))
    ops, gs = [], []
    for _ in range(draw(st.integers(1, 5))):
        law = ORACLE_LAWS[draw(st.sampled_from(sorted(ORACLE_LAWS)))]
        seed = draw(st.integers(0, 2**31 - 1))
        ops.append(build_generator(sample_field(law, lat, seed)))
        start = draw(st.sampled_from(["normal", "zero", "point"]))
        if start == "normal":
            gs.append(np.random.default_rng(seed).normal(size=lat.n_sites) + 0.3)
        else:
            # zero takes no step; a point mass on the constant law breaks down early
            gs.append(np.zeros(lat.n_sites))
            gs[-1][0] = 1.0 if start == "point" else 0.0
    return ops, gs, np.geomspace(0.01, draw(st.sampled_from([0.5, 50.0, 500.0])), 12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_quadrature_group_case())
def test_each_field_of_a_group_gets_the_quadrature_it_gets_alone(case):
    ops, gs, times = case
    group = _quadrature_group(ops, gs, times)
    assert len(group) == len(ops)
    for op, g, quad in zip(ops, gs, group):
        alone = quadrature_measure(op, g, times)
        assert np.array_equal(quad.measure.lambdas, alone.measure.lambdas)
        assert np.array_equal(quad.measure.weights, alone.measure.weights)
        assert quad[1:] == alone[1:]
        assert [type(x) for x in quad[1:]] == [float, int, float, int]


# Quadratures recorded on numpy's OpenBLAS 0.3.31 (x86-64), as
# (steps, width, rounding, sha256 of the measure's lambdas and weights).  A
# result depends only on the step where its bracket closes and on the
# summation order of the generator's rows.  All but edge-0 were first
# recorded with the engine that ran one field at a time and checked its
# bracket every 10 steps, and close at the same step now.  edge-0 closed at 90
# there; its own widths now place a check at 85, where it closes, and its
# curve agrees with the step-90 one to 2.9e-12 relative.  Re-recorded when the
# rows went from ascending column order to star order (diagonal, x + e_0,
# x - e_0, ...): same steps and bracket checks, curves within 5.7e-14 relative.
PARENT_QUADRATURES = {
    "edge-0": (85, "0x1.7b4c78c33e1edp-38", "0x1.a900000000000p-36",
               "732fdfdb3e9fd370aa0522e07de304e0ca1691a365e29bf8e9526c88696e37ce"),
    "edge-1": (90, "0x1.0061cd930c2fcp-40", "0x1.c200000000000p-36",
               "ab0767274f7c2bc94dc119b731e916c31763e0e33e7d1116eb404bde46d646b2"),
    "uniform-3d": (20, "0x1.371ea98be022ep-39", "0x1.e915f470317fbp-37",
                   "147c8ccc628b83d379e3292fa6645dd8bea9a743cdacb08bfbd44eb392aa04dc"),
    "pareto-1d": (8, "0x0.0p+0", "0x1.ee0fe387b8f87p-41",
                  "57d260758c0b4bbfc426f2c267cb099126e2f554a56b6b35a2a67764ca44f759"),
    "constant-2d": (12, "0x0.0p+0", "0x1.c200000000000p-39",
                    "8534fcad8e379dc23e8ab08ad79e621d170ff08b4cd1351901fedf3868df141f"),
}


def _pinned_case(name):
    if name.startswith("edge-"):
        # the fields of the perfbench `spectral` workload under seed 0
        field = sample_field(LAW, Lattice(2, 48), field_seed(0, int(name[5:])))
        return build_generator(field), evaluate_all(centered_edge(2, LAW), field), np.geomspace(0.1, 20.0, 25)
    law, d, n, seed = {"uniform-3d": (Uniform(1.0, 3.0), 3, 5, 1),
                       "pareto-1d": (BoundedPareto(0.3, 0.5, 1e3), 1, 9, 2),
                       "constant-2d": (Constant(1.5), 2, 8, 3)}[name]
    field = sample_field(law, Lattice(d, n), seed)
    g = np.random.default_rng(seed).normal(size=n**d) + 0.3
    if name == "constant-2d":
        g = np.zeros(n**d)
        g[0] = 1.0
    return build_generator(field), g, np.geomspace(0.01, 50.0, 12)


@pytest.mark.parametrize("name", sorted(PARENT_QUADRATURES))
def test_runs_that_close_by_step_90_keep_their_recorded_quadrature(name):
    quad = quadrature_measure(*_pinned_case(name))
    m = quad.measure
    digest = hashlib.sha256(m.lambdas.tobytes() + m.weights.tobytes()).hexdigest()
    assert (quad.steps, quad.width.hex(), quad.rounding.hex(), digest) == PARENT_QUADRATURES[name]


def test_quadrature_refuses_empty_times_and_returns_plain_scalars():
    op = build_generator(sample_field(TwoPoint(0.5, 1.0, 4.0), Lattice(1, 3), 0))
    with pytest.raises(ParameterError, match="times must not be empty"):
        quadrature_measure(op, np.array([1.0, 0.0, 0.0]), [])
    quad = quadrature_measure(op, np.array([1.0, 0.0, 0.0]), [0.5, 2.0])
    assert quad.steps > 0 and quad.rounding > 0.0
    assert [type(x) for x in quad[1:]] == [float, int, float, int]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_quadrature_refuses_nonfinite_and_negative_times_before_any_step(bad, monkeypatch):
    op = build_generator(sample_field(TwoPoint(0.5, 1.0, 4.0), Lattice(2, 40), 0))
    g = np.random.default_rng(1).normal(size=op.lattice.n_sites)

    def no_lanczos(*args):
        raise AssertionError("Lanczos ran on a refused time grid")

    monkeypatch.setattr(spectral, "_lanczos", no_lanczos)
    with pytest.raises(ParameterError, match="times must be finite and >= 0"):
        quadrature_measure(op, g, [1.0, bad])


@pytest.mark.parametrize("d,n", [(1, 17), (2, 6), (3, 4)])
def test_fourier_measure_is_the_simple_walk_spectrum(d, n):
    lat = Lattice(d, n)
    g = evaluate_all(centered_edge(d, LAW), sample_field(LAW, lat, 2))
    fast = fourier_measure(lat, g)
    dense = spectral_measure(simple_generator(lat), g, center=False)
    assert np.allclose(fast.lambdas, dense.lambdas, rtol=0.0, atol=1e-12)
    times = np.geomspace(0.01, 10.0, 15)
    assert np.allclose(variance_curve(fast, times).values, variance_curve(dense, times).values,
                       rtol=1e-13, atol=1e-15)
    assert fast.total_mass == pytest.approx(float(np.mean(g * g)), rel=1e-13)
