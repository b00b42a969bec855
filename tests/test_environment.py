"""Laws, fields, site classification, clusters, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from condlab.environment import (
    BoundedPareto,
    ConductanceField,
    Constant,
    Lattice,
    TwoPoint,
    Uniform,
    bad_cluster,
    classify_sites,
    default_eta,
    load_field,
    parse_law,
    sample_field,
    save_field,
    w_statistic,
)
from condlab.errors import ParameterError, SaturationError


def _pareto_moment_quad(law, k):
    """Numerical oracle for the truncated tail component's k-th moment."""
    a = law.tail_index
    norm = 1.0 - law.cap**-a
    val, err = integrate.quad(lambda x: x**k * a * x ** (-a - 1.0), 1.0, law.cap,
                              limit=200, epsabs=0.0, epsrel=1e-12)
    assert err < 1e-9 * abs(val)
    return val / norm


@pytest.mark.parametrize("eps,cap", [(0.1, 1e3), (0.5, 50.0), (2.0, 10.0)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_pareto_moments_match_quadrature(eps, cap, k):
    law = BoundedPareto(0.3, eps, cap)
    ref = _pareto_moment_quad(law, k)
    assert law.pareto_moment(k) == pytest.approx(ref, rel=1e-10)


def test_pareto_moment_at_the_tail_index_is_the_log_limit():
    # k equal to the index hits the removable singularity of the closed form
    law = BoundedPareto(0.2, 1.0, 100.0)
    assert law.tail_index == 5.0
    ref = _pareto_moment_quad(law, 5)
    assert law.pareto_moment(5) == pytest.approx(ref, rel=1e-10)
    assert law.pareto_moment(5) == pytest.approx(
        5.0 * math.log(100.0) / (1.0 - 100.0**-5.0), rel=1e-12
    )


def test_mixture_moments_and_sampling():
    law = BoundedPareto(0.3, 0.5, 50.0)
    assert law.moment(1) == pytest.approx(0.7 + 0.3 * law.pareto_moment(1), rel=1e-14)
    rng = np.random.default_rng(5)
    draws = law.sample(rng, 200_000)
    assert draws.min() >= 1.0 and draws.max() <= 50.0
    ones = float(np.mean(draws == 1.0))
    assert abs(ones - 0.7) < 5 * math.sqrt(0.3 * 0.7 / draws.size)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - law.moment(1)) < 5 * se


def test_law_constructors_reject_bad_parameters():
    with pytest.raises(ParameterError):
        Constant(0.5)
    with pytest.raises(ParameterError):
        Uniform(0.5, 2.0)
    with pytest.raises(ParameterError):
        Uniform(3.0, 2.0)
    with pytest.raises(ParameterError):
        TwoPoint(1.5, 1.0, 4.0)
    with pytest.raises(ParameterError):
        TwoPoint(0.5, 2.0, 1.0)
    with pytest.raises(ParameterError):
        BoundedPareto(0.5, -1.0, 10.0)
    with pytest.raises(ParameterError):
        BoundedPareto(0.5, 0.5, 0.9)


def test_parse_law_round_trips_and_rejects():
    assert parse_law("constant:2") == Constant(2.0)
    assert parse_law("uniform:1,3") == Uniform(1.0, 3.0)
    assert parse_law("twopoint:0.5,1,4") == TwoPoint(0.5, 1.0, 4.0)
    assert parse_law("boundedpareto:0.2,0.5") == BoundedPareto(0.2, 0.5, 1e3)
    assert parse_law("boundedpareto:0.2,0.5,77") == BoundedPareto(0.2, 0.5, 77.0)
    for law in (Constant(2.0), Uniform(1.0, 3.0), TwoPoint(0.5, 1.0, 4.0),
                BoundedPareto(0.2, 0.5, 77.0)):
        assert parse_law(law.descriptor()) == law
    with pytest.raises(ParameterError):
        parse_law("gaussian:0,1")
    with pytest.raises(ParameterError):
        parse_law("uniform:1")
    with pytest.raises(ParameterError):
        parse_law("constant:abc")


_AT_LEAST_1 = st.floats(min_value=1.0, max_value=1e300)
_WEIGHT = st.floats(min_value=0.0, max_value=1.0)
LAWS = st.one_of(
    st.builds(Constant, _AT_LEAST_1),
    st.tuples(_AT_LEAST_1, _AT_LEAST_1).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: Uniform(*sorted(ab))),
    st.builds(lambda p, a, b: TwoPoint(p, min(a, b), max(a, b)), _WEIGHT, _AT_LEAST_1, _AT_LEAST_1),
    st.builds(BoundedPareto, _WEIGHT, st.floats(min_value=1e-300, max_value=1e300),
              st.floats(min_value=1.0, max_value=1e300, exclude_min=True)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(LAWS)
def test_a_law_descriptor_reads_back_as_the_same_law(law):
    # descriptors go into config.txt, field.txt and summaries, so they keep every bit
    assert parse_law(law.descriptor()) == law


def test_uniform_and_twopoint_moments():
    u = Uniform(1.0, 3.0)
    assert u.moment(1) == pytest.approx(2.0)
    assert u.moment(2) == pytest.approx((27.0 - 1.0) / 6.0)
    assert u.moment(2) - u.moment(1) ** 2 == pytest.approx(4.0 / 12.0)
    t = TwoPoint(0.25, 1.0, 5.0)
    assert t.mean() == pytest.approx(2.0)
    assert t.moment(2) == pytest.approx(0.75 + 0.25 * 25.0)


def test_sample_field_is_deterministic_and_immutable():
    lat = Lattice(2, 6)
    f1 = sample_field(Uniform(1.0, 2.0), lat, 123)
    f2 = sample_field(Uniform(1.0, 2.0), lat, 123)
    f3 = sample_field(Uniform(1.0, 2.0), lat, 124)
    assert np.array_equal(f1.omega, f2.omega)
    assert not np.array_equal(f1.omega, f3.omega)
    with pytest.raises(ValueError):
        f1.omega[0, 0] = 7.0


def test_field_rejects_subunit_conductance():
    lat = Lattice(1, 5)
    with pytest.raises(ParameterError):
        ConductanceField(lat, np.full((1, 5), 0.5))


def test_total_jump_rate_by_hand():
    # omega[0, x] sits on the edge (x, x+1); p(x) = omega[0,x] + omega[0,x-1]
    lat = Lattice(1, 5)
    field = ConductanceField(lat, np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    assert np.array_equal(field.rates(), [6.0, 3.0, 5.0, 7.0, 9.0])


def test_default_eta_constant_and_twopoint():
    assert default_eta(Constant(2.0), 2) == 8.0
    # d=1, p=0.3: P(S > 5) = P(both high) = 0.09 < 1/8, P(S > 2) = 0.51 >= 1/8
    law = TwoPoint(0.3, 1.0, 4.0)
    assert default_eta(law, 1) == 5.0
    # p=0.5 pushes the quantile to the top of the support: no site is ever bad
    assert default_eta(TwoPoint(0.5, 1.0, 4.0), 1) == 8.0
    with pytest.raises(ParameterError):
        default_eta(BoundedPareto(0.2, 0.5, 10.0), 1)


def test_default_eta_uniform_matches_irwin_hall_tail():
    law = Uniform(1.0, 3.0)
    for d in (1, 2):
        m = 2 * d
        eta = default_eta(law, d)
        assert m * law.a < eta < m * law.b

        def tail(x):
            # independent Irwin-Hall complement, written from scratch
            z = (x - m * law.a) / (law.b - law.a)
            acc = 0.0
            for j in range(int(math.floor(z)) + 1):
                acc += (-1) ** j * math.comb(m, j) * (z - j) ** m
            return 1.0 - acc / math.factorial(m)

        threshold = float(m) ** -(m + 1)
        assert tail(eta) <= threshold
        # minimality: any lower threshold already lets too many sites go bad
        assert tail(eta - 1e-6) >= threshold * (1 - 1e-9)


def test_classification_matches_brute_force_and_is_monotone():
    law = TwoPoint(0.3, 1.0, 4.0)
    lat = Lattice(2, 8)
    field = sample_field(law, lat, 77)
    eta = default_eta(law, 2)
    cls = classify_sites(field, eta)
    for x in range(lat.n_sites):
        rate = sum(field.omega[a, x] + field.omega[a, lat.shift(x, a, -1)] for a in range(lat.d))
        assert cls.good[x] == (rate <= eta)
    fractions = [classify_sites(field, e).bad_fraction for e in (4.5, 6.0, 9.0, 13.0)]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    with pytest.raises(ParameterError):
        classify_sites(field, 0.0)


def test_classified_bad_fraction_tracks_the_binomial_tail():
    # d=1 rates are sums of two independent two-point draws
    law = TwoPoint(0.3, 1.0, 4.0)
    lat = Lattice(1, 20000)
    field = sample_field(law, lat, 4)
    frac = classify_sites(field, 5.0).bad_fraction
    p_bad = 0.09  # both incident edges high
    se = math.sqrt(2 * p_bad * (1 - p_bad) / lat.n_sites)  # pairs overlap, inflate
    assert abs(frac - p_bad) < 5 * se


def test_bad_cluster_grows_only_through_bad_interiors():
    lat = Lattice(1, 7)
    omega = np.ones((1, 7))
    omega[0, 0] = 4.0
    omega[0, 1] = 4.0  # site 1 sees rate 8 and is the unique bad site
    field = ConductanceField(lat, omega)
    cluster = bad_cluster(field, eta=5.0)
    assert classify_sites(field, 5.0).bad_fraction == pytest.approx(1.0 / 7.0)
    # origin and its neighbours always belong; the path through bad site 1
    # also pulls in site 2, but good site 6 stops further growth
    assert cluster.sites.tolist() == [0, 1, 2, 6]
    assert not cluster.saturated

    all_good = ConductanceField(lat, np.ones((1, 7)))
    c0 = bad_cluster(all_good, eta=5.0)
    assert c0.sites.tolist() == [0, 1, 6]


def test_w_statistic_all_good_and_hand_example():
    for d, n in ((1, 9), (2, 5)):
        lat = Lattice(d, n)
        field = ConductanceField(lat, np.ones((d, lat.n_sites)))
        assert w_statistic(field, eta=2.0 * d + 1.0) == 4.0 * d

    # one bad site at 1: closure {0,1,2}; the three edges (0,1), (1,2) and
    # (6,0)... only edges whose extended set contains the origin count
    lat = Lattice(1, 7)
    omega = np.ones((1, 7))
    omega[0, 0] = 4.0
    omega[0, 1] = 4.0
    field = ConductanceField(lat, omega)
    w = w_statistic(field, eta=5.0)
    # edges (0,1) and (1,2) extend to {0,1,2} (size 3); edge (6,0) stays
    # {6,0} (size 2); every other edge misses the origin
    assert w == 3.0 + 3.0 + 2.0


def test_w_statistic_saturation_raises():
    lat = Lattice(1, 5)
    field = ConductanceField(lat, np.full((1, 5), 3.0))
    with pytest.raises(SaturationError):
        w_statistic(field, eta=2.5)  # every site bad


def test_cluster_bound_w_le_2d_cluster_squared():
    law = TwoPoint(0.35, 1.0, 4.0)
    for seed in range(40):
        d, n = (1, 30) if seed % 2 else (2, 7)
        field = sample_field(law, Lattice(d, n), 3000 + seed)
        eta = default_eta(law, d)
        try:
            w = w_statistic(field, eta)
        except SaturationError:
            continue
        c = bad_cluster(field, eta)
        assert w <= 2 * d * len(c.sites) ** 2


def test_field_save_load_round_trip(tmp_path):
    lat = Lattice(2, 6)
    field = sample_field(BoundedPareto(0.3, 0.5, 50.0), lat, 21)
    path = tmp_path / "field.txt"
    save_field(field, path)
    back = load_field(path)
    assert back.lattice.d == 2 and back.lattice.n == 6
    assert np.array_equal(back.omega, field.omega)
    assert back.law == field.law


def test_lattice_basics():
    lat = Lattice(2, 5)
    assert lat.n_sites == 25
    x = lat.site_index((3, 4))
    assert lat.site_coords(x).tolist() == [3, 4]
    assert lat.shift(x, 1, 1) == lat.site_index((3, 0))  # wraps
    nb = lat.neighbors(x)
    assert len(nb) == 4
    with pytest.raises(ParameterError):
        Lattice(2, 2)
    with pytest.raises(ParameterError):
        Lattice(0, 5)
