"""Local functionals: stencils, registry, box sums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.environment import (
    BoundedPareto,
    ConductanceField,
    Constant,
    Lattice,
    TwoPoint,
    Uniform,
    sample_field,
)
from condlab.errors import AliasingError, ParameterError
from condlab.functionals import (
    LocalFunctional,
    Polynomial,
    box_sum_field,
    centered_edge,
    contract_example,
    evaluate_all,
    functional_by_name,
    local_drift,
    polynomial_functional,
)


LAW = TwoPoint(0.5, 1.0, 4.0)


def test_drift_reads_the_two_origin_edges():
    lat = Lattice(1, 8)
    omega = np.arange(1.0, 9.0).reshape(1, 8)
    field = ConductanceField(lat, omega)
    f = local_drift(1)
    # forward edge minus backward edge at each site
    vals = evaluate_all(f, field)
    assert vals[3] == omega[0, 3] - omega[0, 2]
    assert vals[0] == omega[0, 0] - omega[0, 7]
    assert math.fsum(vals.tolist()) == pytest.approx(0.0, abs=1e-12)


def test_drift_total_sum_telescopes_on_any_torus():
    for d, n, seed in ((1, 9, 0), (2, 6, 1), (3, 5, 2)):
        field = sample_field(LAW, Lattice(d, n), seed)
        vals = evaluate_all(local_drift(d, LAW), field)
        assert math.fsum(vals.tolist()) == pytest.approx(0.0, abs=1e-10)


def test_spatial_sum_of_drift_telescopes_to_boundary_edges():
    lat = Lattice(1, 13)
    field = sample_field(Uniform(1.0, 3.0), lat, 7)
    f = local_drift(1)
    g = evaluate_all(f, field)
    for n_box in (0, 1, 3):
        s = box_sum_field(g, lat, n_box)[6]
        left = field.omega[0, 6 - n_box - 1]
        right = field.omega[0, 6 + n_box]
        assert s == pytest.approx(right - left, abs=1e-12)


def test_centered_edge_is_exactly_centered():
    lat = Lattice(2, 6)
    field = sample_field(LAW, lat, 3)
    vals = evaluate_all(centered_edge(2, LAW), field)
    assert np.allclose(vals, field.omega[0] - LAW.mean())


def test_locality_a_far_edge_change_does_nothing():
    lat = Lattice(1, 16)
    field = sample_field(Uniform(1.0, 2.0), lat, 5)
    f = contract_example(Uniform(1.0, 2.0))
    before = evaluate_all(f, field)[0]
    omega = field.omega.copy()
    omega[0, 8] = 2.0  # outside the stencil reach from site 0
    after = evaluate_all(f, ConductanceField(lat, omega))[0]
    assert after == before

    # a stencil edge move is felt
    omega2 = field.omega.copy()
    omega2[0, 2] = 2.0
    shifted = evaluate_all(f, ConductanceField(lat, omega2))[0]
    assert shifted != before


def test_polynomial_functional_values_and_mean_hint():
    lat = Lattice(1, 12)
    field = sample_field(LAW, lat, 23)
    f = polynomial_functional("2*e[0;0]^2 - e[1;0] + 0.5", 1, LAW)
    w = field.omega[0]
    expected = 2.0 * w**2 - np.roll(w, -1) + 0.5
    assert np.allclose(evaluate_all(f, field), expected)
    assert f.mean_hint == pytest.approx(2.0 * LAW.moment(2) - LAW.mean() + 0.5)

    # independent edges multiply in the hint
    g = polynomial_functional("e[0;0]*e[3;0]", 1, LAW)
    assert g.mean_hint == pytest.approx(LAW.mean() ** 2)


def test_polynomial_mean_hint_agrees_with_sampling():
    lat = Lattice(1, 40000)
    law = Uniform(1.0, 3.0)
    f = polynomial_functional("e[0;0]*e[1;0] - 2*e[0;0]^3", 1, law)
    field = sample_field(law, lat, 31)
    vals = evaluate_all(f, field)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # neighbouring stencils overlap, so allow for the correlation inflation
    assert abs(vals.mean() - f.mean_hint) < 6 * se


def test_polynomial_descriptors_take_negative_offsets_and_signed_exponents():
    # a sign inside an edge's brackets or a number's exponent starts no term
    for d, expr in ((1, "e[0;0] - e[-1;0]"), (2, "e[0,0;0] - e[-1,0;0]")):
        field = sample_field(LAW, Lattice(d, 6), 2)
        drift, g = local_drift(d, LAW), polynomial_functional(expr, d, LAW)
        assert evaluate_all(g, field).tobytes() == evaluate_all(drift, field).tobytes()
    f, g = contract_example(LAW), polynomial_functional("e[-1;0] + e[2;0]^2", 1, LAW)
    assert (g.stencil, g.mean_hint) == (f.stencil, f.mean_hint)
    field = sample_field(LAW, Lattice(1, 9), 4)
    assert evaluate_all(g, field).tobytes() == evaluate_all(f, field).tobytes()
    for text, value in (("1e-3", 1e-3), ("2.5e+2", 250.0)):
        assert polynomial_functional(f"e[0;0] + {text}", 1, LAW).mean_hint == LAW.mean() + value


def test_polynomial_functional_rejects_bad_descriptors():
    for bad in ("", "e[0;0]*", "e[0,0;0]", "e[0;1]", "q[0;0]", "3.5", "+", "e[0;0]^-1"):
        with pytest.raises(ParameterError):
            polynomial_functional(bad, 1, LAW)


def test_functional_by_name_dispatch():
    assert functional_by_name("drift", 2, LAW).name == "drift"
    assert functional_by_name("edge", 1, LAW).name == "edge"
    assert functional_by_name("contract-example", 1, LAW).name == "contract-example"
    assert functional_by_name("poly:e[0;0]", 1, LAW).name == "poly:e[0;0]"
    with pytest.raises(ParameterError):
        functional_by_name("edge", 1, None)
    with pytest.raises(ParameterError):
        functional_by_name("contract-example", 2, LAW)
    with pytest.raises(ParameterError):
        functional_by_name("momentum", 1, LAW)


def test_contract_example_reads_shifted_square():
    lat = Lattice(1, 9)
    omega = np.arange(1.0, 10.0).reshape(1, 9)
    field = ConductanceField(lat, omega)
    f = contract_example()
    # value at x is omega on edge (x-1, x) plus the square of edge (x+2, x+3)
    assert evaluate_all(f, field)[1] == omega[0, 0] + omega[0, 3] ** 2
    assert f.radius == 3


def test_aliasing_guard_on_small_tori():
    f = contract_example(LAW)
    small = sample_field(LAW, Lattice(1, 6), 0)
    with pytest.raises(AliasingError):
        evaluate_all(f, small)
    big = sample_field(LAW, Lattice(1, 7), 0)
    evaluate_all(f, big)  # fits


def test_box_sum_field_matches_direct_spatial_sums():
    lat = Lattice(2, 9)
    field = sample_field(LAW, lat, 13)
    g = evaluate_all(centered_edge(2, LAW), field)
    for nb in (1, 2):
        sums = box_sum_field(g, lat, nb)
        box = list(itertools.product(range(-nb, nb + 1), repeat=2))
        for center in (0, 17, 44, 80):
            direct = math.fsum(g[lat.offset_index(center, off)] for off in box)
            assert sums[center] == pytest.approx(direct, rel=1e-12)


def test_stencil_validation():
    e = Polynomial.edge
    with pytest.raises(ParameterError):
        LocalFunctional("constant", Polynomial({(): 2.0}))
    with pytest.raises(ParameterError):
        LocalFunctional("axis", e((0, 0), 2))
    with pytest.raises(ParameterError):
        LocalFunctional("mixed", e((0,), 0) + e((0, 0), 0))
    repeated = LocalFunctional("repeated", e((1,), 0) * e((1,), 0) - 3 * e((1,), 0))
    assert repeated.stencil == (((1,), 0),)


PIN_LAWS = (Constant(2.0), Uniform(1.0, 3.0), TwoPoint(0.3, 1.0, 5.0), BoundedPareto(0.25, 0.1, 1e3))


@pytest.mark.parametrize("law", PIN_LAWS, ids=lambda law: law.descriptor())
@pytest.mark.parametrize("d", (1, 2, 3))
def test_named_functionals_keep_their_closed_forms(law, d):
    # the hand-written values and means the named functionals had before
    # they were derived from one polynomial, compared bit for bit
    m = law.mean()
    lat = Lattice(d, 7)
    field = sample_field(law, lat, 3)
    w = field.omega[0].reshape(lat.shape)
    origin, back = (0,) * d, (-1,) + (0,) * (d - 1)
    cases = [
        (local_drift(d, law), (back, origin), 0.0, w - np.roll(w, 1, axis=0)),
        (centered_edge(d, law), (origin,), 0.0, w - m),
    ]
    if d == 1:
        cases.append((contract_example(law), ((-1,), (2,)), law.moment(1) + law.moment(2),
                      np.roll(w, 1) + np.roll(w, -2) ** 2))
    for f, offsets, mean, values in cases:
        assert f.stencil == tuple((off, 0) for off in offsets)
        assert f.mean_hint == mean
        assert evaluate_all(f, field).tobytes() == values.ravel().tobytes()


_ORACLE_EDGES = [((a, b), axis) for a in (-1, 0, 1) for b in (-1, 0, 1) for axis in (0, 1)]


@st.composite
def _polynomial_case(draw):
    edges = draw(st.lists(st.sampled_from(_ORACLE_EDGES), min_size=1, max_size=4, unique=True))
    coefficient = st.floats(-3.0, 3.0)
    factors = st.lists(st.tuples(st.sampled_from(edges), st.integers(1, 3)), min_size=1, max_size=3)
    terms = [(draw(coefficient), draw(factors)) for _ in range(draw(st.integers(1, 5)))]
    lo = draw(st.floats(1.0, 3.0))
    law = TwoPoint(draw(st.floats(0.05, 0.95)), lo, lo + draw(st.floats(0.1, 3.0)))
    return draw(coefficient), terms, law


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polynomial_case())
def test_derived_bounds_and_moments_match_enumeration(case):
    constant, terms, law = case
    poly = Polynomial() + constant
    for c, factors in terms:
        term = Polynomial() + c
        for e, power in factors:
            for _ in range(power):
                term = term * Polynomial.edge(*e)
        poly = poly + term
    f = LocalFunctional("oracle", poly, law)
    k = len(f.stencil)
    # every configuration of the stencil on the two-point support; bit j of
    # the configuration index puts stencil edge j at hi
    configs = np.array(list(itertools.product((0, 1), repeat=k)))[:, ::-1].T
    reads = np.where(configs == 1, law.hi, law.lo).astype(float)
    x = dict(zip(f.stencil, reads))
    values = constant + sum(c * np.prod([x[e] ** p for e, p in factors], axis=0) for c, factors in terms)
    probs = np.prod(np.where(configs == 1, law.p, 1.0 - law.p), axis=0)
    # rounding stays within 1e-12 of the largest magnitude the terms can reach
    size = abs(constant) + sum(abs(c) * law.hi ** sum(p for _, p in factors) for c, factors in terms)
    tol = 1e-12 * size
    assert np.allclose(f.evaluator(reads), values, rtol=0.0, atol=tol)
    mean = math.fsum((probs * values).tolist())
    second = math.fsum((probs * values**2).tolist())
    assert f.mean_hint == pytest.approx(mean, rel=1e-12, abs=tol)
    assert (poly * poly).expect(law.moment) == pytest.approx(second, rel=1e-12, abs=tol * size)
