"""Generators, semigroups, resolvents, and the box constants."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
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
from condlab.errors import BackendError, ParameterError, SolverError
from condlab.functionals import evaluate_all, local_drift
from condlab.operators import (
    _CG_BLOCK,
    DENSE_LIMIT,
    _multishift_cg,
    box_spectral_gap,
    build_generator,
    dirichlet_form,
    resolvent_solve,
    semigroup_apply,
    simple_generator,
    sobolev_constant,
)
from condlab.spectral import diffusivity_estimators
from condlab.util import field_seed
from condlab.walker import _walk_tables


def _random_op(d, n, seed, law=None):
    field = sample_field(law or Uniform(1.0, 3.0), Lattice(d, n), seed)
    return field, build_generator(field, "conductance")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unit_ring_spectrum_closed_form(n):
    field = sample_field(Constant(1.0), Lattice(1, n), 0)
    lam, vecs = build_generator(field, "conductance").eigensystem()
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.max(np.abs(lam - expected)) < 1e-10
    # eigenvectors orthonormal and complete
    assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


def test_generator_rows_sum_to_zero_and_match_conductances():
    field, op = _random_op(2, 6, 11)
    dense = op.matrix.toarray()
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-12
    assert np.allclose(dense, dense.T)
    lat = field.lattice
    x = lat.site_index((2, 3))
    assert dense[x, lat.shift(x, 0, 1)] == field.omega[0, x]
    assert dense[x, lat.shift(x, 1, -1)] == field.omega[1, lat.shift(x, 1, -1)]
    assert dense[x, x] == -field.rates()[x]


def test_simple_generator_ignores_the_field():
    lat = Lattice(2, 5)
    op0 = simple_generator(lat)
    dense = op0.matrix.toarray()
    x = lat.site_index((1, 1))
    assert dense[x, x] == -4.0
    assert sorted(dense[x][dense[x] > 0]) == [1.0, 1.0, 1.0, 1.0]


def test_semigroup_property_and_mean_preservation():
    _, op = _random_op(1, 12, 3)
    rng = np.random.default_rng(0)
    g = rng.normal(size=12)
    one_step = semigroup_apply(op, semigroup_apply(op, g, 0.7), 0.4)
    two_step = semigroup_apply(op, g, 1.1)
    assert np.max(np.abs(one_step - two_step)) < 1e-12
    for t in (0.0, 0.5, 3.0):
        assert semigroup_apply(op, g, t).mean() == pytest.approx(g.mean(), abs=1e-13)
    assert np.max(np.abs(semigroup_apply(op, g, 0.0) - g)) < 1e-12
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError, match="time must be finite and >= 0"):
            semigroup_apply(op, g, bad)


def test_semigroup_matches_expm_oracle():
    _, op = _random_op(1, 9, 5)
    g = np.random.default_rng(2).normal(size=9)
    dense = op.matrix.toarray()
    for t in (0.3, 2.0):
        ref = scipy.linalg.expm(t * dense) @ g
        assert np.max(np.abs(semigroup_apply(op, g, t) - ref)) < 1e-10


def test_dirichlet_form_hand_value_and_domination():
    field = sample_field(Constant(1.0), Lattice(1, 3), 0)
    op = build_generator(field, "conductance")
    assert dirichlet_form(op, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0 / 3.0)

    for seed in range(5):
        field, op = _random_op(2, 6, 100 + seed, law=TwoPoint(0.4, 1.0, 5.0))
        op0 = simple_generator(field.lattice)
        g = np.random.default_rng(seed).normal(size=36)
        # conductances >= 1, so the weighted form dominates the simple one
        assert dirichlet_form(op0, g) <= dirichlet_form(op, g) + 1e-12
        assert dirichlet_form(op, g) >= 0.0


def test_resolvent_solves_the_defining_equation():
    _, op = _random_op(2, 8, 13)
    g = np.random.default_rng(3).normal(size=64)
    for mu in (5.0, 0.5, 1e-3):
        u = resolvent_solve(op, g, mu)
        recovered = mu * u - op.matrix @ u
        assert np.max(np.abs(recovered - g)) < 1e-8 * np.linalg.norm(g)
    with pytest.raises(ParameterError):
        resolvent_solve(op, g, 0.0)


def test_resolvent_matches_dense_solve():
    _, op = _random_op(1, 11, 8)
    g = np.random.default_rng(4).normal(size=11)
    dense = op.matrix.toarray()
    for mu in (1.0, 0.01):
        ref = np.linalg.solve(mu * np.eye(11) - dense, g)
        assert np.max(np.abs(resolvent_solve(op, g, mu) - ref)) < 1e-8


def test_zero_shift_solves_for_a_centred_right_hand_side_only():
    _, op = _random_op(2, 8, 13, law=TwoPoint(0.5, 1.0, 4.0))
    g = np.random.default_rng(13).normal(size=64)
    gc = g - g.mean()
    rows, _, residual = resolvent_solve(op, gc, [1.0, 0.0, 0.1])
    assert residual <= 1e-10
    # -L is singular on the constants: the zero shift returns the mean-zero solution
    ref = np.linalg.lstsq(-op.matrix.toarray(), gc, rcond=None)[0]
    assert np.linalg.norm(rows[1] - ref) <= 1e-8 * np.linalg.norm(ref)
    assert abs(rows[1].mean()) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(resolvent_solve(op, gc, 0.0), resolvent_solve(op, gc, [0.0])[0][0])
    for bad in (g, gc + 1e-9):
        with pytest.raises(ParameterError, match="mu = 0 needs a centred right-hand side"):
            resolvent_solve(op, bad, [1.0, 0.0])


def test_resolvent_zero_input_short_circuits():
    _, op = _random_op(1, 6, 9)
    out = resolvent_solve(op, np.zeros(6), 1.0)
    assert np.array_equal(out, np.zeros(6))
    rows, iterations, residual = resolvent_solve(op, np.zeros(6), [0.5, 2.0])
    assert np.array_equal(rows, np.zeros((2, 6)))
    assert (iterations, residual) == (0, 0.0)


RESOLVENT_LAWS = {
    "constant": Constant(1.5),
    "uniform": Uniform(1.0, 3.0),
    "twopoint": TwoPoint(0.5, 1.0, 4.0),
    "pareto": BoundedPareto(0.3, 0.5, 1e3),
}
# largest period per dimension that keeps a torus within 512 sites
RESOLVENT_MAX_N = {1: 512, 2: 22, 3: 8}


@st.composite
def _resolvent_case(draw):
    law = RESOLVENT_LAWS[draw(st.sampled_from(sorted(RESOLVENT_LAWS)))]
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, RESOLVENT_MAX_N[d]))
    seed = draw(st.integers(0, 2**31 - 1))
    field = sample_field(law, Lattice(d, n), seed)
    # a few fixed values make repeated mus likely; the list order is arbitrary
    mu = st.one_of(st.sampled_from([1e-3, 0.01, 1.0, 10.0]), st.floats(1e-3, 10.0))
    mus = draw(st.lists(mu, min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=field.lattice.n_sites) + draw(st.sampled_from([0.3, -2.0]))
    return build_generator(field, "conductance"), g, mus


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_resolvent_case())
def test_multishift_resolvent_matches_dense_solves(case):
    op, g, mus = case
    dense = op.matrix.toarray()
    eye = np.eye(len(g))
    rows, iterations, residual = resolvent_solve(op, g, mus)
    assert rows.shape == (len(mus), len(g))
    assert residual <= 1e-10
    assert 0 < iterations <= int(50 * math.sqrt(len(g))) + 1
    for mu, u in zip(mus, rows):
        ref = np.linalg.solve(mu * eye - dense, g)
        assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref), mu


@st.composite
def _edge_case(draw):
    law = RESOLVENT_LAWS[draw(st.sampled_from(sorted(RESOLVENT_LAWS)))]
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, RESOLVENT_MAX_N[d]))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["conductance", "simple"]))
    return sample_field(law, Lattice(d, n), seed), kind, seed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_edge_case())
def test_edge_structure_matches_an_edge_by_edge_oracle(case):
    field, kind, seed = case
    lat = field.lattice
    n = lat.n_sites
    w = field.omega if kind == "conductance" else np.ones_like(field.omega)
    # the dense generator, added up one edge (axis, x) -- x + e_axis at a time
    dense = np.zeros((n, n))
    expected = np.empty((n, 2 * lat.d))
    for axis in range(lat.d):
        for x in range(n):
            y = lat.shift(x, axis, 1)
            dense[x, y] += w[axis, x]
            dense[y, x] += w[axis, x]
            dense[x, x] -= w[axis, x]
            dense[y, y] -= w[axis, x]
            expected[x, 2 * axis] = w[axis, x]
            expected[y, 2 * axis + 1] = w[axis, x]
    op = build_generator(field, kind)
    matrix = op.matrix.toarray()
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(matrix[off], dense[off])
    assert np.array_equal(op.rates, -np.diag(matrix))
    assert np.allclose(op.rates, -np.diag(dense), rtol=1e-14, atol=0.0)
    if kind == "conductance":
        assert np.array_equal(field.rates(), op.rates)
    g = np.random.default_rng(seed).normal(size=n)
    assert dirichlet_form(op, g) == pytest.approx(-(g @ dense @ g) / n, rel=1e-12)
    # the walker's columns run +e_0, -e_0, +e_1, ...
    neighbors, cumulative = _walk_tables(lat, w)
    sites = np.arange(n)
    for axis in range(lat.d):
        assert np.array_equal(neighbors[:, 2 * axis], lat.shift(sites, axis, 1))
        assert np.array_equal(neighbors[:, 2 * axis + 1], lat.shift(sites, axis, -1))
    assert np.array_equal(cumulative, np.cumsum(expected, axis=1))


@pytest.mark.parametrize("law", sorted(RESOLVENT_LAWS))
@pytest.mark.parametrize("d, n", [(1, 3), (1, 7), (2, 3), (2, 5), (3, 3), (3, 4)])
def test_generator_csr_equals_the_edge_by_edge_oracle_bit_for_bit(law, d, n):
    field = sample_field(RESOLVENT_LAWS[law], Lattice(d, n), 17)
    lat, w = field.lattice, field.omega
    dense = np.zeros((lat.n_sites, lat.n_sites))
    star = np.empty((lat.n_sites, 2 * d))
    for axis in range(d):
        for x in range(lat.n_sites):
            y = lat.shift(x, axis, 1)
            dense[x, y] = dense[y, x] = w[axis, x]
            star[x, 2 * axis] = star[y, 2 * axis + 1] = w[axis, x]
    for x in range(lat.n_sites):
        # the diagonal is the site's rate, summed left to right along its star
        total = 0.0
        for value in star[x]:
            total += value
        dense[x, x] = -total
    op = build_generator(field, "conductance")
    matrix = op.matrix
    assert matrix.toarray().tobytes() == dense.tobytes()
    # row x lists x, then star[x]: x + e_0, x - e_0, x + e_1, ...
    assert np.array_equal(matrix.indptr, np.arange(0, matrix.nnz + 1, 2 * d + 1))
    rows = matrix.indices.reshape(lat.n_sites, 2 * d + 1)
    sites = np.arange(lat.n_sites)
    across = [lat.offset_index(sites, step * unit) for unit in np.eye(d, dtype=int) for step in (1, -1)]
    assert np.array_equal(rows, np.column_stack([sites] + across))
    assert np.array_equal(rows[:, 1:], lat.star)
    # the product sums each row's 2d + 1 terms in its own order
    v = np.random.default_rng(d * 10 + n).normal(size=lat.n_sites)
    bound = (2 * d + 1) * np.finfo(float).eps * 2 * op.max_rate * np.abs(v).max()
    assert np.abs(matrix @ v - dense @ v).max() <= bound


@pytest.mark.parametrize("d, n", [(1, 3), (1, 7), (2, 3), (2, 5), (3, 3), (3, 4)])
def test_lattice_gradient_equals_the_signed_incidence_product_bit_for_bit(d, n):
    lat = Lattice(d, n)
    # B, edges x sites: row axis * n^d + x is -1 at x and +1 at x + e_axis
    sites = np.arange(lat.n_sites)
    rows = np.concatenate([axis * lat.n_sites + sites for axis in range(d)] * 2)
    cols = np.concatenate([sites] * d + [lat.shift(sites, axis, 1) for axis in range(d)])
    signs = np.repeat([-1.0, 1.0], lat.n_edges)
    incidence = sp.csr_matrix((signs, (rows, cols)), shape=(lat.n_edges, lat.n_sites))
    g = np.random.default_rng(d * 10 + n).normal(size=lat.n_sites)
    assert lat.gradient(g).tobytes() == (incidence @ g).tobytes()


@pytest.mark.parametrize("law", sorted(RESOLVENT_LAWS))
@pytest.mark.parametrize("d, n", [(1, 3), (1, 7), (2, 3), (2, 5), (3, 3), (3, 4)])
def test_eigensystem_diagonalizes_the_csr_matrix_bit_for_bit(law, d, n, monkeypatch):
    op = build_generator(sample_field(RESOLVENT_LAWS[law], Lattice(d, n), 29), "conductance")
    eigh = np.linalg.eigh
    seen = []

    def recording_eigh(a):
        seen.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    op.eigensystem()
    (dense,) = seen
    # bytes, so that the -0.0 off the pattern counts too
    assert dense.tobytes() == (-op.matrix.toarray()).tobytes()


# (law, d, n) with dirichlet_form of the conductance and the simple walk, then
# a0, a1, a2, phi_second_moment, energy and edge_mean of the estimators at a
# normal trial corrector; recorded when both took B g from a CSR incidence matrix
PINNED_ENERGIES = [
    (Constant(1.5), 1, 7, (2.2024211657807897, 1.4682807771871929, -0.7024211657807897, 1.5,
                           3.7024211657807897, 1.0648642371986934, 2.2024211657807897, 1.5)),
    (Uniform(1.0, 3.0), 2, 5, (7.098111473795248, 3.6770824367805055, -5.117207503841,
                               1.7790808197666246, 8.67536914337425, 0.8855631066082869,
                               7.098111473795248, 1.9809039699542481)),
    (TwoPoint(0.5, 1.0, 4.0), 3, 4, (11.977646759083129, 4.379560265783607, -9.524521759083129,
                                     2.6674413667372434, 14.859404492557616, 0.6710910669672987,
                                     11.977646759083129, 2.453125)),
    (BoundedPareto(0.3, 0.5, 1e3), 2, 3, (5.9863978436406935, 5.299005861353767,
                                          -4.890202057067107, 1.1549480184363392,
                                          7.200098093939785, 1.3695191810758758,
                                          5.9863978436406935, 1.0961957865735863)),
]


@pytest.mark.parametrize("law, d, n, expected", PINNED_ENERGIES)
def test_dirichlet_form_and_estimators_are_pinned(law, d, n, expected):
    field = sample_field(law, Lattice(d, n), 23)
    g = np.random.default_rng(d * 10 + n).normal(size=field.lattice.n_sites)
    est = diffusivity_estimators(field, g)
    got = (
        dirichlet_form(build_generator(field), g),
        dirichlet_form(build_generator(field, "simple"), g),
        est.a0, est.a1, est.a2, est.phi_second_moment, est.energy, est.edge_mean,
    )
    assert got == expected


def _unfolded_multishift_cg(op, b, shifts, tol, maxiter):
    """Multi-shift CG updating every shift's iterate and direction at every step.

    The reference for _multishift_cg: the same seed recurrence, with no
    fold.  Also returns, per shift, the step count at which it retired.
    """
    seed = shifts[-1]
    delta = shifts - seed
    m = len(shifts)
    x = np.zeros((m, b.size))
    p = np.tile(b, (m, 1))
    r = b.copy()
    rr = float(r @ r)
    zeta, zeta_prev = np.ones(m), np.ones(m)
    alpha_prev, beta_prev = 1.0, 0.0
    start, steps, retired = 0, 0, []
    while steps < maxiter:
        while start < m and abs(zeta[start]) * math.sqrt(rr) <= tol:
            start += 1
            retired.append(steps)
        if start == m:
            break
        q = seed * p[-1] - op.matrix @ p[-1]
        alpha = rr / float(p[-1] @ q)
        act = slice(start, m)
        z, z_prev = zeta[act], zeta_prev[act]
        z_next = z * z_prev * alpha_prev / (
            alpha * beta_prev * (z_prev - z) + z_prev * alpha_prev * (1.0 + delta[act] * alpha)
        )
        ratio = z_next / z
        x[act] += (alpha * ratio)[:, None] * p[act]
        r -= alpha * q
        rr_next = float(r @ r)
        beta = rr_next / rr
        p[act] *= (beta * ratio * ratio)[:, None]
        p[act] += z_next[:, None] * r
        zeta_prev[act], zeta[act] = z, z_next
        alpha_prev, beta_prev, rr = alpha, beta, rr_next
        steps += 1
    return x, steps, retired


def _check_folded_solve(op, g, mus):
    """resolvent_solve against dense solves, _multishift_cg against the unfolded loop.

    Returns the step count and the steps at which the shifts retired.
    """
    n = len(g)
    rows, iterations, residual = resolvent_solve(op, g, mus)
    dense = op.matrix.toarray()
    for mu, u in zip(mus, rows):
        ref = np.linalg.solve(mu * np.eye(n) - dense, g)
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref), mu
    shifts = np.unique(mus)[::-1]
    tol, cap = 0.5e-10 * np.linalg.norm(g), int(50 * math.sqrt(n)) + 1
    folded, steps = _multishift_cg(op, g, shifts, tol, cap)
    unfolded, ref_steps, retired = _unfolded_multishift_cg(op, g, shifts, tol, cap)
    assert steps == ref_steps == iterations
    scale = np.linalg.norm(unfolded, axis=1)
    assert np.all(np.linalg.norm(folded - unfolded, axis=1) <= 1e-12 * scale)
    return steps, retired


def test_folded_resolvent_spanning_several_blocks():
    _, op = _random_op(2, 12, 31, law=TwoPoint(0.5, 1.0, 4.0))
    g = np.random.default_rng(31).normal(size=144)
    steps, _ = _check_folded_solve(op, g, [5.0, 0.3, 0.02, 1e-3])
    assert steps > 3 * _CG_BLOCK


def test_folded_resolvent_ending_on_a_block_boundary():
    # the unit ring of 64 sites has 32 distinct nonzero eigenvalues, so CG on
    # a mean-free g ends by exact termination after two full blocks
    _, op = _random_op(1, 64, 0, law=Constant(1.0))
    g = np.random.default_rng(32).normal(size=64)
    steps, _ = _check_folded_solve(op, g - g.mean(), [2.0, 0.1, 0.01])
    assert steps == 2 * _CG_BLOCK


def test_folded_resolvent_with_a_shift_retiring_mid_block():
    _, op = _random_op(2, 10, 33, law=BoundedPareto(0.3, 0.5, 1e3))
    g = np.random.default_rng(33).normal(size=100)
    steps, retired = _check_folded_solve(op, g, [3.0, 0.3, 1e-3])
    # both larger shifts retire after a fold, inside a block, before the run ends
    assert _CG_BLOCK < retired[0] < retired[1] < steps
    assert all(k % _CG_BLOCK for k in retired[:2])


def test_folded_resolvent_on_a_torus_smaller_than_a_block():
    _, op = _random_op(2, 3, 34, law=Uniform(1.0, 3.0))
    g = np.random.default_rng(34).normal(size=9)
    steps, _ = _check_folded_solve(op, g, [3.0, 0.2, 0.005])
    # the Krylov space has at most 9 dimensions, so no block ever fills
    assert steps < _CG_BLOCK


# CG steps of the corrector sweep on the first three fields of seed 0 (d=3,
# n=24, twopoint:0.5,1,4, mu = geomspace(1, 0.177, 6) and 0.01): the seed
# recurrence of the multi-shift solver fixes them
CORRECTOR_MUS = np.append(np.geomspace(1.0, 0.177, 6), 0.01)
CORRECTOR_STEPS = [139, 141, 136]


def _corrector_case(r):
    law = TwoPoint(0.5, 1.0, 4.0)
    field = sample_field(law, Lattice(3, 24), field_seed(0, r))
    return build_generator(field, "conductance"), evaluate_all(local_drift(3, law), field)


def test_corrector_cg_step_counts_are_pinned():
    for r, expected in enumerate(CORRECTOR_STEPS):
        op, g = _corrector_case(r)
        assert resolvent_solve(op, g, CORRECTOR_MUS)[1] == expected, r


def test_multishift_memory_stays_within_shifts_plus_block_rows():
    op, g = _corrector_case(0)
    n, m = len(g), len(CORRECTOR_MUS)
    tracemalloc.start()
    try:
        resolvent_solve(op, g, CORRECTOR_MUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * m + _CG_BLOCK + 8) * n * 8


def test_generator_and_functional_memory_per_site_stays_within_budget():
    # held, in bytes a site: field 24, rates 8, CSR entries 56 and columns
    # 28, row pointers 4 and the functional 8 (128 in all); the peak adds the
    # functional's reads and sums (32).  The budget allows two more site
    # arrays (16) on each, well short of one int64 index table per axis.
    law = TwoPoint(0.5, 1.0, 4.0)

    def build(d, n):
        field = sample_field(law, Lattice(d, n), 0)
        return field, build_generator(field, "conductance"), evaluate_all(local_drift(d, law), field)

    build(3, 4)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        kept = build(3, 32)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sites = kept[0].lattice.n_sites
    assert resident / sites <= 128 + 16
    assert peak / sites <= 160 + 16


def test_resolvent_of_a_constant_terminates_after_one_step():
    # -L kills constants, so the first step already solves every shift exactly
    _, op = _random_op(2, 6, 5, law=TwoPoint(0.5, 1.0, 4.0))
    g = np.full(36, 2.0)
    rows, iterations, _ = resolvent_solve(op, g, [0.1, 1.0, 3.0])
    assert iterations == 1
    for mu, u in zip([0.1, 1.0, 3.0], rows):
        assert np.allclose(u, 2.0 / mu, rtol=1e-12)


def test_single_mu_sequence_equals_the_scalar_call_bit_for_bit():
    _, op = _random_op(2, 8, 6)
    g = np.random.default_rng(6).normal(size=64)
    for mu in (2.0, 0.01):
        assert np.array_equal(resolvent_solve(op, g, [mu])[0][0], resolvent_solve(op, g, mu))


def test_a_shift_one_float_above_the_seed_gets_the_seed_solution_bit_for_bit():
    # 1 + (mu' - mu) alpha rounds to 1, so that shift's zeta stays 1 like the seed's
    _, op = _random_op(3, 20, 8)
    g = np.random.default_rng(8).normal(size=8000)
    rows, iterations, _ = resolvent_solve(op, g, [2.0, np.nextafter(0.1, 1.0), 0.1])
    assert iterations > _CG_BLOCK
    assert np.array_equal(rows[1], rows[2])


def test_unreachable_resolvent_tolerance_names_a_mu():
    _, op = _random_op(2, 6, 7)
    g = np.random.default_rng(7).normal(size=36)
    with pytest.raises(SolverError, match=r"mu=(0\.05|0\.5|5)\b"):
        resolvent_solve(op, g, [0.5, 0.05, 5.0], rtol=1e-18)


def test_resolvent_rejects_bad_mu_sequences():
    _, op = _random_op(1, 6, 9)
    g = np.ones(6)
    for bad in ([1.0, 0.0], [0.5, -1.0], [], [[1.0]], [1.0, np.nan]):
        with pytest.raises(ParameterError):
            resolvent_solve(op, g, bad)


def test_eigensystem_refuses_oversize_dense_work():
    lat = Lattice(1, DENSE_LIMIT + 1)
    field = ConductanceField(lat, np.ones((1, lat.n_sites)))
    op = build_generator(field, "conductance")
    with pytest.raises(BackendError):
        op.eigensystem()
    # the semigroup is dense only
    with pytest.raises(BackendError):
        semigroup_apply(op, np.ones(lat.n_sites), 0.5)


def test_box_spectral_gap_matches_cosine_form_and_is_d_independent():
    for n in (1, 2, 3, 7, 20):
        m = 2 * n + 1
        closed = 2.0 * (1.0 - math.cos(math.pi / m))
        assert box_spectral_gap(1, n) == pytest.approx(closed, rel=1e-12)
        assert box_spectral_gap(3, n) == box_spectral_gap(1, n)
    assert box_spectral_gap(1, 1) == pytest.approx(1.0, rel=1e-12)
    assert sobolev_constant(2, 4) == pytest.approx(4.0 / (16.0 * box_spectral_gap(2, 4)))
