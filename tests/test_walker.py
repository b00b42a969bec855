"""Continuous-time walks: kernels, trajectories, ensemble statistics."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab.environment import (
    ConductanceField,
    Constant,
    Lattice,
    TwoPoint,
    parse_law,
    sample_field,
)
from condlab.errors import ParameterError
from condlab.experiments import msd_experiment, variance_decay_experiment
from condlab.functionals import centered_edge, evaluate_all
from condlab.operators import build_generator
from condlab.util import child_rng, field_seed
from condlab import walker
from condlab.walker import (
    Trajectory,
    _field_batch,
    _field_groups,
    _simulate_batch,
    additive_functional,
    msd_estimate,
    simulate_vsrw,
)

LAW = TwoPoint(0.5, 1.0, 4.0)


def _unit(lat):
    """The simple walk's field: every conductance 1."""
    return ConductanceField(lat, lat.unit_weights)


def test_simple_walk_jump_count_is_poisson_2dt():
    lat = Lattice(2, 15)
    horizon = 20.0
    rng = np.random.default_rng(0)
    counts = [simulate_vsrw(_unit(lat), 0, horizon, rng).jump_count for _ in range(300)]
    mean = np.mean(counts)
    expected = 2 * lat.d * horizon
    se = math.sqrt(expected / len(counts))  # Poisson variance equals its mean
    assert abs(mean - expected) < 5 * se


def test_simple_walk_msd_grows_at_2d():
    lat = Lattice(2, 32)
    curve = msd_estimate([sample_field(Constant(1.0), lat, 0)], 400, [2.0, 4.0, 8.0], 1)
    for k in range(3):
        assert abs(curve.msd_over_t[k] - 4.0) < 4 * curve.stderr[k]
    assert curve.short_time_rate == 4.0
    assert curve.walks_total == 400


def test_matched_seed_unit_field_walk_equals_simple_walk():
    lat = Lattice(2, 9)
    field = sample_field(Constant(1.0), lat, 0)
    a = simulate_vsrw(field, 5, 12.0, np.random.default_rng(42))
    b = simulate_vsrw(_unit(lat), 5, 12.0, np.random.default_rng(42))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sites, b.sites)
    assert np.array_equal(a.displacements, b.displacements)


def test_seeded_conductance_walk_path_is_pinned():
    # recorded before the walker tables were derived from the lattice's edge
    # structure; the same draws must still map to the same jumps
    field = sample_field(TwoPoint(0.5, 1.0, 4.0), Lattice(2, 9), 3)
    traj = simulate_vsrw(field, 4, 25.0, np.random.default_rng(2024))
    assert traj.jump_count == 280
    assert traj.sites[-1] == 63
    assert traj.displacements[-1].tolist() == [16, -4]


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
def test_walks_reject_a_nonfinite_or_empty_horizon(horizon):
    lat = Lattice(1, 8)
    with pytest.raises(ParameterError):
        simulate_vsrw(_unit(lat), 0, horizon, np.random.default_rng(0))


def test_heavier_edges_attract_jumps():
    # one enormous edge; the first jump from its endpoint crosses it mostly
    lat = Lattice(1, 8)
    omega = np.ones((1, 8))
    omega[0, 0] = 100.0
    field = ConductanceField(lat, omega)
    rng = np.random.default_rng(3)
    first = [simulate_vsrw(field, 0, 0.5, rng).sites[0] for _ in range(200)]
    assert np.mean(np.array(first) == 1) > 0.95


def test_trajectory_queries_before_first_jump_and_validation():
    lat = Lattice(2, 7)
    traj = simulate_vsrw(_unit(lat), 3, 5.0, np.random.default_rng(7))
    assert traj.site_at(0.0) == 3
    assert np.array_equal(traj.displacement_at(0.0), [0, 0])
    t_mid = traj.times[0] / 2.0
    assert traj.site_at(t_mid) == 3
    with pytest.raises(ParameterError):
        traj.site_at(5.1)
    with pytest.raises(ParameterError):
        traj.displacement_at(-0.1)
    with pytest.raises(ParameterError):
        Trajectory(0, 1.0, np.array([0.5, 2.0]), np.array([1, 2]),
                   np.array([[1], [2]]), lat)


def test_a_walk_without_jumps_sits_at_its_start():
    traj = simulate_vsrw(_unit(Lattice(2, 4)), 3, 1e-6, np.random.default_rng(0))
    assert traj.jump_count == 0
    assert traj.site_at(1e-6) == 3
    assert traj.site_at(np.array([0.0, 1e-6])).tolist() == [3, 3]
    assert traj.displacement_at(np.array([0.0, 1e-6])).tolist() == [[0, 0], [0, 0]]


def test_site_at_is_right_continuous_at_jump_times():
    lat = Lattice(1, 11)
    traj = simulate_vsrw(_unit(lat), 0, 6.0, np.random.default_rng(9))
    k = traj.jump_count // 2
    assert traj.site_at(traj.times[k]) == traj.sites[k]
    eps = (traj.times[k] - traj.times[k - 1]) / 4.0
    assert traj.site_at(traj.times[k] - eps) == traj.sites[k - 1]


def test_displacement_and_site_stay_consistent_modulo_the_torus():
    lat = Lattice(2, 6)
    field = sample_field(LAW, lat, 5)
    traj = simulate_vsrw(field, 8, 10.0, np.random.default_rng(11))
    start = lat.site_coords(8)
    for t in (1.0, 5.0, 10.0):
        wrapped = (start + traj.displacement_at(t)) % lat.n
        assert lat.site_index(wrapped) == traj.site_at(t)


def test_additive_functional_is_the_exact_piecewise_integral():
    lat = Lattice(1, 5)
    omega = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    field = ConductanceField(lat, omega)
    values = evaluate_all(centered_edge(1, Constant(1.0)), field)  # omega[0, x] - 1
    traj = Trajectory(
        start=0, horizon=4.0,
        times=np.array([1.0, 2.5]),
        sites=np.array([1, 2]),
        displacements=np.array([[1], [2]]),
        lattice=lat,
    )
    # segments: site 0 on [0,1), site 1 on [1,2.5), site 2 on [2.5,4]
    expected = (1.0 - 1.0) * 1.0 + (2.0 - 1.0) * 1.5 + (3.0 - 1.0) * 1.5
    assert additive_functional(values, traj, 4.0) == pytest.approx(expected)
    # a window that starts mid-segment
    expected_tail = (2.0 - 1.0) * 0.5 + (3.0 - 1.0) * 1.0
    assert additive_functional(values, traj, 3.5, t0=2.0) == pytest.approx(expected_tail)
    with pytest.raises(ParameterError):
        additive_functional(values, traj, 5.0)
    with pytest.raises(ParameterError):
        additive_functional(values, traj, 1.0, t0=2.0)


def test_msd_estimate_is_deterministic_and_tracks_mean_rate():
    lat = Lattice(1, 24)
    fields = [sample_field(LAW, lat, field_seed(9, r)) for r in range(6)]
    a = msd_estimate(fields, 20, [1.0, 2.0, 4.0], 9)
    b = msd_estimate(fields, 20, [1.0, 2.0, 4.0], 9)
    assert np.array_equal(a.msd_over_t, b.msd_over_t)
    assert np.array_equal(a.stderr, b.stderr)
    # mean total jump rate at a site is 2 d E[omega]
    assert abs(a.short_time_rate - 2.0 * LAW.mean()) < 0.5


def test_msd_estimate_validation():
    lat = Lattice(1, 8)
    fields = [sample_field(LAW, lat, r) for r in range(2)]
    good = dict(fields=fields, walks=2, times=[1.0, 2.0], seed=0)
    assert msd_estimate(**good).walks_total == 4
    for key, bad in (("fields", []), ("fields", fields + [sample_field(LAW, Lattice(1, 9), 2)]),
                     ("walks", 0), ("times", [1.0, 0.5]), ("times", [0.0, 1.0]),
                     ("times", [-1.0]), ("times", [])):
        with pytest.raises(ParameterError):
            msd_estimate(**dict(good, **{key: bad}))


# Recorded with the per-walk jump loop that preceded the lockstep kernel:
# (law, d, n, field seed, start, jumps, final site, final displacement,
# last jump time, sum of visited sites), horizon 6, rng seed 100 + field seed.
RECORDED_PATHS = [
    ("twopoint:0.5,1,4", 1, 11, 1, 7, 25, 4, [-3], 5.848502509778082, 132),
    ("twopoint:0.5,1,4", 1, 11, 2, 3, 26, 10, [-4], 5.44520338405667, 46),
    ("twopoint:0.5,1,4", 2, 6, 1, 7, 50, 7, [0, 0], 5.976056645317619, 326),
    ("twopoint:0.5,1,4", 2, 6, 2, 14, 47, 13, [0, -1], 5.9099398541560815, 411),
    ("twopoint:0.5,1,4", 3, 4, 1, 7, 73, 44, [-14, -6, -3], 5.969014437148676, 2494),
    ("twopoint:0.5,1,4", 3, 4, 2, 14, 70, 63, [-5, 12, 5], 5.966133471071736, 2130),
    ("boundedpareto:0.3,0.5,1000", 1, 11, 1, 7, 5, 8, [1], 4.398380110572829, 36),
    ("boundedpareto:0.3,0.5,1000", 1, 11, 2, 3, 11, 9, [-5], 5.852648034446776, 41),
    ("boundedpareto:0.3,0.5,1000", 2, 6, 1, 7, 12, 33, [-2, 2], 5.128077642629691, 151),
    ("boundedpareto:0.3,0.5,1000", 2, 6, 2, 14, 22, 0, [4, 4], 5.911822209100309, 298),
    ("boundedpareto:0.3,0.5,1000", 3, 4, 1, 7, 28, 2, [0, 3, 3], 5.934582935467688, 769),
    ("boundedpareto:0.3,0.5,1000", 3, 4, 2, 14, 28, 53, [3, -6, 3], 5.94929566731691, 984),
]

# The same for the simple walk: (d, n, jumps, final site, final displacement,
# last jump time, sum of visited sites), start 5, horizon 6, rng seed 77.
RECORDED_SIMPLE_PATHS = [
    (1, 11, 6, 5, [0], 5.928594142057373, 33),
    (2, 6, 17, 4, [0, -1], 5.884057566922887, 386),
    (3, 4, 34, 47, [2, 6, 2], 5.75601300588397, 1196),
]


def _assert_path(traj, jumps, site, disp, last_time, site_sum):
    assert traj.jump_count == jumps
    assert traj.sites[-1] == site
    assert traj.displacements[-1].tolist() == disp
    assert traj.times[-1] == last_time
    assert int(traj.sites.sum()) == site_sum


@pytest.mark.parametrize("law, d, n, seed, start, jumps, site, disp, last_time, site_sum",
                         RECORDED_PATHS)
def test_batch_of_one_replays_recorded_conductance_paths(law, d, n, seed, start, jumps, site,
                                                         disp, last_time, site_sum):
    field = sample_field(parse_law(law), Lattice(d, n), seed)
    traj = simulate_vsrw(field, start, 6.0, np.random.default_rng(100 + seed))
    _assert_path(traj, jumps, site, disp, last_time, site_sum)


@pytest.mark.parametrize("d, n, jumps, site, disp, last_time, site_sum", RECORDED_SIMPLE_PATHS)
def test_batch_of_one_replays_recorded_simple_paths(d, n, jumps, site, disp, last_time, site_sum):
    traj = simulate_vsrw(_unit(Lattice(d, n)), 5, 6.0, np.random.default_rng(77))
    _assert_path(traj, jumps, site, disp, last_time, site_sum)


def test_batch_of_one_replays_a_recorded_path_of_several_chunks():
    # 5617 jumps: the path is recorded in more than one 4096-step chunk; the
    # next draw shows that the walk consumed exactly the recorded draws
    field = sample_field(LAW, Lattice(2, 6), 1)
    rng = np.random.default_rng(101)
    traj = simulate_vsrw(field, 7, 600.0, rng)
    _assert_path(traj, 5617, 20, [56, 49], 599.4862758867854, 100092)
    assert int(traj.displacements.sum()) == 279171
    assert float(traj.times.sum()) == 1702006.4591858163
    assert rng.random() == 0.689216482960237


class _ChosenDraws:
    """Generator stand-in: every exponential is 1, uniforms cycle through chosen values."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms)
        self.drawn = []

    def standard_exponential(self, out):
        out[:] = 1.0

    def random(self, out):
        count = sum(a.size for a in self.drawn)
        out[:] = self.uniforms[(count + np.arange(out.size)) % self.uniforms.size]
        self.drawn.append(out.copy())


@pytest.mark.parametrize("d", [1, 2])
def test_jump_column_on_a_cumulative_rate_is_the_one_past_it(d):
    # unit weights: cumulative rates 1, ..., 2d - 1 and total 2d, so u = j / 2d
    # puts u * total exactly on a cumulative rate; the walk must jump past it
    lat = Lattice(d, 4)
    total, cum = 2 * d, np.arange(1.0, 2 * d)
    rng = _ChosenDraws(np.arange(total) / total)
    batch = _simulate_batch(lat, lat.unit_weights, np.arange(4), 3.0, [rng], path=True)
    uniforms = np.concatenate(rng.drawn)
    columns = batch.path[3]
    assert columns.dtype == np.int64
    assert columns.size == 4 * 3 * total  # every walk jumps each 1 / total up to the horizon
    assert np.array_equal(columns, np.searchsorted(cum, uniforms * total, side="right"))
    assert np.array_equal(np.unique(columns), np.arange(total))


@pytest.mark.parametrize("d, n", [(1, 12), (2, 5), (3, 4)])
def test_the_walker_reads_the_star_view_of_the_generator_pattern(d, n):
    # one index table: the star is the generator rows' neighbour columns
    lat = Lattice(d, n)
    assert np.shares_memory(lat.star, lat.generator_pattern[1])
    neighbors, _ = walker._walk_tables(lat, lat.unit_weights)
    assert neighbors is lat.star


# sha256 of the sites, displacements and jumps (as int64) of criterion 8's
# fields 0-5 (6 fields x 256 walks, d=2 n=24, times 0.25 to 16, seed 23),
# recorded when they formed a lockstep group of their own, with the column
# picked by argmax and walks retired by a boolean mask
CRITERION_8_GROUP_SHA256 = {
    "sites": "553624214534c49a421abeb1f649c5ab69eab3fa08e6bc2e1905d62f756bed03",
    "displacements": "918df833ea70efe28a727f091bbbf0fe02cc3c62e3d20cc2597d04c6aad702ee",
    "jumps": "37904a9779f4c3ab02d20aac9689ff9c87eb5b2be441756a036eae2c98f55b61",
}


def test_criterion_8_lockstep_group_is_pinned():
    # fields 0-5 walk as they did in a group of six, also inside the one
    # group that criterion 8's 24 fields now form
    lat, seed, walks = Lattice(2, 24), 23, 256
    (whole,) = _field_groups(24, lat.n_sites, walks, 1)
    assert list(whole) == list(range(24))
    times = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    for group in (range(6), whole):
        weights = [sample_field(LAW, lat, field_seed(seed, r)).omega for r in group]
        _, *records = zip(*_field_batch(lat, weights, walks, 16.0, times, seed, 1, group))
        for (name, pin), parts in zip(CRITERION_8_GROUP_SHA256.items(), records):
            first_six = np.concatenate(parts[:6]).astype(np.int64)
            assert hashlib.sha256(first_six.tobytes()).hexdigest() == pin, name


def test_sample_time_records_match_the_path():
    # sample times do not change the draws, so a batch of one sampled at
    # chosen times must agree with its own path, right-continuously at a jump
    field = sample_field(LAW, Lattice(2, 6), 4)
    traj = simulate_vsrw(field, 9, 8.0, np.random.default_rng(5))
    times = np.array([0.0, 0.3, traj.times[10], 4.0, 8.0])
    batch = _simulate_batch(field.lattice, field.omega, [9], 8.0, [np.random.default_rng(5)], times)
    assert batch.jumps.tolist() == [traj.jump_count]
    assert batch.sites[0].tolist() == traj.site_at(times).tolist()
    assert batch.displacements[0].tolist() == traj.displacement_at(times).tolist()
    assert batch.sites[0, 2] == traj.sites[10]


@pytest.mark.parametrize("law, d, n, t", [
    ("twopoint:0.5,1,4", 1, 16, 1.5),
    ("uniform:1,3", 2, 8, 0.6),
    ("boundedpareto:0.3,0.5,1000", 2, 8, 0.6),
    ("twopoint:0.5,1,4", 3, 4, 0.4),
    ("constant:1", 3, 4, 0.5),
])
def test_batched_end_sites_follow_the_heat_kernel(law, d, n, t):
    # 20000 walks from one start against the row exp(tL)[start]; bins with
    # fewer than 5 expected walks are pooled
    field = sample_field(parse_law(law), Lattice(d, n), 7)
    walks, start = 20000, 3
    batch = _simulate_batch(field.lattice, field.omega, np.full(walks, start), t,
                            [np.random.default_rng(11)], [t])
    expected = walks * scipy.linalg.expm(t * build_generator(field).matrix.toarray())[start]
    observed = np.bincount(batch.sites[:, 0], minlength=field.lattice.n_sites)
    big = expected >= 5.0
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    assert obs.sum() == walks
    assert scipy.stats.chisquare(obs, exp * walks / exp.sum()).pvalue > 1e-3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_simple_walk_jump_counts_are_poisson(d):
    lat, t, walks = Lattice(d, 5), 1.5, 20000
    batch = _simulate_batch(lat, lat.unit_weights,
                            np.zeros(walks, dtype=int), t, [np.random.default_rng(d)])
    pmf = scipy.stats.poisson(2 * d * t)
    edges = np.arange(int(pmf.ppf(0.999)) + 1)
    expected = walks * np.append(np.diff(np.append(0.0, pmf.cdf(edges[:-1]))), pmf.sf(edges[-2]))
    observed = np.bincount(np.minimum(batch.jumps, edges[-1]), minlength=edges.size)
    assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3


@st.composite
def _group_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, {1: 12, 2: 6, 3: 4}[d]))
    law = draw(st.sampled_from(["constant:1", "uniform:1,3", "twopoint:0.5,1,4",
                                "boundedpareto:0.3,0.5,1000"]))
    fields = draw(st.integers(1, 5))
    walks = draw(st.integers(1, 40))
    # from a handful of jumps per walk to about a hundred, so the fields of
    # a group retire their last walk on different steps
    horizon = draw(st.floats(0.05, 8.0))
    # up to 16 sample times: two anywhere, a run of up to 13 spaced far
    # below a mean holding time (at most 1 here), so that one jump passes
    # several, and sometimes the horizon itself
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=2))
    spacing = draw(st.floats(1e-3, 0.05))
    run = draw(st.floats(0.0, 1.0)) * horizon + spacing * np.arange(draw(st.integers(0, 13)))
    ends = [horizon] if draw(st.booleans()) else []
    times = np.unique(np.concatenate([np.array(fractions) * horizon, run[run <= horizon], ends]))
    seed = draw(st.integers(0, 2**16))
    return parse_law(law), d, n, fields, walks, horizon, times, seed


def _assert_records_follow_the_path(lat, starts, horizon, times, batch):
    # each walk's records against its own jumps, read off the recorded path
    walk, when, rows, columns = batch.path
    moves = walker._moves(lat.d)
    assert np.array_equal(np.bincount(walk, minlength=starts.size), batch.jumps)
    for w, start in enumerate(starts):
        mine = walk == w
        traj = Trajectory(int(start), horizon, when[mine], rows[mine],
                          np.cumsum(moves[columns[mine]], axis=0), lat)
        assert batch.sites[w].tolist() == traj.site_at(times).tolist()
        assert batch.displacements[w].tolist() == traj.displacement_at(times).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_group_case())
def test_each_field_of_a_group_walks_as_it_does_alone(case):
    law, d, n, fields, walks, horizon, times, seed = case
    lat = Lattice(d, n)
    omegas = [sample_field(law, lat, seed + i).omega for i in range(fields)]
    starts = np.random.default_rng(seed).integers(lat.n_sites, size=fields * walks)
    rngs = [np.random.default_rng([seed, i]) for i in range(fields)]
    group = _simulate_batch(lat, np.stack(omegas), starts, horizon, rngs, times)
    for i in range(fields):
        rng = np.random.default_rng([seed, i])
        own = slice(i * walks, (i + 1) * walks)
        alone = _simulate_batch(lat, omegas[i], starts[own], horizon, [rng], times, path=True)
        assert np.array_equal(group.sites[own], alone.sites)
        assert np.array_equal(group.displacements[own], alone.displacements)
        assert np.array_equal(group.jumps[own], alone.jumps)
        assert rngs[i].bit_generator.state == rng.bit_generator.state
        _assert_records_follow_the_path(lat, starts[own], horizon, times, alone)


def test_field_groups_bound_table_rows_and_walks_and_feed_every_worker():
    def sizes(*args):
        return [len(g) for g in _field_groups(*args)]

    assert sizes(24, 576, 256, 1) == [24]  # criterion 8: 16384 // 576 = 28 fields at most
    assert sizes(10, 12, 1 << 14, 1) == [1] * 10  # walks bound a group as rows do
    assert sizes(3, 20000, 8, 1) == [1, 1, 1]  # a field larger than the cap runs alone
    assert sizes(5, 12, 8, 2) == [2, 3]  # one group fits, but each worker gets one
    assert sizes(1, 12, 8, 4) == [1]


@pytest.mark.parametrize("workers", [1, 2])
def test_results_do_not_depend_on_the_grouping_of_fields(monkeypatch, workers):
    lat = Lattice(2, 6)
    fields = [sample_field(LAW, lat, field_seed(3, r)) for r in range(5)]
    times = [0.5, 1.0, 4.0]

    def decay(workers):
        return variance_decay_experiment(LAW, 2, 6, "edge", "conductance", [0.5, 2.0], 5, 4,
                                          method="mc", walks=30, workers=workers)

    assert len(_field_groups(5, lat.n_sites, 30, 1)) == 1
    whole, (whole_curve, whole_report) = msd_estimate(fields, 30, times, 3), decay(1)
    monkeypatch.setattr(walker, "_GROUP_ROWS", 2 * lat.n_sites)
    assert [list(g) for g in _field_groups(5, lat.n_sites, 30, 1)] == [[0], [1, 2], [3, 4]]
    split, (split_curve, split_report) = msd_estimate(fields, 30, times, 3, workers), decay(workers)
    for a, b in ((whole.msd_over_t, split.msd_over_t), (whole.stderr, split.stderr),
                 (whole_curve.values, split_curve.values), (whole_curve.stderrs, split_curve.stderrs)):
        assert np.array_equal(a, b)
    assert (whole.jumps_total, whole.short_time_rate) == (split.jumps_total, split.short_time_rate)
    assert _walker_note(whole_report) == _walker_note(split_report)


def test_batches_reject_bad_horizons_starts_and_sample_times():
    lat = Lattice(2, 4)
    weights = lat.unit_weights
    rng = np.random.default_rng(0)
    for horizon in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ParameterError):
            _simulate_batch(lat, weights, [0, 1], horizon, [rng])
    for starts in ([0, 16], [-1, 3], [[0, 1]]):
        with pytest.raises(ParameterError):
            _simulate_batch(lat, weights, starts, 1.0, [rng])
    for times in ([0.5, 0.5], [0.5, 1.5], [-0.1]):
        with pytest.raises(ParameterError):
            _simulate_batch(lat, weights, [0, 1], 1.0, [rng], times)
    with pytest.raises(ParameterError):  # two fields cannot share three walks
        _simulate_batch(lat, np.stack([weights, weights]), [0, 1, 2], 1.0, [rng, rng])
    with pytest.raises(ParameterError):
        simulate_vsrw(sample_field(LAW, lat, 0), 16, 1.0, rng)


def _walker_note(report):
    (note,) = [n for n in report.notes if n.startswith("walker: ")]
    return note


def test_walker_notes_count_the_jumps_of_batches_of_one():
    # with one walk per field each field's batch is a batch of one, replayed
    # here by hand from the seed tree: the start is drawn first
    d, n, realizations, seed = 2, 5, 4, 13
    lat = Lattice(d, n)
    fields = [sample_field(LAW, lat, field_seed(seed, r)) for r in range(realizations)]

    def replay(stream, horizon):
        jumps = 0
        for r, field in enumerate(fields):
            rng = child_rng(seed, stream, r)
            start = int(rng.integers(lat.n_sites, size=1)[0])
            jumps += simulate_vsrw(field, start, horizon, rng).jump_count
        return jumps

    report, _ = msd_experiment(LAW, d, n, (0.5, 2.0), realizations, 1, seed,
                               sigma2=4.0, sigma2_se=0.1, no_trend=True)
    assert _walker_note(report) == f"walker: {realizations} walks, {replay(1, 2.0)} jumps simulated"
    _, report = variance_decay_experiment(LAW, d, n, "edge", "conductance", [0.5, 1.5],
                                          realizations, seed, method="mc", walks=1)
    assert _walker_note(report) == f"walker: {realizations} walks, {replay(2, 3.0)} jumps simulated"
