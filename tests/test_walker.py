"""Continuous-time walks: kernels, trajectories, ensemble statistics."""

import math

import numpy as np
import pytest

from condlab.environment import ConductanceField, Constant, Lattice, TwoPoint, sample_field
from condlab.errors import ParameterError
from condlab.functionals import centered_edge, evaluate_all
from condlab.walker import (
    EnsembleConfig,
    Trajectory,
    additive_functional,
    env_samples,
    msd_estimate,
    occupation_fractions,
    simulate_srw,
    simulate_vsrw,
    trajectory_to_csv,
)

LAW = TwoPoint(0.5, 1.0, 4.0)


def test_simple_walk_jump_count_is_poisson_2dt():
    lat = Lattice(2, 15)
    horizon = 20.0
    rng = np.random.default_rng(0)
    counts = [simulate_srw(lat, 0, horizon, rng).jump_count for _ in range(300)]
    mean = np.mean(counts)
    expected = 2 * lat.d * horizon
    se = math.sqrt(expected / len(counts))  # Poisson variance equals its mean
    assert abs(mean - expected) < 5 * se


def test_simple_walk_msd_grows_at_2d():
    lat = Lattice(2, 32)
    cfg = EnsembleConfig(
        law=None, lattice=lat, kind="simple", realizations=1, walks=400,
        horizon=8.0, times=np.array([2.0, 4.0, 8.0]), seed=1,
    )
    curve = msd_estimate(cfg)
    for k in range(3):
        assert abs(curve.msd_over_t[k] - 4.0) < 4 * curve.stderr[k]
    assert curve.short_time_rate == 4.0
    assert curve.walks_total == 400


def test_matched_seed_unit_field_walk_equals_simple_walk():
    lat = Lattice(2, 9)
    field = sample_field(Constant(1.0), lat, 0)
    a = simulate_vsrw(field, 5, 12.0, np.random.default_rng(42))
    b = simulate_srw(lat, 5, 12.0, np.random.default_rng(42))
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
        simulate_srw(lat, 0, horizon, np.random.default_rng(0))


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
    traj = simulate_srw(lat, 3, 5.0, np.random.default_rng(7))
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


def test_site_at_is_right_continuous_at_jump_times():
    lat = Lattice(1, 11)
    traj = simulate_srw(lat, 0, 6.0, np.random.default_rng(9))
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


def test_occupation_fractions_integrate_the_path():
    lat = Lattice(1, 5)
    traj = Trajectory(
        start=0, horizon=4.0,
        times=np.array([1.0, 2.5]),
        sites=np.array([1, 2]),
        displacements=np.array([[1], [2]]),
        lattice=lat,
    )
    occ = occupation_fractions(traj)
    assert occ.tolist() == pytest.approx([0.25, 0.375, 0.375, 0.0, 0.0])
    occ2 = occupation_fractions(traj, t=2.0)
    assert occ2.tolist() == pytest.approx([0.5, 0.5, 0.0, 0.0, 0.0])
    assert occ.sum() == pytest.approx(1.0)


def test_env_samples_reads_the_functional_along_the_path():
    lat = Lattice(1, 9)
    field = sample_field(LAW, lat, 2)
    f = centered_edge(1, LAW)
    traj = simulate_vsrw(field, 0, 6.0, np.random.default_rng(1))
    times = np.array([0.5, 3.0, 6.0])
    vals = env_samples(field, f, traj, times)
    g = evaluate_all(f, field)
    expected = [g[traj.site_at(t)] for t in times]
    assert np.allclose(vals, expected)


def test_additive_functional_is_the_exact_piecewise_integral():
    lat = Lattice(1, 5)
    omega = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    field = ConductanceField(lat, omega)
    f = centered_edge(1, Constant(1.0))  # reads omega[0, x] - 1
    traj = Trajectory(
        start=0, horizon=4.0,
        times=np.array([1.0, 2.5]),
        sites=np.array([1, 2]),
        displacements=np.array([[1], [2]]),
        lattice=lat,
    )
    # segments: site 0 on [0,1), site 1 on [1,2.5), site 2 on [2.5,4]
    expected = (1.0 - 1.0) * 1.0 + (2.0 - 1.0) * 1.5 + (3.0 - 1.0) * 1.5
    assert additive_functional(field, f, traj, 4.0) == pytest.approx(expected)
    # a window that starts mid-segment
    expected_tail = (2.0 - 1.0) * 0.5 + (3.0 - 1.0) * 1.0
    assert additive_functional(field, f, traj, 3.5, t0=2.0) == pytest.approx(expected_tail)
    with pytest.raises(ParameterError):
        additive_functional(field, f, traj, 5.0)
    with pytest.raises(ParameterError):
        additive_functional(field, f, traj, 1.0, t0=2.0)


def test_msd_estimate_is_deterministic_and_tracks_mean_rate():
    lat = Lattice(1, 24)
    cfg = dict(law=LAW, lattice=lat, kind="conductance", realizations=6,
               walks=20, horizon=4.0, times=np.array([1.0, 2.0, 4.0]), seed=9)
    a = msd_estimate(EnsembleConfig(**cfg))
    b = msd_estimate(EnsembleConfig(**cfg))
    assert np.array_equal(a.msd_over_t, b.msd_over_t)
    assert np.array_equal(a.stderr, b.stderr)
    # mean total jump rate at a site is 2 d E[omega]
    assert abs(a.short_time_rate - 2.0 * LAW.mean()) < 0.5


def test_ensemble_config_validation():
    lat = Lattice(1, 8)
    good = dict(law=LAW, lattice=lat, kind="conductance", realizations=2,
                walks=2, horizon=2.0, times=np.array([1.0, 2.0]), seed=0)
    EnsembleConfig(**good)
    for key, bad in (("kind", "jumpy"), ("realizations", 0), ("horizon", 0.0),
                     ("times", np.array([1.0, 0.5])), ("times", np.array([1.0, 3.0]))):
        cfg = dict(good)
        cfg[key] = bad
        with pytest.raises(ParameterError):
            EnsembleConfig(**cfg)


def test_trajectory_csv_layout(tmp_path):
    lat = Lattice(2, 6)
    traj = simulate_srw(lat, 4, 3.0, np.random.default_rng(2))
    path = tmp_path / "walk.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# condlab-csv v1 trajectory"
    assert lines[1] == "time,site,dx0,dx1"
    assert lines[2] == "0,4,0,0"
    assert len(lines) == 3 + traj.jump_count
    last = lines[-1].split(",")
    assert int(last[1]) == traj.sites[-1]
