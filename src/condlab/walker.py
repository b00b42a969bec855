"""Continuous-time walks among conductances, simulated exactly.

Simulation is event-driven: holding times are exponential at the site's total
rate and the destination is chosen proportional to the incident conductances,
so there is no time-discretization bias anywhere downstream.  The simple
(rate-1) walk runs through the same kernel, which makes matched-seed
comparisons against a constant field exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import sample_field
from .errors import ParameterError
from .functionals import evaluate_at_sites
from .util import child_rng, field_seed, mean_and_stderr

__all__ = [
    "Trajectory",
    "simulate_vsrw",
    "simulate_srw",
    "env_samples",
    "additive_functional",
    "occupation_fractions",
    "EnsembleConfig",
    "MsdCurve",
    "msd_estimate",
    "trajectory_to_csv",
]


@dataclass
class Trajectory:
    """One continuous-time path: jump times, visited sites, net displacement.

    sites[k] is the site entered at times[k]; displacements[k] is the
    unwrapped integer displacement accumulated by then.  The walk sits at
    start before the first jump.
    """

    start: int
    horizon: float
    times: np.ndarray
    sites: np.ndarray
    displacements: np.ndarray
    lattice: object

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("jump times must be strictly increasing")
        if self.times.size and self.times[-1] > self.horizon:
            raise ParameterError("jump beyond horizon")

    @property
    def jump_count(self):
        return len(self.times)

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.horizon):
            raise ParameterError(f"query time outside [0, {self.horizon}]")
        return t

    def site_at(self, t):
        """Site occupied at time t (vectorized over arrays of times)."""
        t = self._check_time(t)
        idx = np.searchsorted(self.times, t, side="right") - 1
        sites = np.where(idx < 0, self.start, self.sites[np.maximum(idx, 0)])
        return sites if sites.ndim else int(sites)

    def displacement_at(self, t):
        """Unwrapped displacement vector at time t."""
        t = self._check_time(t)
        idx = np.searchsorted(self.times, t, side="right") - 1
        d = self.lattice.d
        if t.ndim == 0:
            if idx < 0:
                return np.zeros(d, dtype=np.int64)
            return self.displacements[int(idx)].copy()
        out = np.zeros(t.shape + (d,), dtype=np.int64)
        inside = idx >= 0
        out[inside] = self.displacements[idx[inside]]
        return out


def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _walk_tables(lattice, weights):
    """Neighbour indices and cumulative jump rates per site, in star order.

    Column k of a site's row is the k-th edge of its star (+e_0, -e_0, +e_1,
    ...), so each uniform draw maps to the same jump for the same weights.
    """
    sites, edges = lattice.star
    return sites, np.asarray(weights, dtype=float).ravel()[edges].cumsum(axis=1)


def _simulate(lattice, tables, start, horizon, rng):
    if not 0 < horizon < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon}")
    neighbors, cum = tables
    d = lattice.d
    x = int(start)
    if not 0 <= x < lattice.n_sites:
        raise ParameterError(f"start site {x} out of range")
    t = 0.0
    disp = np.zeros(d, dtype=np.int64)
    times, sites, disps = [], [], []
    last = 2 * d - 1
    while True:
        row = cum[x]
        t += rng.exponential(1.0 / row[last])
        if t > horizon:
            break
        k = int(np.searchsorted(row, rng.random() * row[last], side="right"))
        if k > last:
            k = last
        x = int(neighbors[x, k])
        disp[k // 2] += 1 - 2 * (k % 2)
        times.append(t)
        sites.append(x)
        disps.append(disp.copy())
    return Trajectory(
        start=int(start),
        horizon=float(horizon),
        times=np.array(times),
        sites=np.array(sites, dtype=np.int64),
        displacements=np.array(disps, dtype=np.int64).reshape(len(disps), d),
        lattice=lattice,
    )


def simulate_vsrw(field, start, horizon, rng):
    """Walk with jump rate across each edge equal to its conductance."""
    tables = _walk_tables(field.lattice, field.omega)
    return _simulate(field.lattice, tables, start, horizon, _as_rng(rng))


def simulate_srw(lattice, start, horizon, rng):
    """Rate-1 walk; takes no field at all."""
    tables = _walk_tables(lattice, lattice.unit_weights)
    return _simulate(lattice, tables, start, horizon, _as_rng(rng))


def env_samples(field, functional, trajectory, times):
    """Functional of the environment seen from the walker, at chosen times."""
    sites = trajectory.site_at(np.asarray(times, dtype=float))
    return evaluate_at_sites(functional, field, np.atleast_1d(sites))


def additive_functional(field, functional, trajectory, t, t0=0.0):
    """Exact time integral of the observable along the path over [t0, t]."""
    if not 0 <= t0 <= t:
        raise ParameterError(f"need 0 <= t0 <= t, got [{t0}, {t}]")
    if t > trajectory.horizon:
        raise ParameterError(f"time {t} beyond horizon {trajectory.horizon}")
    jt = trajectory.times
    lo = int(np.searchsorted(jt, t0, side="right"))
    hi = int(np.searchsorted(jt, t, side="right"))
    cuts = np.concatenate(([t0], jt[lo:hi], [t]))
    visited = np.concatenate(([trajectory.start if lo == 0 else trajectory.sites[lo - 1]],
                              trajectory.sites[lo:hi]))
    values = evaluate_at_sites(functional, field, visited)
    return math.fsum((values * np.diff(cuts)).tolist())


def occupation_fractions(trajectory, t=None):
    """Fraction of [0, t] spent at each site."""
    if t is None:
        t = trajectory.horizon
    if not 0 < t <= trajectory.horizon:
        raise ParameterError(f"need 0 < t <= horizon, got {t}")
    jt = trajectory.times
    hi = int(np.searchsorted(jt, t, side="right"))
    cuts = np.concatenate(([0.0], jt[:hi], [t]))
    visited = np.concatenate(([trajectory.start], trajectory.sites[:hi]))
    out = np.zeros(trajectory.lattice.n_sites)
    np.add.at(out, visited, np.diff(cuts))
    return out / t


# ---------------------------------------------------------------------------
# Ensembles


@dataclass
class EnsembleConfig:
    """What to run: the law and torus, which walk, and how much of it."""

    law: object
    lattice: object
    kind: str
    realizations: int
    walks: int
    horizon: float
    times: np.ndarray
    seed: int

    def __post_init__(self):
        if self.kind not in ("conductance", "simple"):
            raise ParameterError(f"kind must be 'conductance' or 'simple', got {self.kind!r}")
        if self.realizations < 1 or self.walks < 1:
            raise ParameterError("realizations and walks must be >= 1")
        if self.horizon <= 0:
            raise ParameterError("horizon must be > 0")
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("sampling times must be strictly increasing")
        if self.times[0] <= 0 or self.times[-1] > self.horizon:
            raise ParameterError("sampling times must lie in (0, horizon]")


@dataclass
class MsdCurve:
    times: np.ndarray
    msd_over_t: np.ndarray
    stderr: np.ndarray
    walks_total: int
    short_time_rate: float


def msd_estimate(config):
    """Ensemble- and path-averaged mean square displacement over time.

    Walk starts are uniform over sites, matching the stationary environment
    measure.  Standard errors come from the spread across independent field
    realizations (across walks when there is a single field).
    """
    lat = config.lattice
    group_curves = []
    rate_means = []
    for r in range(config.realizations):
        if config.kind == "conductance":
            field = sample_field(config.law, lat, field_seed(config.seed, r))
            tables = _walk_tables(lat, field.omega)
            rate_means.append(float(field.rates().mean()))
        else:
            field = None
            tables = _walk_tables(lat, lat.unit_weights)
            rate_means.append(2.0 * lat.d)
        per_walk = np.empty((config.walks, len(config.times)))
        for j in range(config.walks):
            rng = child_rng(config.seed, 1, r, j)
            start = int(rng.integers(lat.n_sites))
            traj = _simulate(lat, tables, start, config.horizon, rng)
            disp = traj.displacement_at(config.times)
            per_walk[j] = np.sum(disp.astype(float) ** 2, axis=1)
        group_curves.append(per_walk.mean(axis=0) if config.realizations > 1 else per_walk)
    if config.realizations > 1:
        samples = np.stack(group_curves)
    else:
        samples = group_curves[0]
    mean, se = mean_and_stderr(samples, axis=0)
    return MsdCurve(
        times=config.times,
        msd_over_t=mean / config.times,
        stderr=se / config.times,
        walks_total=config.realizations * config.walks,
        short_time_rate=float(np.mean(rate_means)),
    )


def trajectory_to_csv(traj, path):
    """Write (time, site, displacement components) rows, starting at t=0."""
    d = traj.lattice.d
    with open(path, "w") as fh:
        fh.write("# condlab-csv v1 trajectory\n")
        cols = ",".join(f"dx{i}" for i in range(d))
        fh.write(f"time,site,{cols}\n")
        zero = ",".join("0" for _ in range(d))
        fh.write(f"0,{traj.start},{zero}\n")
        for k in range(traj.jump_count):
            comps = ",".join(str(int(c)) for c in traj.displacements[k])
            fh.write(f"{traj.times[k]:.12g},{traj.sites[k]},{comps}\n")
