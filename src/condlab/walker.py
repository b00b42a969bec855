"""Continuous-time walks among conductances, simulated exactly.

Simulation is event-driven: holding times are exponential at the site's total
rate and the destination is chosen proportional to the incident conductances,
so there is no time-discretization bias anywhere downstream.  The simple
(rate-1) walk runs through the same kernel, which makes matched-seed
comparisons against a constant field exact.

One lockstep kernel, _simulate_batch, makes one numpy step per jump of every
walk still short of the horizon, across all fields of a group, whose jump
tables stack into at most _GROUP_ROWS rows; ensembles keep only the
sample-time sites and displacements (int32) and each walk's jump count, and
a step does sample-time bookkeeping only for the walks whose jump passes a
sample time or the horizon.  Ensembles walk the fields their caller
samples; this module samples none.  Field r of an ensemble under master seed s
keeps one generator, child_rng(s, stream, r) (util.STREAM_MSD_WALKS for
msd_estimate, util.STREAM_DECAY_WALKS for the mc decay method): it draws
the start sites, then each step exactly what the field's walks would draw
alone, so results depend on neither grouping nor workers.  A single trajectory is the group of one walk.  On a
shared 2-core x86-64 box, one core busy: about 2.2e7 jumps/s for criterion
8's ensemble, run as one group (1.5e7 as four groups of six fields), and
8e4-9e4 for a single path, as before, where numpy's per-call cost dominates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .functionals import evaluate_at_sites
from .util import STREAM_MSD_WALKS, child_rng, field_groups, mean_and_stderr, parallel_map

__all__ = [
    "Trajectory",
    "simulate_vsrw",
    "simulate_srw",
    "additive_functional",
    "MsdCurve",
    "msd_estimate",
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
        idx = np.searchsorted(self.times, t, side="right")
        sites = np.concatenate(([self.start], self.sites))[idx]  # also for a walk that never jumps
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


def _walk_tables(lattice, weights):
    """Neighbour indices and cumulative jump rates per site, in star order.

    Both are the generator's rows without the diagonal: Lattice.star, the
    neighbour columns of its index table, and the cumulative sums of
    Lattice.generator_entries, w_a(x) in column 2a and w_a(x - e_a) in
    column 2a + 1, summed left to right as Lattice.jump_rates sums them.
    weights may stack several fields, field i filling rows i * n_sites.
    """
    rows = lattice.generator_entries(weights, 0.0)
    return lattice.star, rows.reshape(-1, 2 * lattice.d + 1)[:, 1:].cumsum(axis=1)


def _moves(d):
    """Displacement of each jump column: +e_0, -e_0, +e_1, ..."""
    moves = np.repeat(np.eye(d, dtype=np.int64), 2, axis=0)
    moves[1::2] *= -1
    return moves


@dataclass
class Batch:
    """What a lockstep group of walks leaves behind, walks in field order.

    sites[w, j] and displacements[w, j] (int32) hold walk w at the j-th
    sample time, jumps[w] its number of jumps up to the horizon.  With path
    recording, path holds every jump of the group in step order as (walk,
    time, table row, column) int64 and float arrays, column k being the k-th
    edge of the star.
    """

    sites: np.ndarray
    displacements: np.ndarray
    jumps: np.ndarray
    path: tuple = None


def _draws(rngs, ids, firsts):
    """Draw buffers for the active walks ids, and (generator, its slices) per field with any."""
    e, u = np.empty(ids.size), np.empty(ids.size)
    bounds = ids.searchsorted(firsts).tolist()
    return e, u, [(rng, e[lo:hi], u[lo:hi]) for rng, lo, hi in zip(rngs, bounds, bounds[1:]) if hi > lo]


def _simulate_batch(lattice, weights, starts, horizon, rngs, times=(), path=False):
    """Advance the walks of all fields of a group together, one jump per active walk per step.

    weights stacks the fields' edge arrays; field i has generator rngs[i] and
    the i-th equal share of starts.  Each step each field draws standard
    exponentials for its k active walks, then uniforms for those whose next
    jump falls within the horizon, in walk order: what it draws alone.  A walk
    at x waits E * (1 / total_rate[x]), then takes star column k, the number
    of cumulative rates <= u * total_rate[x].  Sites and displacements are
    recorded as clocks pass the sample times, so ensembles keep no path.
    """
    if not 0 < horizon < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon}")
    d, n_sites, fields = lattice.d, lattice.n_sites, len(rngs)
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or starts.size % fields or np.any((starts < 0) | (starts >= n_sites)):
        raise ParameterError(f"start sites must lie in [0, {n_sites}), as many for each field")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0) or np.any((times < 0) | (times > horizon)):
        raise ParameterError(f"sample times must increase within [0, {horizon}]")
    width = 2 * d
    last = width - 1
    # row i * n_sites + x: the 2d cumulative rates, the last of them the total
    # rate, then its reciprocal; the rates are nondecreasing, so the first star
    # column whose rate exceeds u * total is the number of rates <= u * total
    neighbors, cum = _walk_tables(lattice, weights)
    table = np.column_stack((cum, 1.0 / cum[:, last]))
    del cum  # the table holds all the loop reads of it
    moves = _moves(d).astype(np.int32)
    stops = np.append(times, math.inf)

    walks = starts.size
    per = walks // fields
    sites = np.empty((walks, times.size), dtype=np.int32)
    displacements = np.empty((walks, times.size, d), dtype=np.int32)
    jumps = np.empty(walks, dtype=np.int64)
    ids = np.arange(walks)
    firsts = np.arange(fields + 1) * per  # field i's walks are firsts[i] to firsts[i + 1] - 1
    e, u, spans = _draws(rngs, ids, firsts)
    offsets = np.arange(fields) * n_sites
    hop = (neighbors + offsets[:, None, None]).ravel()  # row x's star column k is entry x * 2d + k
    x = starts + np.repeat(offsets, per)  # field i's site x is table row i * n_sites + x
    t = np.zeros(walks)
    disp = np.zeros((walks, d), dtype=np.int32)
    nxt = np.zeros(walks, dtype=np.intp)
    # a walk needs attention once its clock passes its next sample time or,
    # with none left, the horizon
    gate = np.full(walks, min(stops[0], horizon))
    # with path recording: (walk, time, row, column) per step, concatenated
    # every 4096 steps so a long path does not hold one-element arrays; the
    # empty first step makes the int8 columns int64 in the record
    chunks, steps = [], [(ids[:0], t[:0], x[:0], ids[:0])]
    step = 0
    # the gathers made at every step are takes, 3-10 times cheaper than fancy indexing
    while ids.size:
        row = table.take(x, 0)
        for rng, exponentials, _ in spans:
            rng.standard_exponential(out=exponentials)
        tn = t + e * row[:, width]
        due = tn > gate
        if due.any():
            # only the walks past their gate: each records the sample times
            # its jump passes, then gets its next gate or, past the horizon,
            # retires; the other walks' gates stand
            due = np.flatnonzero(due)
            late = tn.take(due)
            c = due[late > stops.take(nxt.take(due))]
            while c.size:
                at = nxt.take(c)
                walk = ids.take(c)
                sites[walk, at] = x.take(c) % n_sites
                displacements[walk, at] = disp.take(c, 0)
                at += 1
                nxt[c] = at
                c = c[tn.take(c) > stops.take(at)]
            gate[due] = np.minimum(stops.take(nxt.take(due)), horizon)
            done = due[late > horizon]
            if done.size:
                jumps[ids.take(done)] = step
                keep = np.flatnonzero(tn <= horizon)
                ids, x, row, tn, disp, nxt, gate = (
                    a.take(keep, 0) for a in (ids, x, row, tn, disp, nxt, gate)
                )
                if not ids.size:
                    break
                e, u, spans = _draws(rngs, ids, firsts)
        for rng, _, uniforms in spans:
            rng.random(out=uniforms)
        v = u * row[:, last]
        # k counts in int8, whose adds need no cast from bool
        k = (row[:, 0] <= v).view(np.int8)
        for j in range(1, last):
            k = k + (row[:, j] <= v).view(np.int8)
        x = hop.take(x * width + k)
        if times.size:  # displacements are only ever read at sample times
            np.add(disp, moves.take(k, 0), out=disp)
        t = tn
        step += 1
        if path:
            steps.append((ids, tn, x, k))
            if len(steps) == 4096:
                chunks.append(tuple(map(np.concatenate, zip(*steps))))
                steps = []
    record = tuple(map(np.concatenate, zip(*chunks, *steps))) if path else None
    return Batch(sites, displacements, jumps, record)


def _simulate(lattice, weights, start, horizon, rng):
    """One walk's path, as the group of one field and one walk, whose table rows are its sites."""
    _, times, sites, columns = _simulate_batch(lattice, weights, [int(start)], horizon,
                                               [np.random.default_rng(rng)], path=True).path
    return Trajectory(
        start=int(start),
        horizon=float(horizon),
        times=times,
        sites=sites,
        displacements=np.cumsum(_moves(lattice.d)[columns], axis=0),
        lattice=lattice,
    )


# Most table rows (fields x sites), and most walks, in one lockstep group unless a field
# alone has more: at d=3 0.9 MB of table, within a 2 MB per-core L2; at criterion 8's
# size all 24 fields, 6144 walks a step
_GROUP_ROWS = 1 << 14


def _field_groups(realizations, n_sites, walks, workers):
    """Consecutive field ranges, one per worker at least, within _GROUP_ROWS rows and walks."""
    return field_groups(realizations, max(n_sites, walks), _GROUP_ROWS, workers)


def _field_batch(lattice, weights, walks, horizon, times, seed, stream, group):
    """(starts, sites, displacements, jumps) of each field of group, run as one lockstep group.

    weights[i] is field group[i]'s edge array.  Its generator child_rng(seed,
    stream, group[i]) draws its uniform start sites, then drives its walks.
    """
    rngs = [child_rng(seed, stream, r) for r in group]
    starts = np.concatenate([rng.integers(lattice.n_sites, size=walks) for rng in rngs])
    batch = _simulate_batch(lattice, np.stack(weights), starts, horizon, rngs, times)
    return zip(*(np.split(a, len(group)) for a in (starts, batch.sites, batch.displacements, batch.jumps)))


def simulate_vsrw(field, start, horizon, rng):
    """Walk with jump rate across each edge equal to its conductance."""
    return _simulate(field.lattice, field.omega, start, horizon, rng)


def simulate_srw(lattice, start, horizon, rng):
    """Rate-1 walk; takes no field at all."""
    return _simulate(lattice, lattice.unit_weights, start, horizon, rng)


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


# ---------------------------------------------------------------------------
# Ensembles


@dataclass
class MsdCurve:
    """The ensemble's MSD/t with its stderr, and each field's own MSD/t (fields x times)."""

    times: np.ndarray
    msd_over_t: np.ndarray
    stderr: np.ndarray
    field_msd_over_t: np.ndarray
    walks_total: int
    jumps_total: int
    short_time_rate: float


def _msd_group(args):
    """Each field's squared displacements at the sample times, mean jump rate and jumps."""
    fields, walks, times, seed, group = args
    runs = _field_batch(fields[0].lattice, [f.omega for f in fields], walks, times[-1], times, seed,
                        STREAM_MSD_WALKS, group)
    return [(np.sum(disp.astype(float) ** 2, axis=2), float(f.rates().mean()), int(jumps.sum()))
            for (_, _, disp, jumps), f in zip(runs, fields)]


def msd_estimate(fields, walks, times, seed, workers=1):
    """Ensemble- and path-averaged mean square displacement over time, on the given fields.

    Field r walks `walks` walks up to the last sample time, driven by
    child_rng(seed, STREAM_MSD_WALKS, r); the simple walk is a list of
    Constant(1.0) fields.  Walk starts are uniform over sites, matching the
    stationary environment measure.  Standard errors come from the spread
    across the fields, or across all walks when the fields are all equal (a
    single field, a constant law, or the simple walk): there every walk is
    an independent sample, and the spread of a few field means would
    estimate the same error from far fewer degrees of freedom.  Each field's
    own MSD/t is kept too, so a caller can pair it with that field's
    diffusivity.  Lockstep groups of fields run through parallel_map, which
    changes no result.
    """
    if not fields:
        raise ParameterError("need at least one field")
    lat = fields[0].lattice
    if any(f.lattice != lat for f in fields):
        raise ParameterError("all fields must live on the same lattice")
    if walks < 1:
        raise ParameterError("walks must be >= 1")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ParameterError("sampling times must be positive and strictly increasing")
    groups = _field_groups(len(fields), lat.n_sites, walks, workers)
    tasks = [(fields[g.start:g.stop], walks, times, seed, g) for g in groups]
    results = [field for part in parallel_map(_msd_group, tasks, workers) for field in part]
    field_means = np.stack([squares.mean(axis=0) for squares, _, _ in results])
    if any(not np.array_equal(f.omega, fields[0].omega) for f in fields[1:]):
        samples = field_means
    else:
        samples = np.concatenate([squares for squares, _, _ in results])
    mean, se = mean_and_stderr(samples, axis=0)
    return MsdCurve(
        times=times,
        msd_over_t=mean / times,
        stderr=se / times,
        field_msd_over_t=field_means / times,
        walks_total=len(fields) * walks,
        jumps_total=sum(jumps for _, _, jumps in results),
        short_time_rate=float(np.mean([rate for _, rate, _ in results])),
    )
