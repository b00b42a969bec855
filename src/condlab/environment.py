"""Random conductance fields on periodic lattices.

Sites live on the torus (Z/nZ)^d and every nearest-neighbour edge carries an
i.i.d. conductance >= 1.  The module also holds the percolation-style site
diagnostics (good/bad classification, bad clusters, the W statistic) used by
the heat-kernel experiments.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, SaturationError
from .util import float_text

__all__ = [
    "Lattice",
    "ConductanceLaw",
    "Constant",
    "Uniform",
    "TwoPoint",
    "BoundedPareto",
    "parse_law",
    "ConductanceField",
    "sample_field",
    "SiteClassification",
    "classify_sites",
    "default_eta",
    "Cluster",
    "bad_cluster",
    "w_statistic",
    "save_field",
    "load_field",
]


class Lattice:
    """Periodic integer lattice (Z/nZ)^d and its edge structure.

    Sites are indexed 0..n^d-1 in C order over coordinates (x_0, ..., x_{d-1}),
    so a site array reshaped to the d-dimensional grid (grid) has axis a
    along e_a, and reading it at x + offset (shifted) is a roll of that
    grid.  Edge (axis, x) joins site x to x + e_axis and has index
    axis * n^d + x; every per-edge array, conductances included, has shape
    (d, n^d) in that order.  The edge toward x - e_axis is therefore
    (axis, x - e_axis).  Periods below 3 are rejected so the torus never has
    parallel edges.

    Everything the walks need is derived from this one structure.  Rolls of
    the grid give the edge increments of a site array (gradient, the signed
    incidence matrix B applied), the sites' jump rates (jump_rates), the
    generator's entries (generator_entries; the walker's cumulative rates
    are their partial sums) and the values of local functionals
    (functionals.evaluate_all).  The one index table, generator_pattern, is
    built on first use: sparse and dense products read it as the generator's
    CSR layout, and the walker, bad_cluster and w_statistic read its
    neighbour columns as star.
    """

    def __init__(self, d, n):
        d, n = int(d), int(n)
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got {d}")
        if n < 3:
            raise ParameterError(f"period must be >= 3, got {n}")
        self.d = d
        self.n = n
        self.n_sites = n**d
        self.n_edges = d * self.n_sites
        self.shape = (n,) * d

    def grid(self, values):
        """Site arrays, stacked on leading axes, as d-dimensional grids: axis a runs along e_a."""
        values = np.asarray(values)
        return values.reshape(values.shape[:-1] + self.shape)

    def shifted(self, values, offset):
        """Site arrays read at x + offset: out[..., x] = values[..., x + offset]."""
        values = np.asarray(values)
        rolled = np.roll(self.grid(values), tuple(-int(c) for c in offset), tuple(range(-self.d, 0)))
        return rolled.reshape(values.shape)

    @cached_property
    def generator_pattern(self):
        """CSR layout of the generator L: the torus's one index table.

        Returns (indptr, indices), int32 and read-only.  Row x holds x, then
        the sites across its 2d edges in star order; generator_entries
        fills it, and star is its last 2d columns.
        """
        here = np.arange(self.n_sites, dtype=np.int32)
        rows = np.empty((self.n_sites, 2 * self.d + 1), dtype=np.int32)
        rows[:, 0] = here
        for axis, unit in enumerate(np.eye(self.d, dtype=int)):
            rows[:, 2 * axis + 1] = self.shifted(here, unit)
            rows[:, 2 * axis + 2] = self.shifted(here, -unit)
        indptr = np.arange(0, rows.size + 1, 2 * self.d + 1, dtype=np.int32)
        for table in (indptr, rows):
            table.setflags(write=False)
        return indptr, rows.ravel()

    @cached_property
    def star(self):
        """The sites across the 2d edges at every site, a view of generator_pattern.

        An n_sites x 2d int32 array whose columns are ordered (+e_0, -e_0,
        +e_1, -e_1, ...): column 2a holds x + e_a, across the site's own edge
        (a, x), and column 2a + 1 holds x - e_a, across the edge (a, x - e_a).
        """
        return self.generator_pattern[1].reshape(self.n_sites, -1)[:, 1:]

    def generator_entries(self, weights, diagonal):
        """Values stored over generator_pattern, written in its order.

        diagonal[x] at (x, x), then w(a, x) and w(a, x - e_a), the weights of
        the edges to x + e_a and x - e_a, for a = 0, 1, ...  Weights stacked
        on a leading axis give one block of n_sites rows per field.
        """
        w = np.asarray(weights).reshape(-1, self.d, self.n_sites)
        out = np.empty((w.shape[0], self.n_sites, 2 * self.d + 1))
        out[..., 0] = diagonal
        for axis, unit in enumerate(np.eye(self.d, dtype=int)):
            out[..., 2 * axis + 1] = w[:, axis]
            out[..., 2 * axis + 2] = self.shifted(w[:, axis], -unit)
        return out.ravel()

    def gradient(self, g):
        """Increments of the site array g along every edge, (B g)_e = g(x + e_a) - g(x).

        B is the signed incidence matrix (edges x sites; row a * n^d + x is -1
        at x and +1 at x + e_a), applied without being stored.  With edge
        weights w, L = -B^T diag(w) B is the walk generator, |B|^T w the
        sites' total jump rates, and sum_e w_e (B g)_e^2 the Dirichlet form.
        Site arrays stacked on leading axes give one edge array per row.
        """
        g = np.asarray(g)
        grad = np.empty(g.shape[:-1] + (self.d, self.n_sites), dtype=g.dtype)
        for axis, unit in enumerate(np.eye(self.d, dtype=int)):
            np.subtract(self.shifted(g, unit), g, out=grad[..., axis, :])
        return grad.reshape(g.shape[:-1] + (-1,))

    @cached_property
    def unit_weights(self):
        """All-ones edge weights: the conductances of the simple (rate-1) walk."""
        ones = np.ones((self.d, self.n_sites))
        ones.setflags(write=False)
        return ones

    def jump_rates(self, weights):
        """Total weight of the edges at each site, |B|^T w.

        Summed left to right in star order, w(a, x) then w(a, x - e_a) for
        a = 0, 1, ..., as the walker accumulates its jump table.
        """
        w = np.asarray(weights, dtype=float).reshape(self.d, self.n_sites)
        rates = w[0].copy()
        for axis, unit in enumerate(np.eye(self.d, dtype=int)):
            if axis:
                rates += w[axis]
            rates += self.shifted(w[axis], -unit)
        return rates

    def site_index(self, coords):
        """Index of the site at the given integer coordinates, wrapped."""
        c = np.asarray(coords, dtype=np.int64).reshape(self.d) % self.n
        return int(np.ravel_multi_index(tuple(c), self.shape))

    def site_coords(self, index):
        return np.array(np.unravel_index(int(index), self.shape), dtype=np.int64)

    def shift(self, sites, axis, sign=1):
        """Neighbour indices of the given sites along one axis."""
        return self.star[sites, 2 * axis + (sign < 0)]

    def offset_index(self, sites, offset):
        """Site indices of x + offset, vectorized over x."""
        off = np.asarray(offset, dtype=np.int64).reshape(self.d)
        sites = np.asarray(sites)
        # the coordinates of these sites only: no table of every site's coordinates
        c = np.unravel_index(sites.ravel(), self.shape)
        out = np.ravel_multi_index(tuple((ci + oi) % self.n for ci, oi in zip(c, off)), self.shape)
        return out.reshape(sites.shape) if sites.shape else np.int64(out[0])

    def neighbors(self, site):
        """The 2d neighbour indices, ordered (+0, -0, +1, -1, ...)."""
        return self.star[site]

    def __eq__(self, other):
        return isinstance(other, Lattice) and (self.d, self.n) == (other.d, other.n)

    def __repr__(self):
        return f"Lattice(d={self.d}, n={self.n})"


# ---------------------------------------------------------------------------
# Conductance laws


class ConductanceLaw:
    """Distribution of a single edge conductance, supported in [1, inf)."""

    def sample(self, rng, size):
        raise NotImplementedError

    def moment(self, k):
        """Exact k-th moment."""
        raise NotImplementedError

    def mean(self):
        return self.moment(1)

    def descriptor(self):
        """The text parse_law reads back as this law: the class name, lowercased, and exact parameters."""
        params = (float_text(getattr(self, f.name)) for f in dataclasses.fields(self))
        return f"{type(self).__name__.lower()}:{','.join(params)}"

    def __repr__(self):
        return self.descriptor()


@dataclass(frozen=True)
class Constant(ConductanceLaw):
    value: float = 1.0

    def __post_init__(self):
        if self.value < 1:
            raise ParameterError(f"constant conductance must be >= 1, got {self.value}")

    def sample(self, rng, size):
        return np.full(size, float(self.value))

    def moment(self, k):
        return float(self.value) ** k


@dataclass(frozen=True)
class Uniform(ConductanceLaw):
    a: float
    b: float

    def __post_init__(self):
        if not (1 <= self.a < self.b):
            raise ParameterError(f"uniform law needs 1 <= a < b, got a={self.a}, b={self.b}")

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size)

    def moment(self, k):
        a, b = self.a, self.b
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))


@dataclass(frozen=True)
class TwoPoint(ConductanceLaw):
    """Mass 1-p at lo and p at hi."""

    p: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.p <= 1):
            raise ParameterError(f"two-point weight must be in [0, 1], got {self.p}")
        if not (1 <= self.lo <= self.hi):
            raise ParameterError(f"two-point law needs 1 <= lo <= hi, got lo={self.lo}, hi={self.hi}")

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.p, float(self.hi), float(self.lo))

    def moment(self, k):
        return (1 - self.p) * self.lo**k + self.p * self.hi**k


@dataclass(frozen=True)
class BoundedPareto(ConductanceLaw):
    """Mass 1-p at 1, plus p times a Pareto(4+eps) tail truncated at cap.

    The tail density is proportional to x^-(5+eps) on [1, cap].  Truncation
    keeps the support bounded; the exact moments below carry the resulting
    correction factor.
    """

    p: float
    eps: float
    cap: float = 1e3

    def __post_init__(self):
        if not (0 <= self.p <= 1):
            raise ParameterError(f"tail weight must be in [0, 1], got {self.p}")
        if self.eps <= 0:
            raise ParameterError(f"tail exponent offset must be > 0, got {self.eps}")
        if self.cap <= 1:
            raise ParameterError(f"cap must be > 1, got {self.cap}")

    @property
    def tail_index(self):
        return 4.0 + self.eps

    def sample(self, rng, size):
        out = np.ones(size)
        heavy = rng.random(size) < self.p
        k = int(np.count_nonzero(heavy))
        if k:
            a = self.tail_index
            u = rng.random(k)
            # inverse CDF of the truncated Pareto on [1, cap]
            out[heavy] = (1.0 - u * (1.0 - self.cap**-a)) ** (-1.0 / a)
        return out

    def pareto_moment(self, k):
        """k-th moment of the truncated Pareto component alone.

        Finite for every order thanks to the cap; orders at or above the tail
        index exist only because of it and grow like cap^(k - index).
        """
        a = self.tail_index
        norm = 1.0 - self.cap**-a
        if k == a:
            return a * math.log(self.cap) / norm
        return (a / (a - k)) * (1.0 - self.cap ** (k - a)) / norm

    def moment(self, k):
        return (1 - self.p) * 1.0 + self.p * self.pareto_moment(k)


def parse_law(text):
    """Build a law from a descriptor like 'twopoint:0.5,1,4'.

    Formats: constant:V | uniform:A,B | twopoint:P,LO,HI | boundedpareto:P,EPS,CAP
    (the cap may be omitted and defaults to 1000).
    """
    text = text.strip().lower()
    name, _, argstr = text.partition(":")
    try:
        args = [float(tok) for tok in argstr.split(",")] if argstr else []
    except ValueError:
        raise ParameterError(f"non-numeric law parameters in {text!r}")
    counts = {"constant": (1, 1), "uniform": (2, 2), "twopoint": (3, 3), "boundedpareto": (2, 3)}
    if name not in counts:
        raise ParameterError(f"unknown law {name!r} (expected constant, uniform, twopoint, boundedpareto)")
    lo, hi = counts[name]
    if not (lo <= len(args) <= hi):
        raise ParameterError(f"law {name!r} takes {lo}..{hi} parameters, got {len(args)}")
    if name == "constant":
        return Constant(*args)
    if name == "uniform":
        return Uniform(*args)
    if name == "twopoint":
        return TwoPoint(*args)
    return BoundedPareto(*args)


# ---------------------------------------------------------------------------
# Fields


class ConductanceField:
    """Edge conductances on a torus.

    omega[axis, x] is the conductance of the edge from site x to x + e_axis.
    Fields are immutable once built and safe to share across workers.
    """

    def __init__(self, lattice, omega, law=None, seed=None):
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (lattice.d, lattice.n_sites):
            raise ParameterError(
                f"edge array shape {omega.shape} does not match (d, n^d) = ({lattice.d}, {lattice.n_sites})"
            )
        if not np.all(omega >= 1.0):
            raise ParameterError("all conductances must be >= 1")
        omega.setflags(write=False)
        self.lattice = lattice
        self.omega = omega
        self.law = law
        self.seed = seed
        self._rates = None

    def rates(self):
        """Total jump rate p(x) at every site, as one array."""
        if self._rates is None:
            self._rates = self.lattice.jump_rates(self.omega)
            self._rates.setflags(write=False)
        return self._rates


def sample_field(law, lattice, seed):
    """Draw an i.i.d. conductance field; deterministic given the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    omega = law.sample(rng, (lattice.d, lattice.n_sites))
    return ConductanceField(lattice, omega, law=law, seed=int(seed))


# ---------------------------------------------------------------------------
# Site classification and cluster diagnostics


@dataclass(frozen=True)
class SiteClassification:
    eta: float
    good: np.ndarray
    bad_fraction: float


def classify_sites(field, eta=None):
    """Flag each site good when its total jump rate is at most eta.

    With eta omitted, the threshold comes from default_eta for the field's
    law.  Also reports the empirical bad fraction.
    """
    if eta is None:
        if field.law is None:
            raise ParameterError("field has no attached law; pass eta explicitly")
        eta = default_eta(field.law, field.lattice.d)
    if eta <= 0:
        raise ParameterError(f"threshold must be > 0, got {eta}")
    good = field.rates() <= eta
    good.setflags(write=False)
    frac = 1.0 - float(np.count_nonzero(good)) / field.lattice.n_sites
    return SiteClassification(float(eta), good, frac)


def default_eta(law, d):
    """Smallest threshold whose analytic bad probability is below (2d)^-(2d+1).

    The bad probability is P[sum of 2d i.i.d. conductances > eta].  Exact for
    constant, two-point (binomial enumeration) and uniform (Irwin-Hall) laws;
    heavy-tailed laws have no closed convolution here, so the caller must
    supply eta.
    """
    m = 2 * d
    threshold = float(m) ** -(m + 1)
    if isinstance(law, Constant):
        return m * law.value
    if isinstance(law, TwoPoint):
        # attainable sums are m*lo + k*(hi-lo); scan k upward
        tail = 1.0
        for k in range(m + 1):
            pk = math.comb(m, k) * law.p**k * (1 - law.p) ** (m - k)
            tail -= pk
            if tail < threshold:
                return m * law.lo + k * (law.hi - law.lo)
        return m * law.hi
    if isinstance(law, Uniform):
        # S = m*a + (b-a)*IH where IH is a sum of m standard uniforms
        def ih_cdf(x):
            if x <= 0:
                return 0.0
            if x >= m:
                return 1.0
            acc = 0.0
            for j in range(int(math.floor(x)) + 1):
                acc += (-1) ** j * math.comb(m, j) * (x - j) ** m
            return acc / math.factorial(m)

        lo, hi = 0.0, float(m)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - ih_cdf(mid) < threshold:
                hi = mid
            else:
                lo = mid
        return m * law.a + (law.b - law.a) * hi
    raise ParameterError(f"no analytic threshold for law {law.descriptor()}; pass eta explicitly")


@dataclass(frozen=True)
class Cluster:
    sites: np.ndarray
    saturated: bool
    origin: int


def bad_cluster(field, eta, origin=0):
    """Sites reachable from origin through paths with all-bad interiors.

    A path's endpoints are unconstrained, so the cluster always contains the
    origin and its 2d neighbours.  If it grows to the whole torus the result
    is flagged saturated instead of guessing an unwrapped shape.
    """
    lat = field.lattice
    good = classify_sites(field, eta).good
    origin = int(origin)
    visited = np.zeros(lat.n_sites, dtype=bool)
    visited[origin] = True
    frontier = [origin]
    while frontier:
        nxt = []
        for u in frontier:
            # paths may only continue through bad interior vertices
            if u != origin and good[u]:
                continue
            for v in lat.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    nxt.append(int(v))
        frontier = nxt
    sites = np.flatnonzero(visited)
    return Cluster(sites, saturated=len(sites) == lat.n_sites, origin=origin)


def _bad_components(lattice, good):
    """Connected components of the bad sites, as index arrays."""
    comp = np.full(lattice.n_sites, -1, dtype=np.int64)
    comps = []
    for s in np.flatnonzero(~good):
        if comp[s] >= 0:
            continue
        cid = len(comps)
        comp[s] = cid
        queue = [int(s)]
        members = [int(s)]
        while queue:
            u = queue.pop()
            for v in lattice.neighbors(u):
                if not good[v] and comp[v] < 0:
                    comp[v] = cid
                    queue.append(int(v))
                    members.append(int(v))
        comps.append(np.array(sorted(members), dtype=np.int64))
    return comp, comps


def w_statistic(field, eta, origin=0):
    """Total size of extended edge neighbourhoods that contain the origin.

    Each edge's vertex set is extended by the bad components of its bad
    endpoints together with their outer boundaries; W sums the sizes of the
    extended sets that contain the origin.  All-good fields give W = 4d.
    """
    lat = field.lattice
    origin = int(origin)
    cluster = bad_cluster(field, eta, origin)
    if cluster.saturated:
        raise SaturationError(
            f"bad cluster at site {origin} covers the whole torus; raise eta or enlarge n"
        )
    good = classify_sites(field, eta).good
    comp, comps = _bad_components(lat, good)
    if any(len(c) == lat.n_sites for c in comps):
        raise SaturationError("a bad component covers the whole torus; raise eta or enlarge n")
    # closure of each component: members plus all their neighbours
    neighbours = lat.star
    closures = [set(members.tolist()) | set(neighbours[members].ravel().tolist())
                for members in comps]
    total = 0
    # edge (axis, u) joins u to u + e_axis
    for u, v in zip(np.tile(np.arange(lat.n_sites), lat.d).tolist(), neighbours[:, 0::2].T.ravel().tolist()):
        ext = {u, v}
        if not good[u]:
            ext |= closures[comp[u]]
        if not good[v]:
            ext |= closures[comp[v]]
        if origin in ext:
            total += len(ext)
    return float(total)


# ---------------------------------------------------------------------------
# Serialization

_FIELD_MAGIC = "# condlab-field v1"


def save_field(field, path):
    """Write a field as a flat text record, exact to the last bit."""
    lines = [_FIELD_MAGIC]
    lines.append(f"d={field.lattice.d}")
    lines.append(f"n={field.lattice.n}")
    lines.append(f"law={field.law.descriptor() if field.law is not None else 'custom'}")
    lines.append(f"seed={field.seed if field.seed is not None else 'none'}")
    lines.extend(repr(float(v)) for v in field.omega.ravel())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _FIELD_MAGIC:
        raise ParameterError(f"{path}: not a condlab field record")
    header = {}
    body_at = 1
    for ln in lines[1:5]:
        key, _, val = ln.partition("=")
        header[key] = val
        body_at += 1
    lat = Lattice(int(header["d"]), int(header["n"]))
    law = None if header["law"] == "custom" else parse_law(header["law"])
    seed = None if header["seed"] == "none" else int(header["seed"])
    values = np.array([float(v) for v in lines[body_at:]])
    if values.size != lat.n_edges:
        raise ParameterError(f"{path}: expected {lat.n_edges} edge values, found {values.size}")
    return ConductanceField(lat, values.reshape(lat.d, lat.n_sites), law=law, seed=seed)
