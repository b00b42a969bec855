"""Random conductance fields on periodic lattices.

Sites live on the torus (Z/nZ)^d and every nearest-neighbour edge carries an
i.i.d. conductance >= 1.  The module also holds the percolation-style site
diagnostics (good/bad classification, bad clusters, the W statistic) used by
the heat-kernel experiments; clusters and W both read one labelling of the
bad components and their closures.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, SaturationError
from .util import child_rng, float_text

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
    incidence matrix B applied), the generator's entries (generator_entries:
    the sites' jump rates, jump_rates, are its negated diagonal and the
    walker's cumulative rates the partial sums of the rest of a row) and the
    values of local functionals (functionals.evaluate_all).  The one index
    table, generator_pattern, is built on first use: sparse and dense
    products read it as the generator's CSR layout, and the walker,
    bad_cluster and w_statistic read its neighbour columns as star.
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

    def generator_entries(self, weights):
        """Values stored over generator_pattern, written in its order.

        -rate(x) at (x, x), then w(a, x) and w(a, x - e_a), the weights of
        the edges to x + e_a and x - e_a, for a = 0, 1, ...; rate(x) sums
        them left to right in that order, as the walker's cumulative rates
        do.  Weights stacked on a leading axis give one block of n_sites rows
        per field.
        """
        w = np.asarray(weights, dtype=float).reshape(-1, self.d, self.n_sites)
        out = np.empty((w.shape[0], self.n_sites, 2 * self.d + 1))
        rates = np.zeros((w.shape[0], self.n_sites))
        for axis, unit in enumerate(np.eye(self.d, dtype=int)):
            back = self.shifted(w[:, axis], -unit)
            out[..., 2 * axis + 1] = w[:, axis]
            out[..., 2 * axis + 2] = back
            rates += w[:, axis]
            rates += back
        np.negative(rates, out=out[..., 0])
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
        """Total weight of the edges at each site, |B|^T w: the negated diagonal of generator_entries."""
        return -self.generator_entries(weights)[:: 2 * self.d + 1]

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
        """Site indices of x + offset, vectorized over x: the tests' oracle for rolls of the grid."""
        off = np.asarray(offset, dtype=np.int64).reshape(self.d)
        sites = np.asarray(sites)
        # the coordinates of these sites only: no table of every site's coordinates
        c = np.unravel_index(sites.ravel(), self.shape)
        out = np.ravel_multi_index(tuple((ci + oi) % self.n for ci, oi in zip(c, off)), self.shape)
        return out.reshape(sites.shape) if sites.shape else np.int64(out[0])

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
    value: float

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
            out[heavy] = self.pareto_quantile(rng.random(k))
        return out

    def pareto_quantile(self, u):
        """Inverse CDF of the truncated Pareto component on [1, cap], at the uniforms u."""
        a = self.tail_index
        return (1.0 - u * (1.0 - self.cap**-a)) ** (-1.0 / a)

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
    """Build a law from a descriptor like 'twopoint:0.5,1,4', as descriptor() writes it.

    Every dataclass subclassing ConductanceLaw is a law: its lowercased class
    name, then its fields in order, those with a default optional.  Formats:
    constant:V | uniform:A,B | twopoint:P,LO,HI | boundedpareto:P,EPS[,CAP]
    (the cap defaults to 1000).
    """
    text = text.strip().lower()
    name, _, argstr = text.partition(":")
    try:
        args = [float(tok) for tok in argstr.split(",")] if argstr else []
    except ValueError:
        raise ParameterError(f"non-numeric law parameters in {text!r}")
    laws = {cls.__name__.lower(): cls for cls in ConductanceLaw.__subclasses__()}
    if name not in laws:
        raise ParameterError(f"unknown law {name!r} (expected {', '.join(laws)})")
    params = dataclasses.fields(laws[name])
    lo = sum(f.default is dataclasses.MISSING for f in params)
    if not (lo <= len(args) <= len(params)):
        raise ParameterError(f"law {name!r} takes {lo}..{len(params)} parameters, got {len(args)}")
    return laws[name](*args)


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
    """Draw an i.i.d. conductance field from child_rng(seed); deterministic given the seed."""
    omega = law.sample(child_rng(seed), (lattice.d, lattice.n_sites))
    return ConductanceField(lattice, omega, law=law, seed=int(seed))


# ---------------------------------------------------------------------------
# Site classification and cluster diagnostics


@dataclass(frozen=True)
class SiteClassification:
    eta: float
    good: np.ndarray
    bad_fraction: float


def classify_sites(field, eta):
    """Flag each site good when its total jump rate is at most eta, and report the bad fraction."""
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


def _bad_closures(lattice, good, sites):
    """Labels and closures of the bad components that meet sites, in one traversal of lattice.star.

    A component is a connected set of bad sites, its closure the set of its
    members and all their neighbours.  label[x] indexes closures for every
    site of a labelled component and is -1 at every other site.
    """
    star = lattice.star
    label = [-1] * lattice.n_sites
    closures = []
    for s in sites:
        if good[s] or label[s] >= 0:
            continue
        label[s] = len(closures)
        closure, queue = {s}, [s]
        while queue:
            for v in star[queue.pop()].tolist():
                closure.add(v)
                if not good[v] and label[v] < 0:
                    label[v] = label[s]
                    queue.append(v)
        closures.append(closure)
    return label, closures


def _cluster(lattice, label, closures, origin):
    """The origin, its neighbours, and the closures of the labelled bad sites among them."""
    sites = {origin, *lattice.star[origin].tolist()}
    for x in list(sites):
        if label[x] >= 0:
            sites |= closures[label[x]]
    return Cluster(np.array(sorted(sites), dtype=np.int64), saturated=len(sites) == lattice.n_sites,
                   origin=origin)


def bad_cluster(field, eta, origin=0):
    """Sites reachable from origin through paths with all-bad interiors.

    A path's endpoints are unconstrained, so the cluster always contains the
    origin and its 2d neighbours; past a bad neighbour, a path reaches the
    closure of its bad component.  If the cluster grows to the whole torus
    the result is flagged saturated instead of guessing an unwrapped shape.
    """
    lat, origin = field.lattice, int(origin)
    good = classify_sites(field, eta).good
    return _cluster(lat, *_bad_closures(lat, good, [origin, *lat.star[origin].tolist()]), origin)


def w_statistic(field, eta, origin=0):
    """Total size of extended edge neighbourhoods that contain the origin.

    Each edge's vertex set is extended by the closures (members plus outer
    boundary) of the bad components of its bad endpoints; W sums the sizes
    of the extended sets that contain the origin.  All-good fields give
    W = 4d.
    """
    lat = field.lattice
    origin = int(origin)
    good = classify_sites(field, eta).good
    label, closures = _bad_closures(lat, good, [origin, *lat.star[origin].tolist()])
    if _cluster(lat, label, closures, origin).saturated:
        raise SaturationError(
            f"bad cluster at site {origin} covers the whole torus; raise eta or enlarge n"
        )
    # an extended set holds the origin only if its edge touches the origin or a labelled
    # component; it is then that component's closure, or the edge if both ends are good
    sizes = np.array([len(c) for c in closures] + [2])  # label -1: the edge's 2 sites
    label = np.array(label)
    sites = np.union1d(origin, np.flatnonzero(label >= 0))
    total = 0
    for a in range(lat.d):
        # edge (a, u) joins u to u + e_a
        u = np.union1d(sites, lat.star[sites, 2 * a + 1])
        total += int(sizes[np.maximum(label[u], label[lat.star[u, 2 * a]])].sum())
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
