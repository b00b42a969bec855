"""Local functionals of the environment: declaration, evaluation, norms.

Every local functional is a polynomial in the conductances of finitely many
edges around the origin (its stencil).  One `Polynomial` type carries it, and
its values, declared bounds and exact mean are all derived from that one
object.  Spatial translates of one functional across a field produce the site
functions that every operator and spectral routine consumes.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .environment import sample_field
from .errors import AliasingError, DeclarationError, ParameterError
from .util import mean_and_stderr

__all__ = [
    "Polynomial",
    "LocalFunctional",
    "local_drift",
    "centered_edge",
    "contract_example",
    "polynomial_functional",
    "functional_by_name",
    "evaluate_at",
    "evaluate_at_sites",
    "evaluate_all",
    "spatial_sum",
    "box_sum_field",
    "box_sites",
    "total_oscillation",
    "decay_norm",
    "BoxVarianceScan",
    "box_variance_scan",
]


class Polynomial(dict):
    """A polynomial in edge conductances, as a dict from monomial to coefficient.

    A monomial is a tuple of ((offset, axis), power) pairs sorted by edge,
    where (offset, axis) is the edge from offset to offset + e_axis relative
    to the evaluation point; the constant's monomial is ().  Terms keep the
    order in which they first appeared.
    """

    @classmethod
    def edge(cls, offset, axis):
        """The conductance of one edge."""
        return cls({(((tuple(int(c) for c in offset), int(axis)), 1),): 1})

    def __add__(self, other):
        out = Polynomial(self)
        for mono, c in _as_polynomial(other).items():
            out[mono] = out.get(mono, 0) + c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        other = _as_polynomial(other)
        out = Polynomial()
        for ma, ca in self.items():
            for mb, cb in other.items():
                powers = dict(ma)
                for e, k in mb:
                    powers[e] = powers.get(e, 0) + k
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, 0) + ca * cb
        return out

    __rmul__ = __mul__

    def shift(self, offset):
        """The same polynomial read around the point `offset`."""
        def moved(edge):
            off, axis = edge
            return tuple(a + b for a, b in zip(off, offset)), axis

        return Polynomial({tuple((moved(e), k) for e, k in mono): c for mono, c in self.items()})

    def expect(self, moment):
        """Mean under i.i.d. edges whose k-th moment is moment(k)."""
        return math.fsum(c * math.prod(moment(k) for _, k in mono) for mono, c in self.items())


def _as_polynomial(value):
    return value if isinstance(value, Polynomial) else Polynomial({(): value})


class LocalFunctional:
    """A local functional: a polynomial in the conductances of a finite stencil.

    stencil is the sorted tuple of (site offset, axis) edges the polynomial
    reads: each is the edge from offset to offset + e_axis, relative to the
    evaluation point.  evaluator maps the stencil's conductance values,
    stacked on axis 0 in stencil order and vectorized over any trailing
    shape, to the functional values.

    Given the law, the declared norms follow from the polynomial, because
    conductances are >= 1 and so every monomial increases in each of its
    edges: oscillation[k] bounds how much the value can move when stencil
    edge k alone changes over the law's support, sup_bound bounds |f|
    outright, and mean_hint is the exact mean under i.i.d. edges.  Without a
    law all three are None.
    """

    def __init__(self, name, poly, law=None):
        stencil = tuple(sorted({e for mono in poly for e, _ in mono}))
        if not stencil:
            raise ParameterError("polynomial reads no edges; use a constant functional instead")
        self.d = len(stencil[0][0])
        for off, axis in stencil:
            if len(off) != self.d:
                raise ParameterError("all stencil offsets must share one dimension")
            if not 0 <= axis < self.d:
                raise ParameterError(f"stencil axis {axis} out of range for d={self.d}")
        self.name = name
        self.poly = poly
        self.stencil = stencil
        self.oscillation = self.sup_bound = self.mean_hint = None
        if law is not None:
            lo, hi = law.support()
            self.oscillation = tuple(_oscillation(poly, e, lo, hi) for e in stencil)
            self.sup_bound = max(abs(_extreme(poly, hi, lo)), abs(_extreme(poly, lo, hi)))
            self.mean_hint = poly.expect(law.moment)

    def evaluator(self, reads):
        """Functional values from the stencil's conductances stacked on axis 0."""
        index = {e: i for i, e in enumerate(self.stencil)}
        out = np.zeros(reads.shape[1:])
        for mono, c in self.poly.items():
            part = np.full(reads.shape[1:], float(c))
            for e, k in mono:
                part = part * reads[index[e]] ** k
            out += part
        return out

    @property
    def radius(self):
        """Largest coordinate magnitude the stencil touches."""
        r = 0
        for off, axis in self.stencil:
            r = max(r, max(abs(c) for c in off))
            r = max(r, max(abs(c + (1 if i == axis else 0)) for i, c in enumerate(off)))
        return r

    def __repr__(self):
        return f"LocalFunctional({self.name!r}, {len(self.stencil)} edges, d={self.d})"


def _oscillation(poly, edge, lo, hi):
    # moving one edge over [lo, hi] moves c * e^k * rest by at most |c| (hi^k - lo^k) rest
    bound = 0.0
    for mono, c in poly.items():
        powers = dict(mono)
        if edge in powers:
            k = powers.pop(edge)
            bound += abs(c) * (hi**k - lo**k) * math.prod(hi**j for j in powers.values())
    return bound


def _extreme(poly, up, down):
    # every edge at `up` in the positive terms and at `down` in the negative ones
    return math.fsum(
        c * math.prod((up if c > 0 else down) ** k for _, k in mono) for mono, c in poly.items()
    )


def _require_fit(f, lattice, extra=0):
    # the stencil (plus any surrounding box) may not wrap onto itself
    if 2 * (f.radius + extra) >= lattice.n:
        raise AliasingError(
            f"stencil radius {f.radius} plus box {extra} does not fit on a period-{lattice.n} torus"
        )
    if f.d != lattice.d:
        raise ParameterError(f"functional is {f.d}-dimensional, lattice is {lattice.d}-dimensional")


def evaluate_at_sites(f, field, sites):
    """Functional values at an array of evaluation points."""
    lat = field.lattice
    _require_fit(f, lat)
    sites = np.asarray(sites)
    reads = np.empty((len(f.stencil),) + sites.shape)
    for k, (off, axis) in enumerate(f.stencil):
        reads[k] = field.omega[axis][lat.offset_index(sites, off)]
    return f.evaluator(reads)


def evaluate_at(f, field, x):
    """f evaluated on the environment recentered at site x."""
    lat = field.lattice
    if not isinstance(x, (int, np.integer)):
        x = lat.site_index(x)
    return float(evaluate_at_sites(f, field, np.array([int(x)]))[0])


def evaluate_all(f, field):
    """Values of f at every site of the torus, as one array."""
    return evaluate_at_sites(f, field, np.arange(field.lattice.n_sites))


def box_sites(lattice, n_box, center=0):
    """Indices of the box of radius n_box around a center site."""
    if n_box < 0:
        raise ParameterError(f"box radius must be >= 0, got {n_box}")
    grids = np.meshgrid(*[np.arange(-n_box, n_box + 1)] * lattice.d, indexing="ij")
    offsets = np.stack([g.ravel() for g in grids])
    base = lattice.site_coords(center).reshape(lattice.d, 1)
    coords = (base + offsets) % lattice.n
    return np.ravel_multi_index(tuple(coords), lattice.shape)


def spatial_sum(f, field, n_box, center=0):
    """Sum of f over all translates in the box of radius n_box around center."""
    lat = field.lattice
    _require_fit(f, lat, extra=n_box)
    if not isinstance(center, (int, np.integer)):
        center = lat.site_index(center)
    values = evaluate_at_sites(f, field, box_sites(lat, n_box, int(center)))
    return math.fsum(values.tolist())


def box_sum_field(values, lattice, n_box):
    """Box sums of a site array at every center, via separable sliding sums."""
    grid = np.asarray(values, dtype=float).reshape(lattice.shape)
    for axis in range(lattice.d):
        grid = sum(np.roll(grid, -k, axis=axis) for k in range(-n_box, n_box + 1))
    return grid.ravel()


# ---------------------------------------------------------------------------
# Registry


def local_drift(d, law=None):
    """Difference of the two axis-1 edges at the origin: e(0) - e(-e_1)."""
    origin = (0,) * d
    back = (-1,) + (0,) * (d - 1)
    return LocalFunctional("drift", Polynomial.edge(origin, 0) - Polynomial.edge(back, 0), law)


def centered_edge(d, law):
    """The conductance of the origin's forward axis-1 edge, minus its mean."""
    return LocalFunctional("edge", Polynomial.edge((0,) * d, 0) - law.mean(), law)


def contract_example(law=None):
    """The d=1 functional reading edge (-1,0) plus the square of edge (2,3)."""
    far = Polynomial.edge((2,), 0)
    return LocalFunctional("contract-example", Polynomial.edge((-1,), 0) + far * far, law)


_EDGE_FACTOR = re.compile(r"^e\[(?P<off>-?\d+(?:,-?\d+)*);(?P<axis>\d+)\](?:\^(?P<pow>\d+))?$")

# a term starts at every sign outside an edge's brackets and outside a
# number's exponent (1e-3)
_TERM_START = re.compile(r"(?<![\[,eE])(?=[+-])")


def polynomial_functional(expr, d, law=None):
    """Polynomial in stencil edges from a descriptor string.

    Grammar: terms joined by + or -; a term is factors joined by '*'; a factor
    is either a number or e[o1,...,od;axis] optionally raised with ^k, the
    edge from offset (o1,...,od) to offset + e_axis, whose d coordinates may
    be negative.  Example for d=1: "e[0;0] + 2*e[-1;0]^2 - 3.5".
    """
    body = expr.strip()
    if not body:
        raise ParameterError("empty polynomial descriptor")
    poly = Polynomial()
    for chunk in _TERM_START.split(body.replace(" ", "")):
        if not chunk:
            continue
        # a chunk carries at most one sign, since every top-level sign splits
        term = Polynomial({(): -1.0 if chunk[0] == "-" else 1.0})
        chunk = chunk.lstrip("+-")
        if not chunk:
            raise ParameterError(f"dangling sign in polynomial {expr!r}")
        for factor in chunk.split("*"):
            m = _EDGE_FACTOR.match(factor)
            if m:
                off = tuple(int(c) for c in m.group("off").split(","))
                if len(off) != d:
                    raise ParameterError(f"offset {off} has {len(off)} coordinates, expected {d}")
                axis = int(m.group("axis"))
                if axis >= d:
                    raise ParameterError(f"axis {axis} out of range for d={d}")
                for _ in range(int(m.group("pow") or 1)):
                    term = term * Polynomial.edge(off, axis)
            else:
                try:
                    term = term * float(factor)
                except ValueError:
                    raise ParameterError(f"bad factor {factor!r} in polynomial {expr!r}")
        poly = poly + term
    return LocalFunctional(f"poly:{body}", poly, law)


def functional_by_name(name, d, law=None):
    """Look up a functional by its registry name or poly: descriptor."""
    name = name.strip()
    if name == "drift":
        return local_drift(d, law)
    if name == "edge":
        if law is None:
            raise ParameterError("the edge functional needs a law for its centering constant")
        return centered_edge(d, law)
    if name == "contract-example":
        if d != 1:
            raise ParameterError("contract-example is defined for d=1 only")
        return contract_example(law)
    if name.startswith("poly:"):
        return polynomial_functional(name[5:], d, law)
    raise ParameterError(f"unknown functional {name!r} (drift, edge, contract-example, poly:...)")


# ---------------------------------------------------------------------------
# Norms


def total_oscillation(f):
    """Sum of the per-edge oscillation bounds."""
    if f.oscillation is None:
        raise DeclarationError(f"functional {f.name!r} has no declared oscillation bounds")
    return float(sum(f.oscillation))


def decay_norm(f):
    """Squared total oscillation plus squared sup bound.

    This is the variance proxy entering the decay estimates; it needs both
    declared bounds and is infinite (an error here) for unbounded laws.
    """
    if f.sup_bound is None:
        raise DeclarationError(f"functional {f.name!r} has no declared sup bound")
    return total_oscillation(f) ** 2 + f.sup_bound**2


# ---------------------------------------------------------------------------
# Box-variance scan


@dataclass
class BoxVarianceScan:
    """Per-box-size table of E[(box sum)^2]/(box size), with its supremum."""

    ns: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    sup: float
    sup_n: int
    divergent: bool


def box_variance_scan(f, law, lattice, n_max, realizations, seed):
    """Scan E[(S_n f)^2]/|B_n| over n = 0..n_max on fresh i.i.d. fields.

    Each realization contributes the box sums around one fixed center of a
    freshly sampled field, so realizations are exactly independent.  The scan
    is flagged divergent when a nonzero analytic mean is declared or when the
    last three table entries grow by more than three pooled standard errors.
    """
    _require_fit(f, lattice, extra=n_max)
    if realizations < 2:
        raise ParameterError("need at least 2 realizations for standard errors")
    shells = []
    for n in range(n_max + 1):
        box = set(box_sites(lattice, n).tolist())
        inner = set(box_sites(lattice, n - 1).tolist()) if n else set()
        shells.append(np.array(sorted(box - inner)))
    seeds = np.random.SeedSequence(int(seed)).generate_state(realizations, dtype=np.uint64)
    samples = np.empty((realizations, n_max + 1))
    for r in range(realizations):
        field = sample_field(law, lattice, int(seeds[r]))
        g = evaluate_all(f, field)
        acc = 0.0
        for n in range(n_max + 1):
            acc += float(g[shells[n]].sum())
            samples[r, n] = acc * acc
    mean, se = mean_and_stderr(samples, axis=0)
    sizes = np.array([(2 * n + 1) ** lattice.d for n in range(n_max + 1)], dtype=float)
    values = mean / sizes
    stderrs = se / sizes
    sup_n = int(np.argmax(values))
    divergent = f.mean_hint is not None and abs(f.mean_hint) > 0
    if not divergent and n_max >= 2:
        a, b, c = values[-3], values[-2], values[-1]
        pooled = math.sqrt(stderrs[-3] ** 2 + stderrs[-2] ** 2 + stderrs[-1] ** 2)
        divergent = bool(c > b > a and (c - a) > 3 * pooled)
    return BoxVarianceScan(
        ns=np.arange(n_max + 1),
        values=values,
        stderrs=stderrs,
        sup=float(values[sup_n]),
        sup_n=sup_n,
        divergent=divergent,
    )
