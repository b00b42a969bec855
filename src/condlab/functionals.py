"""Local functionals of the environment: declaration, evaluation, box sums.

Every local functional is a polynomial in the conductances of finitely many
edges around the origin (its stencil).  One `Polynomial` type carries it, and
its stencil, values and exact mean are all derived from that one object.
Spatial translates of one functional across a field produce the site
functions that every operator and spectral routine consumes.
"""

import math
import re

import numpy as np

from .errors import AliasingError, ParameterError

__all__ = [
    "Polynomial",
    "LocalFunctional",
    "local_drift",
    "centered_edge",
    "contract_example",
    "polynomial_functional",
    "functional_by_name",
    "evaluate_all",
    "box_sum_field",
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

    Given the law, mean_hint is the exact mean under i.i.d. edges; without a
    law it is None.
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
        self.mean_hint = None if law is None else poly.expect(law.moment)

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


def evaluate_all(f, field):
    """Values of f at every site of the torus, as one array.

    Each stencil edge is read as the field's conductances rolled by its
    offset, so no site index table is built.
    """
    lat = field.lattice
    if 2 * f.radius >= lat.n:
        raise AliasingError(f"stencil radius {f.radius} does not fit on a period-{lat.n} torus")
    if f.d != lat.d:
        raise ParameterError(f"functional is {f.d}-dimensional, lattice is {lat.d}-dimensional")
    reads = np.empty((len(f.stencil), lat.n_sites))
    for k, (off, axis) in enumerate(f.stencil):
        reads[k] = lat.shifted(field.omega[axis], off)
    return f.evaluator(reads)


def box_sum_field(values, lattice, n_box):
    """Box sums of a site array at every center, via separable sliding sums."""
    v = np.asarray(values, dtype=float)
    for unit in np.eye(lattice.d, dtype=int):
        v = sum(lattice.shifted(v, k * unit) for k in range(-n_box, n_box + 1))
    return v


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
    """Look up a functional by its registry name or poly: descriptor; a LocalFunctional is returned as it is."""
    if isinstance(name, LocalFunctional):
        return name
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

