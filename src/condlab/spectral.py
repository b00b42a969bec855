"""Projected spectral measures of the walk generator and their functionals.

On a finite torus the spectral measure of -L projected on a site function is
purely atomic, so variances, resolvent moments, and effective-diffusivity
error terms are all finite sums over (eigenvalue, weight) atoms.  Dense
diagonalization (spectral_measure) is the exact oracle, capped at
DENSE_LIMIT sites.  At any size, torus_measures gives the fields of one
torus their measures with certificates: the simple walk's exact by Fourier
transform, the conductance walk's by Lanczos quadrature.  The latter is the
only approximation: a Gauss rule, certified at the requested times by a
Gauss-Radau bracket of relative width at most QUADRATURE_RTOL, with an
allowance for rounding in the recurrence reported beside it.  The fields
run their quadratures in lockstep (_quadrature_group): one sparse product
per Lanczos step for the whole group, and one batched eigendecomposition
per rule for the fields due for a bracket check, with each field's result
bit for bit what it gets alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonergodicError, ParameterError, SolverError
from .operators import ZERO_EIGENVALUE, _lanczos, build_generator

__all__ = [
    "SpectralMeasure",
    "spectral_measure",
    "QUADRATURE_RTOL",
    "Quadrature",
    "torus_measures",
    "PowerLawFit",
    "DecayCurve",
    "variance_curve",
    "spectral_tail",
    "asymptotic_variance",
    "finite_time_deficit",
    "additive_variance",
    "corrector_error_term",
    "resolvent_second_moment",
    "DiffusivityEstimates",
    "diffusivity_estimators",
    "synthetic_power_measure",
    "load_measure_csv",
    "TailDecayAgreement",
    "tail_decay_agreement",
]

ZERO_WEIGHT = 1e-10


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic measure (eigenvalue, weight) pairs, eigenvalues ascending."""

    lambdas: np.ndarray
    weights: np.ndarray
    removed_mean: float = 0.0

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lam.shape != w.shape or lam.ndim != 1:
            raise ParameterError("eigenvalues and weights must be matching 1-d arrays")
        if np.any(np.diff(lam) < 0):
            raise ParameterError("eigenvalues must be sorted ascending")
        if np.any(lam < 0) or np.any(w < 0):
            raise ParameterError("eigenvalues and weights must be >= 0")
        lam.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def zero_mass(self):
        """Weight carried by atoms at (numerically) zero eigenvalue."""
        return float(self.weights[self.lambdas < ZERO_EIGENVALUE].sum())


def spectral_measure(op, g, center=True):
    """Measure representing g in the eigenbasis of -L.

    Weights are squared eigenprojections divided by the site count, so the
    total mass is the site-averaged squared norm of g.  The site mean is
    subtracted first unless center=False; the removed mean is reported on
    the result.
    """
    v = np.array(g, dtype=float)
    mean = float(v.mean())
    if center:
        v -= mean
    lam, vec = op.eigensystem()
    w = (vec.T @ v) ** 2 / op.lattice.n_sites
    return SpectralMeasure(lam, w, removed_mean=mean if center else 0.0)


def _fourier_measure(lattice, g):
    """Exact measure of g under the rate-1 (simple) walk, by FFT.

    Plane waves diagonalize the simple-walk generator: the atom of wave k
    sits at 2 sum_i (1 - cos 2 pi k_i / n) with weight |fft(g)(k)|^2 / N^2,
    so the total mass is mean(g^2), as for spectral_measure(center=False).
    Atoms are sorted stably by eigenvalue.
    """
    n = lattice.n
    v = np.asarray(g, dtype=float)
    if v.shape != (lattice.n_sites,):
        raise ParameterError(f"function has {v.shape} values for {lattice.n_sites} sites")
    w = np.abs(np.fft.fftn(lattice.grid(v))) ** 2 / lattice.n_sites**2
    # wave k's eigenvalue on the same grid: frequency k_a runs along axis a
    ring = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = np.zeros(w.shape)
    for part in np.ix_(*[ring] * lattice.d):
        lam += part
    order = np.argsort(lam, axis=None, kind="stable")
    return SpectralMeasure(lam.ravel()[order], w.ravel()[order])


# relative width of the Gauss/Gauss-Radau bracket that certifies a quadrature measure
QUADRATURE_RTOL = 1e-10
# Lanczos steps after which an open bracket is an error; a cap on work only,
# since the recurrence holds two vectors per field whatever the number of steps
QUADRATURE_MAX_STEPS = 1000
# most rows (fields x sites) in one lockstep group of quadratures, unless a
# field alone has more: a few 256 KB vectors and a d=3 block matrix of 2.7 MB
_QUADRATURE_ROWS = 1 << 15


class Quadrature(NamedTuple):
    """A measure with its certificate; an exact one has width 0 and 0 steps."""

    measure: SpectralMeasure
    width: float  # max relative width of the bracket over the requested times
    steps: int  # Lanczos steps taken
    rounding: float  # rounding allowance, as a fraction of the mass of g - mean(g)
    checks: int  # bracket evaluations


def torus_measures(fields, kind, gs, times):
    """Quadrature of gs[i] under -L of the kind's walk on fields[i], certified at the times.

    The fields share a torus; each measure has total mass mean(g^2), as for
    spectral_measure(center=False).  The simple walk's is exact by FFT, with
    width 0 and 0 steps, and builds no generator; the conductance walk's
    comes from _quadrature_group.  times must be nonempty, finite and >= 0.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ParameterError("times must not be empty")
    if not np.all((t >= 0) & (t < np.inf)):
        raise ParameterError("times must be finite and >= 0")
    if kind == "simple":
        return [Quadrature(_fourier_measure(fields[0].lattice, g), 0.0, 0, 0.0, 0) for g in gs]
    return _quadrature_group([build_generator(field, kind) for field in fields], gs, t)


def _gauss_radau(alphas, betas, times):
    """Gauss and Gauss-Radau rules after k Lanczos steps of each row, for unit mass.

    alphas and betas hold one row per recurrence, as yielded by the Lanczos
    recurrence (betas[:, -1] couples to the next vector).  Returns per row
    the Gauss nodes and weights, and the values of both rules for
    e^{-2 lambda t} at the times: the Gauss rule from below, the Radau rule
    with a node fixed at 0 from above.  Each row's Jacobi matrix, bordered
    by one row and column for the Radau rule, is diagonalized by one batched
    eigh per rule, which does for each row what it would do alone.
    """
    m, k = alphas.shape
    jacobi = np.zeros((m, k + 1, k + 1))
    flat = jacobi.reshape(m, -1)
    flat[:, : k * (k + 2) : k + 2] = alphas
    flat[:, 1 :: k + 2] = betas
    flat[:, k + 1 :: k + 2] = betas
    nodes, vecs = np.linalg.eigh(jacobi[:, :k, :k])
    if np.any(nodes[:, 0] <= 0.0):
        raise SolverError(f"Jacobi matrix lost positivity after {k} Lanczos steps")
    # border the Jacobi matrix so that 0 becomes an eigenvalue
    flat[:, -1] = betas[:, -1] ** 2 * np.sum(vecs[:, -1] ** 2 / nodes, axis=1)
    radau_nodes, radau_vecs = np.linalg.eigh(jacobi)
    weights = vecs[:, 0] ** 2
    t = np.asarray(times, dtype=float)[:, None]
    lower = np.exp(-2.0 * (t * nodes[:, None])) @ weights[:, :, None]
    upper = np.exp(-2.0 * (t * np.maximum(radau_nodes, 0.0)[:, None])) @ radau_vecs[:, 0, :, None] ** 2
    return nodes, weights, lower[:, :, 0], upper[:, :, 0]


def _quadrature_group(ops, gs, times):
    """Measure of gs[i] under ops[i] for every i from Lanczos quadrature, certified at the times.

    The constant part of g is exact: an atom of weight mean(g)^2 at 0.  The
    rest starts a plain Lanczos recurrence, whose Jacobi matrix gives the
    Gauss rule: Ritz values as atoms, squared first eigenvector components
    (times the mass) as weights.  Because e^{-2 lambda t} is completely
    monotone, that rule undershoots the curve sum_i w_i e^{-2 lambda_i t}
    while the Gauss-Radau rule with a node fixed at 0 <= spec(-L) overshoots
    it.  Both are evaluated at all times at step 10, then at steps that
    each field's own widths choose.  After a check at step k whose width
    fell since the field's previous check, the next one goes where the line
    through log(width) at those two checks reaches QUADRATURE_RTOL, but 10
    to max(10, k // 2) steps on; after any other check it goes
    max(10, k // 2) steps on, and also at steps n_sites - 1 and
    QUADRATURE_MAX_STEPS.  The widths contract faster than that line, so it
    places a check at or just after the close: 235-460 steps took 9-11
    checks where every 10 steps would take 23-46.  Each check diagonalizes
    two Jacobi matrices in O(k^3); `checks` counts them.  The recurrence
    stops once the bracket's relative width is at most QUADRATURE_RTOL; at
    breakdown the rule is exact and the width is 0.  Still open at step
    n_sites - 1, the recurrence has lost orthogonality on a small torus, and
    the field gets its dense measure, spectral_measure(center=False), with
    width 0; still open after QUADRATURE_MAX_STEPS steps, it raises
    SolverError, so no uncertified measure is returned.  The operators must
    be connected (all weights positive).

    The ops share a lattice, and the recurrences run in lockstep.  Each
    Lanczos step is one product with their block-diagonal matrix, and the
    fields due for a bracket check are certified together by _gauss_radau;
    a field leaves the group when its bracket closes.  Every row's
    arithmetic is what it would be alone, and each field's checks are
    scheduled from its own bracket widths, so each Quadrature is bit for bit
    that of its group of one.

    The recurrence is not reorthogonalized, so in floating point its vectors
    lose orthogonality once Ritz values converge, and copies of converged
    Ritz values appear.  The bracket still holds for a nearby measure: after
    k steps the computed Jacobi matrix is the exact Jacobi matrix, hence
    gives the exact Gauss and Radau rules, of a measure of the same mass
    whose nodes lie within delta ~ k eps |L| of the eigenvalues of -L, with
    |L| <= 2 max_rate (Greenbaum, Linear Algebra Appl. 1989; Golub and
    Meurant, Matrices, Moments and Quadrature, 2010).  Copies split a node's
    weight and create none.  Moving a node by delta moves e^{-2 lambda t} by
    at most 2 t delta, so the curve of that measure lies within 2 t delta
    mass of the true one, mass being mean((g - mean g)^2).  `rounding`
    reports this allowance at the latest time as a fraction of that mass,
    2 max(t) delta with delta = k eps 2 max_rate, beside `width`: each curve
    value is certified to width times itself plus rounding times the mass.
    It is an a priori bound, far looser than the deviation seen against the
    dense oracle, so it neither widens the bracket nor decides when it has
    closed.
    """
    t = np.asarray(times, dtype=float)
    v = np.array(gs, dtype=float)
    n = v.shape[1]
    mean = v.mean(axis=1)
    zero = mean * mean
    v -= mean[:, None]
    mass = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0] / n
    out = [Quadrature(SpectralMeasure(np.zeros(1), np.array([z])), 0.0, 0, 0.0, 0)
           for z in zero]
    live = np.flatnonzero(mass != 0.0)
    if not live.size:
        return out
    checks = np.zeros(len(out), dtype=int)
    # each field's schedule: its next check, and the step and log width of its last
    next_check = np.full(len(out), 10)
    last_k = np.zeros(len(out), dtype=int)
    last_log_width = np.full(len(out), np.nan)
    recurrence = _lanczos([ops[i] for i in live], v[live])
    alphas, betas, exact = next(recurrence)
    while True:
        k = alphas.shape[1]
        # also at k = n_sites - 1, where the rule would be exact without rounding
        due = exact | (next_check[live] == k) | (k in (n - 1, QUADRATURE_MAX_STEPS))
        keep = None
        if due.any():
            rows = np.flatnonzero(due)
            fields = live[rows]
            checks[fields] += 1
            nodes, weights, lower, upper = _gauss_radau(alphas[rows], betas[rows], t)
            lower = zero[fields, None] + mass[fields, None] * lower
            upper = zero[fields, None] + mass[fields, None] * upper
            width = np.max(np.abs(upper - lower) / np.maximum(upper, np.finfo(float).tiny), axis=1)
            width[exact[rows]] = 0.0
            closed = (width <= QUADRATURE_RTOL) | (k == n - 1)
            if k >= QUADRATURE_MAX_STEPS and not closed.all():
                raise SolverError(
                    f"quadrature bracket still {width[~closed].max():.3e} wide after {k} Lanczos "
                    f"steps (target {QUADRATURE_RTOL:g})"
                )
            # an open field checks next where the line through its last two
            # log widths meets the tolerance, 10 to max(10, k // 2) steps on;
            # the widths contract superlinearly, so the line lands at or
            # after the close.  A width that has not fallen waits the longest.
            opened = fields[~closed]
            log_width = np.log(width[~closed])
            gain = last_log_width[opened] - log_width  # nan at a first check
            fallen = gain > 0
            latest = max(10, k // 2)
            ahead = np.full(opened.size, float(latest))
            ahead[fallen] = ((log_width[fallen] - math.log(QUADRATURE_RTOL))
                             * (k - last_k[opened[fallen]]) / gain[fallen])
            next_check[opened] = k + np.ceil(np.clip(ahead, 10, latest)).astype(int)
            last_k[opened], last_log_width[opened] = k, log_width
            for i in np.flatnonzero(closed):
                field = fields[i]
                delta = k * np.finfo(float).eps * 2.0 * ops[field].max_rate
                measure = SpectralMeasure(np.concatenate(([0.0], nodes[i])),
                                          np.concatenate(([zero[field]], mass[field] * weights[i])))
                if width[i] > QUADRATURE_RTOL:  # open at step n_sites - 1
                    measure, width[i] = spectral_measure(ops[field], gs[field], center=False), 0.0
                out[field] = Quadrature(measure, float(width[i]), k, float(2.0 * t.max() * delta),
                                        int(checks[field]))
            keep = np.ones(live.size, dtype=bool)
            keep[rows[closed]] = False
            live = live[keep]
        if not live.size:
            return out
        alphas, betas, exact = recurrence.send(keep)


def _positive_atoms(m):
    """Split off zero atoms; error if they carry real weight."""
    mask = m.lambdas >= ZERO_EIGENVALUE
    dropped = float(m.weights[~mask].sum())
    if dropped > ZERO_WEIGHT:
        raise NonergodicError(
            f"measure carries weight {dropped:.3e} at eigenvalue 0; center the function first"
        )
    return m.lambdas[mask], m.weights[mask]


@dataclass
class PowerLawFit:
    exponent: float
    intercept: float
    window: tuple
    residual: float
    ci_low: float = math.nan
    ci_high: float = math.nan
    curvature: float = 0.0
    curved: bool = False


@dataclass
class DecayCurve:
    """Sampled values of a decaying time curve, with their stderrs."""

    times: np.ndarray
    values: np.ndarray
    stderrs: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.stderrs is None:
            self.stderrs = np.zeros_like(self.values)
        else:
            self.stderrs = np.asarray(self.stderrs, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("curve times must be strictly increasing")
        if np.any(self.values < 0):
            raise ParameterError("curve values must be >= 0")


def variance_curve(m, times):
    """Exact variance decay sum_i w_i e^{-2 lambda_i t} at the given times."""
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ParameterError("times must be finite and >= 0")
    vals = np.exp(-2.0 * np.outer(t, m.lambdas)) @ m.weights
    return DecayCurve(t, np.maximum(vals, 0.0), label="variance")


def spectral_tail(m, delta):
    """Mass of 1/lambda below the cutoff: sum of w/lambda over lambda <= delta."""
    lam, w = _positive_atoms(m)
    mask = lam <= delta
    return float(np.sum(w[mask] / lam[mask]))


def asymptotic_variance(m):
    """Long-run variance rate 2 sum w/lambda of the stationary additive functional."""
    lam, w = _positive_atoms(m)
    return 2.0 * float(np.sum(w / lam))


def finite_time_deficit(m, t):
    """How far the time-t additive variance lags its asymptote, per unit time.

    Equals 2 sum w (1 - e^{-lambda t}) / (lambda^2 t); nonnegative, at most
    the asymptotic variance, and vanishing as t grows.
    """
    if t <= 0:
        raise ParameterError(f"time must be > 0, got {t}")
    lam, w = _positive_atoms(m)
    return 2.0 * float(np.sum(w * (-np.expm1(-lam * t)) / (lam * lam * t)))


def additive_variance(m, t):
    """Variance of the integral of the observable along the environment path.

    The atom integrand 2(e^{-lambda t} - 1 + lambda t)/lambda^2 stays bounded
    as lambda -> 0 (limit t^2), so zero atoms contribute w t^2 and no
    ergodicity guard is needed.
    """
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    lam = m.lambdas
    w = m.weights
    zero = lam < ZERO_EIGENVALUE
    out = float(np.sum(w[zero])) * t * t
    lp, wp = lam[~zero], w[~zero]
    if lp.size:
        x = lp * t
        out += 2.0 * float(np.sum(wp * (np.expm1(-x) + x) / (lp * lp)))
    return out


def corrector_error_term(m, k, mu):
    """Signed resolvent-approximation error sum w (mu^2 + (2-k) lambda mu) / (lambda (lambda+mu)^2)."""
    if mu <= 0:
        raise ParameterError(f"mu must be > 0, got {mu}")
    lam, w = _positive_atoms(m)
    num = mu * mu + (2.0 - k) * lam * mu
    return float(np.sum(w * num / (lam * (lam + mu) ** 2)))


def resolvent_second_moment(m, mu):
    """Mean square of the resolvent image: sum w/(lambda+mu)^2."""
    if mu <= 0:
        raise ParameterError(f"mu must be > 0, got {mu}")
    return float(np.sum(m.weights / (m.lambdas + mu) ** 2))


# ---------------------------------------------------------------------------
# Effective-diffusivity estimators


@dataclass(frozen=True)
class DiffusivityEstimates:
    """The three algebraically chained estimates of half the diffusivity."""

    a0: float
    a1: float
    a2: float
    phi_second_moment: float
    energy: float
    edge_mean: float

    def chain_residuals(self, mu):
        """Relative defects of a0 = a1 + mu E[phi^2] = a2 + 2 mu E[phi^2]."""
        scale = max(abs(self.a0), 1e-300)
        r1 = abs(self.a0 - self.a1 - mu * self.phi_second_moment) / scale
        r2 = abs(self.a0 - self.a2 - 2.0 * mu * self.phi_second_moment) / scale
        return r1, r2


def diffusivity_estimators(field, phi):
    """Evaluate the three diffusivity estimators at a trial corrector phi.

    All expectations are site averages over the torus; axis 0 plays the role
    of the distinguished direction.  With grad = B phi the edge increments,
    a0 = E[w_0] - energy, a1 = E[w_0 (1 + grad_0)], and a2 = E[w_0 (1 +
    grad_0)^2] + E[w_a grad_a^2] over the other axes, which expands to
    E[w_0] + 2 E[w_0 grad_0] + energy.  A (shifts, sites) stack of correctors
    gives a list with one estimate per row, from one gradient of the stack.
    """
    lat = field.lattice
    v = np.asarray(phi, dtype=float)
    n = lat.n_sites
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise ParameterError(f"corrector has {v.shape} values for {n} sites")
    grads = lat.gradient(v)
    w0 = field.omega[0]
    weights = field.omega.ravel()
    edge_mean = float(w0.mean())
    estimates = []
    for row, grad in zip(np.atleast_2d(v), np.atleast_2d(grads)):
        energy = float(np.dot(weights, grad * grad)) / n
        drift = float(np.dot(w0, grad[:n])) / n
        phi_sq = float(np.dot(row, row)) / n
        a0 = edge_mean - energy
        a1 = edge_mean + drift
        a2 = edge_mean + 2.0 * drift + energy
        estimates.append(DiffusivityEstimates(a0, a1, a2, phi_sq, energy, edge_mean))
    return estimates if v.ndim == 2 else estimates[0]


# ---------------------------------------------------------------------------
# Synthetic measures and fixtures


def synthetic_power_measure(alpha, atoms=10000, lo=1e-6, hi=1.0):
    """Discretize the density lambda^(alpha-1) d lambda on [lo, hi].

    Atoms sit at geometric midpoints and carry the exact bin integrals, so
    tail sums converge to their closed forms as the atom count grows.
    """
    if alpha <= 0:
        raise ParameterError(f"density exponent must be > 0, got {alpha}")
    if not (0 < lo < hi):
        raise ParameterError("need 0 < lo < hi")
    edges = lo * (hi / lo) ** (np.arange(atoms + 1) / atoms)
    lam = np.sqrt(edges[:-1] * edges[1:])
    w = (edges[1:] ** alpha - edges[:-1] ** alpha) / alpha
    return SpectralMeasure(lam, w)


_MEASURE_MAGIC = "# condlab-csv v1 measure"


def load_measure_csv(path):
    """Read the measure.csv of `condlab spectrum --functional`, whose cells are exact float reprs."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MEASURE_MAGIC:
        raise ParameterError(f"{path}: not a condlab measure file")
    if lines[1] != "lambda,weight":
        raise ParameterError(f"{path}: unexpected measure header {lines[1]!r}")
    rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[2:]]
    rows.sort()
    lam = np.array([r[0] for r in rows])
    w = np.array([r[1] for r in rows])
    return SpectralMeasure(lam, w)


# ---------------------------------------------------------------------------
# Decay/tail equivalence


@dataclass
class TailDecayAgreement:
    """Grid verdicts for the decay-exponent / tail-exponent equivalence."""

    alpha: float
    times: np.ndarray
    time_stat: np.ndarray
    deltas: np.ndarray
    tail_stat: np.ndarray
    time_divergent: bool
    tail_divergent: bool
    agree: bool
    forward_bound_ok: bool
    reverse_bound_ok: bool


def _grid_divergent(stat):
    # grows-at-scale test: divergent when the overall peak dwarfs the peak
    # over the first half of the grid
    stat = np.asarray(stat, dtype=float)
    if np.any(np.isinf(stat)):
        return True
    ref = float(np.max(stat[: max(3, len(stat) // 2)]))
    peak = float(np.max(stat))
    if ref <= 0.0:
        return peak > 0.0
    return peak > 4.0 * ref


def tail_decay_agreement(m, alpha, max_exp=20):
    """Check that the variance-decay and tail-mass views of an exponent agree.

    Computes t^alpha var(t) over t = 2^0..2^max_exp and delta^(1-alpha)
    tail(delta) over delta = 2^0..2^-max_exp, classifies each side as bounded
    or divergent on its grid, and also asserts the two-sided quantitative
    bounds connecting them: dyadic-block domination of the variance by tail
    values, and the atomwise e^2-smoothing bound of the tail by the exact
    integrated variance sum w e^{-2 lambda/delta}/lambda.
    """
    if alpha <= 1:
        raise ParameterError(f"equivalence exponent must be > 1, got {alpha}")
    times = 2.0 ** np.arange(0, max_exp + 1)
    deltas = 2.0 ** -np.arange(0, max_exp + 1)

    zero_w = m.zero_mass()
    has_zero = zero_w > ZERO_WEIGHT
    pos = m.lambdas >= ZERO_EIGENVALUE
    lam, w = m.lambdas[pos], m.weights[pos]
    # both statistics use the measure modulo its null part; sub-threshold
    # zero weight is centering residue and would fake t^alpha growth
    base = zero_w if has_zero else 0.0
    time_stat = np.array(
        [t**alpha * (float(w @ np.exp(-2.0 * lam * t)) + base) for t in times]
    )
    if has_zero:
        tail_stat = np.full_like(deltas, np.inf)
    else:
        tail_stat = np.array([d ** (1.0 - alpha) * spectral_tail(m, d) for d in deltas])

    # genuine mass at 0 makes sup t^alpha var(t) infinite outright
    time_div = has_zero or _grid_divergent(time_stat)
    tail_div = has_zero or _grid_divergent(tail_stat)

    forward_ok = reverse_ok = True
    if not has_zero and lam.size:
        lam_max = float(lam[-1])
        for t, stat in zip(times, time_stat):
            # dyadic lambda blocks: each block (a, 2a] contributes at most
            # e^{-2at} * 2a * tail(2a), and lambda <= 1/t contributes tail(1/t)/t
            rhs = spectral_tail(m, 1.0 / t)
            j = 0
            while True:
                a = 2.0**j / t
                rhs += math.exp(-2.0 * a * t) * 2.0 * a * t * spectral_tail(m, min(2.0 * a, lam_max))
                if 2.0 * a >= lam_max or j > 80:
                    break
                j += 1
            if stat > t ** (alpha - 1.0) * rhs * (1 + 1e-9) + 1e-300:
                forward_ok = False
        for d in deltas:
            lhs = spectral_tail(m, d)
            rhs = math.e**2 * float(np.sum(w * np.exp(-2.0 * lam / d) / lam))
            if lhs > rhs * (1 + 1e-9) + 1e-300:
                reverse_ok = False
    return TailDecayAgreement(
        alpha=alpha,
        times=times,
        time_stat=time_stat,
        deltas=deltas,
        tail_stat=tail_stat,
        time_divergent=time_div,
        tail_divergent=tail_div,
        agree=time_div == tail_div,
        forward_bound_ok=forward_ok,
        reverse_bound_ok=reverse_ok,
    )
