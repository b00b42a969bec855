"""Finite-torus linear algebra for the walk generators.

The generator acts on site functions g(x); symmetry of the conductances makes
it self-adjoint for the uniform measure on sites, so everything downstream
(semigroups, resolvents, spectral measures) reduces to symmetric linear
algebra on n^d points.
"""

import math
from functools import cached_property

import numpy as np

from .errors import BackendError, ParameterError, SolverError

__all__ = [
    "DENSE_LIMIT",
    "TorusOperator",
    "build_generator",
    "simple_generator",
    "semigroup_apply",
    "resolvent_solve",
    "dirichlet_form",
    "box_spectral_gap",
    "sobolev_constant",
]

# largest site count for which a full eigendecomposition is attempted
DENSE_LIMIT = 4096
# eigenvalues of -L below this are the kernel's, snapped to exactly 0
ZERO_EIGENVALUE = 1e-12


class TorusOperator:
    """Walk generator L on one torus, kept as its entries in the lattice's CSR layout.

    weights are the walk's edge weights: a field's conductances or, for the
    simple walk, all ones.  Off-diagonal entries are the edge weights and
    the diagonal is -rates, so rows sum to zero and -L is positive
    semidefinite with the constants as its kernel.  The entries are written
    per field (`Lattice.generator_entries`) in the order of the lattice's one
    index table, `Lattice.generator_pattern`: row x holds the diagonal, then
    the edges to x + e_0, x - e_0, x + e_1, ... in star order, unsorted by
    column.  The scipy matrix over them (`matrix`) is built only when a
    sparse product asks for it.
    """

    def __init__(self, lattice, weights):
        self.lattice = lattice
        weights = np.asarray(weights, dtype=float)
        weights.setflags(write=False)
        self.weights = weights
        # L = -B^T diag(w) B: the weight of the edge joining x and y off the
        # diagonal, and -rates, summed in star order, on it
        self._indptr, self._indices = lattice.generator_pattern
        self._data = lattice.generator_entries(weights)
        self.rates = -self._data[self._indptr[:-1]]
        self.max_rate = float(self.rates.max())
        self._eig = None

    @cached_property
    def matrix(self):
        """L as a CSR matrix over the lattice's generator_pattern, built on first use."""
        # imported here: scipy.sparse is about half of `import condlab.cli`, and
        # only the sparse products (CG, Lanczos) need it
        import scipy.sparse as sp

        n = self.lattice.n_sites
        return sp.csr_matrix((self._data, self._indices, self._indptr), shape=(n, n))

    def eigensystem(self):
        """Full eigendecomposition of -L: ascending eigenvalues, orthonormal columns.

        Eigenvalues below ZERO_EIGENVALUE are snapped to exactly 0 so
        downstream code can treat the kernel as a clean atom.
        """
        if self._eig is None:
            n = self.lattice.n_sites
            if n > DENSE_LIMIT:
                raise BackendError(f"dense backend capped at {DENSE_LIMIT} sites, operator has {n}")
            # the pattern has no duplicate entries, so this is -matrix.toarray()
            # bit for bit, down to the -0.0 off the pattern
            rows = np.repeat(np.arange(n), self._indices.size // n)
            dense = np.full((n, n), -0.0)
            dense[rows, self._indices] = -self._data
            lam, vec = np.linalg.eigh(dense)
            lam = np.where(lam < ZERO_EIGENVALUE, 0.0, lam)
            self._eig = (lam, vec)
        return self._eig

    def __repr__(self):
        return f"TorusOperator({self.lattice!r})"


# walk kind -> its edge weights on a field: the one declaration of the walk kinds
_WALK_WEIGHTS = {"conductance": lambda field: field.omega, "simple": lambda field: field.lattice.unit_weights}


def _walk_weights(field, kind):
    """Edge weights of the kind's walk on the field: its conductances, or all ones."""
    if kind not in _WALK_WEIGHTS:
        raise ParameterError(f"kind must be {' or '.join(map(repr, _WALK_WEIGHTS))}, got {kind!r}")
    return _WALK_WEIGHTS[kind](field)


def build_generator(field, kind="conductance"):
    """Generator of the conductance walk, or of the simple walk on its torus."""
    return TorusOperator(field.lattice, _walk_weights(field, kind))


def simple_generator(lattice):
    """Rate-1 walk generator; needs no field."""
    return TorusOperator(lattice, lattice.unit_weights)


def semigroup_apply(op, g, t):
    """Apply e^{tL} to the site array g, for a finite t >= 0.

    Dense only: the eigendecomposition raises BackendError beyond
    DENSE_LIMIT sites, as for every other eigensystem user.  The mean of g
    is preserved.
    """
    if not 0 <= t < math.inf:
        raise ParameterError(f"time must be finite and >= 0, got {t}")
    v = np.asarray(g, dtype=float)
    lam, vec = op.eigensystem()
    return vec @ (np.exp(-lam * t) * (vec.T @ v))


def _block_matrix(ops):
    """L of every op, in order, as the blocks of one block-diagonal CSR matrix.

    The ops share a lattice; the blocks repeat its generator_pattern with
    each op's entries.  One op is its own matrix.
    """
    if len(ops) == 1:
        return ops[0].matrix
    import scipy.sparse as sp

    indptr, indices = ops[0]._indptr, ops[0]._indices
    n, nnz, m = ops[0].lattice.n_sites, indices.size, len(ops)
    shift = np.arange(m, dtype=np.int32 if m * nnz < 2**31 else np.int64)[:, None]
    indptr = np.append((indptr[:-1] + nnz * shift).ravel(), m * nnz)
    data = np.concatenate([op._data for op in ops])
    return sp.csr_matrix((data, (indices + n * shift).ravel(), indptr), shape=(m * n, m * n))


def _lanczos(ops, vs):
    """Plain Lanczos recurrences for the -L of every op, started at the rows of vs, in lockstep.

    Each row of vs must have site mean 0.  Each step is one product with the
    block-diagonal matrix of the ops and the three-term recurrence, row by
    row: one BLAS dot per row, so a row's arithmetic is what it would be
    alone.  The new vectors are re-centered, so the constants (the kernel
    of -L on a connected torus) never re-enter through rounding, but they
    are not reorthogonalized against earlier vectors.  Only the current and
    previous vectors are kept, so memory is a few site arrays per row
    whatever the number of steps.

    After step k this yields (alphas, betas, exact) for the rows still
    running: their k diagonal entries of the Jacobi matrix, their k residual
    norms (the first k-1 are its off-diagonal, the last couples it to the
    next vector), and whether each has ended.  A row ends only at
    breakdown, where its Jacobi matrix carries the projected spectrum of its
    start exactly.  Without orthogonality the Krylov space is not known to
    fill the torus, so any other stop is the caller's: it may send a mask of
    the rows to keep, and rows that have ended are dropped either way.
    """
    ops = list(ops)
    # a residual this small against the Gershgorin bound on |L| is rounding
    breakdown = np.array([1e-12 * 2.0 * op.max_rate for op in ops])
    n = vs.shape[1]
    q = vs / np.sqrt(np.matmul(vs[:, None, :], vs[:, :, None]))[:, 0]
    q_prev = None
    matrix = _block_matrix(ops)
    alphas = np.empty((len(ops), 16))
    betas = np.empty_like(alphas)
    k = 0
    while True:
        if k == alphas.shape[1]:
            alphas = np.concatenate((alphas, np.empty_like(alphas)), axis=1)
            betas = np.concatenate((betas, np.empty_like(betas)), axis=1)
        w = matrix @ q.ravel()
        w = np.negative(w, out=w).reshape(q.shape)
        if q_prev is None:
            scratch = np.empty_like(q)
        else:
            # the previous vectors are spent once subtracted, so they hold the products
            scratch = q_prev
            w -= np.multiply(betas[:, k - 1, None], q_prev, out=scratch)
        alpha = np.matmul(q[:, None, :], w[:, :, None])[:, 0, 0]
        w -= np.multiply(alpha[:, None], q, out=scratch)
        # the row means, as w.mean() takes them
        w -= (np.add.reduce(w, axis=1) / n)[:, None]
        beta = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
        alphas[:, k], betas[:, k] = alpha, beta
        k += 1
        exact = beta <= breakdown
        keep = yield alphas[:, :k], betas[:, :k], exact
        keep = ~exact if keep is None else keep & ~exact
        if not keep.all():
            if not keep.any():
                return
            ops = [op for op, kept in zip(ops, keep) if kept]
            matrix = _block_matrix(ops)
            breakdown, alphas, betas = breakdown[keep], alphas[keep], betas[keep]
            q, w, beta = q[keep], w[keep], beta[keep]
        w /= beta[:, None]
        q_prev, q = q, w


# seed residuals held between two folds into the shifts' iterates and directions
_CG_BLOCK = 16
# columns per tile of a fold, so its temporaries stay a few rows this wide
_FOLD_COLUMNS = 4096


def _multishift_cg(op, b, shifts, tol, maxiter):
    """Conjugate gradients on (shifts[-1] I - L) x = b, carrying every shift along.

    shifts must be descending.  All shifted systems share the Krylov space
    of -L started at b, so shift i's residual is zeta_i times the seed's and
    its iterate and search direction follow from the seed's residual through
    scalar recurrences (Jegerlehner, hep-lat/9612014).  |zeta_i| falls as the
    shift grows, so shifts retire from the front once |zeta_i| |r| <= tol and
    the active rows stay one contiguous slice.  Returns the iterates, one row
    per shift, and the number of steps taken.

    Only the seed's direction is updated at every step.  Each shift, the
    seed included, holds its iterate and direction as coefficients over its
    direction at the last fold and the seed residuals since then, kept by
    multiplication only, so exact termination and retired shifts stay
    finite.  Every _CG_BLOCK steps, and once at the end, two matmuls
    (shifts x held residuals times held residuals x sites, tiled over the
    sites) fold the residuals into the iterates and directions.  A shift
    whose coefficients equal the seed's (one a rounding step away from it)
    thus goes through the seed's own arithmetic.  Memory is
    O((len(shifts) + _CG_BLOCK) n_sites).
    """
    seed = shifts[-1]
    delta = shifts - seed
    m, n = len(shifts), b.size
    x = np.zeros((m, n))
    p = np.tile(b, (m, 1))
    # the seed's direction now; the rows of p are the directions at the last fold
    ps = b.copy()
    q = np.empty(n)
    # per shift, cx gives its iterate's growth since the last fold and cp its
    # direction: column 0 multiplies its direction at the last fold, column
    # j + 1 the seed residual res[j]
    res = np.empty((_CG_BLOCK, n))
    cx = np.zeros((m, _CG_BLOCK + 1))
    cp = np.zeros((m, _CG_BLOCK + 1))
    cp[:, 0] = 1.0
    held = 0
    folded = 0
    r = b
    rr = float(r @ r)
    zeta = np.ones(m)
    zeta_prev = np.ones(m)
    alpha_prev, beta_prev = 1.0, 0.0
    start = 0
    steps = 0
    # the fold writes each column tile's products here, allocating nothing
    tile = np.empty((m, min(n, _FOLD_COLUMNS)))

    def fold():
        # rows from `folded` on have moved since the last fold
        rows = slice(folded, m)
        for lo in range(0, n, _FOLD_COLUMNS):
            cols = slice(lo, lo + _FOLD_COLUMNS)
            xs, pf, rs = x[rows, cols], p[rows, cols], res[:held, cols]
            out = tile[: xs.shape[0], : xs.shape[1]]
            xs += np.multiply(cx[rows, :1], pf, out=out)
            xs += np.matmul(cx[rows, 1 : held + 1], rs, out=out)
            pf *= cp[rows, :1]
            pf += np.matmul(cp[rows, 1 : held + 1], rs, out=out)
        cx.fill(0.0)
        cp.fill(0.0)
        cp[:, 0] = 1.0

    while steps < maxiter:
        norm_r = math.sqrt(rr)
        while start < m and abs(zeta[start]) * norm_r <= tol:
            start += 1
        if start == m:
            break
        np.multiply(seed, ps, out=q)
        q -= op.matrix @ ps
        alpha = rr / float(ps @ q)
        act = slice(start, m)
        z, z_prev = zeta[act], zeta_prev[act]
        z_next = z * z_prev * alpha_prev / (
            alpha * beta_prev * (z_prev - z) + z_prev * alpha_prev * (1.0 + delta[act] * alpha)
        )
        ratio = z_next / z
        q *= alpha
        r = np.subtract(r, q, out=res[held])
        rr_next = float(r @ r)
        beta = rr_next / rr
        # the seed has zeta == 1 exactly, so its ratio is 1
        ps *= beta
        ps += r
        live = cp[act, : held + 1]
        cx[act, : held + 1] += (alpha * ratio)[:, None] * live
        live *= (beta * ratio * ratio)[:, None]
        cp[act, held + 1] = z_next
        held += 1
        zeta_prev[act] = z
        zeta[act] = z_next
        alpha_prev, beta_prev, rr = alpha, beta, rr_next
        steps += 1
        if held == _CG_BLOCK:
            fold()
            held, folded = 0, start
    if held:
        fold()
    return x, steps


def resolvent_solve(op, g, mu, rtol=1e-10):
    """Solve (mu I - L) u = g for one mu >= 0 or for a sequence of them at once.

    -L maps onto the mean-zero functions only, so mu = 0 is accepted only
    for a centred g, |mean g| sqrt(n_sites) <= (rtol/2) |g|, and its
    solution is the mean-zero one.  Every mu is served by one multi-shift
    conjugate-gradient run on -L whose seed system is the smallest mu, s; a
    shift retires once its residual is below rtol/2 of |g|.  On mean-zero
    functions the seed system's spectrum lies in
    [s + min(w) (2 - 2 cos(2 pi / n)), s + 2 max_rate], by comparison with
    the simple walk and by Gershgorin; with kappa the ratio of its ends, the
    run stops after ceil(sqrt(kappa)/2 ln(4 sqrt(kappa) / rtol)) steps at the
    latest, where the Chebyshev bound 2 sqrt(kappa) ((sqrt(kappa) - 1) /
    (sqrt(kappa) + 1))^k on the relative residual has fallen below rtol/2.
    The iterates are not updated step by step: every _CG_BLOCK steps the
    seed residuals are folded into them by two matmuls, so the run needs
    O((len(mu) + _CG_BLOCK) n_sites) memory.  Each solution is then
    re-verified by back-substitution: a relative residual above rtol raises
    SolverError, naming the worst mu, instead of returning a bad vector.

    A scalar mu returns the solution array.  A sequence returns a tuple
    (rows, iterations, residual): the solutions as an array of shape
    (len(mu), n_sites) in input order, the conjugate-gradient steps of the
    shared Krylov run, and the worst verified relative residual.
    """
    mus = np.asarray(mu, dtype=float)
    if mus.ndim > 1 or mus.size == 0:
        raise ParameterError(f"mu must be a number or a nonempty 1-D sequence, got shape {mus.shape}")
    if not np.all(mus >= 0):
        raise ParameterError(f"resolvent parameter must be >= 0, got {mu}")
    v = np.asarray(g, dtype=float)
    n = op.lattice.n_sites
    shifts, order = np.unique(mus, return_inverse=True)
    norm_g = float(np.linalg.norm(v))
    if shifts[0] == 0 and abs(float(v.mean())) * math.sqrt(n) > 0.5 * rtol * norm_g:
        raise ParameterError(f"mu = 0 needs a centred right-hand side, got mean {float(v.mean()):.3g}")
    lo = shifts[0] + float(op.weights.min()) * (2.0 - 2.0 * math.cos(2.0 * math.pi / op.lattice.n))
    root = math.sqrt((shifts[0] + 2.0 * op.max_rate) / lo)
    maxiter = math.ceil(0.5 * root * math.log(4.0 * root / rtol))
    if norm_g == 0.0:
        u, steps, worst = np.zeros((len(shifts), n)), 0, 0.0
    else:
        u, steps = _multishift_cg(op, v, shifts[::-1], 0.5 * rtol * norm_g, maxiter)
        u = u[::-1]
        residuals = np.linalg.norm(shifts[:, None] * u - (op.matrix @ u.T).T - v, axis=1) / norm_g
        i = int(np.argmax(residuals))
        worst = float(residuals[i])
        if not worst <= rtol:
            raise SolverError(
                f"resolvent solve at mu={shifts[i]:g} stopped at relative residual {worst:.3e} "
                f"(target {rtol:g}, {steps} iterations, cap {maxiter})"
            )
    if mus.ndim == 0:
        return u[0]
    return u[order], steps, worst


def dirichlet_form(op, g):
    """Site-averaged energy sum_e w_e (B g)_e^2 / n_sites; always >= 0."""
    grad = op.lattice.gradient(np.asarray(g, dtype=float))
    return float(np.dot(op.weights.ravel(), grad * grad)) / op.lattice.n_sites


def box_spectral_gap(d, n):
    """Smallest nonzero Laplacian eigenvalue of the free-boundary box [-n, n]^d.

    The box graph Laplacian is a Kronecker sum of path Laplacians, so its
    spectrum is all sums of path eigenvalues and the smallest nonzero one is
    the path gap itself, independent of d.  Computed from the explicit path
    matrix rather than the closed form, so tests can pin the latter against
    this as an oracle.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise ParameterError(f"box radius must be >= 1, got {n}")
    m = 2 * n + 1
    path = np.diag(np.concatenate(([1.0], np.full(m - 2, 2.0), [1.0])))
    path -= np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    lam = np.linalg.eigvalsh(path)
    return float(lam[1])


def sobolev_constant(d, n):
    """The per-box constant C_S(n) = 4 / (n^2 lambda_2) used by the box inequality."""
    return 4.0 / (n * n * box_spectral_gap(d, n))
