"""Orthonormal polynomial systems: recurrences, mass-point updates, kernels.

Construction paths:
  * classical three-term recurrences for Jacobi / Laguerre / Hermite weights,
  * discretized Stieltjes recurrences for generalized Jacobi weights
    (composite Gauss-Jacobi cells split at every algebraic singularity),
  * point masses folded into the recurrence of the whole measure by Lanczos
    (Householder tridiagonalization) on the Gauss rule of mu plus the atoms.

Kernels L_n(x,y) = sum_{j<=n} P_j(x) P_j(y) and the convex-combination
decomposition of L_n over Christoffel-modified measures are provided on top.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from ._kernels import recurrence_table
from .errors import (
    DegreeOutOfRange,
    EigenFailure,
    GridTooSmall,
    IllConditionedFit,
    NumericalBreakdown,
    SpecError,
)
from .measure import (
    GenJacobiSpec,
    HermiteSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    christoffel_modified,
    validate,
)

# ----------------------------------------------------------------------
# recurrences


@dataclass(frozen=True)
class Recurrence:
    """Three-term recurrence coefficients a_k, b_k (k = 0..N-1), b_0 = total mass.

    Orthonormal forward recurrence:
        sqrt(b_{k+1}) P_{k+1}(x) = (x - a_k) P_k(x) - sqrt(b_k) P_{k-1}(x),
        P_0 = 1/sqrt(b_0),  P_{-1} = 0.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        if np.any(self.betas <= 0):
            raise NumericalBreakdown("recurrence betas must be positive")

    def __len__(self):
        return len(self.alphas)

    @property
    def total_mass(self):
        return float(self.betas[0])

    def table(self, x, nmax):
        """Orthonormal values P_0..P_nmax at the points x, shape (nmax+1, len(x))."""
        return recurrence_table(self.alphas, np.sqrt(self.betas), x, nmax)


def classical_recurrence(base, N: int) -> Recurrence:
    """Exact recurrence coefficients for Jacobi(alpha,beta), Laguerre(alpha), Hermite."""
    if N < 1:
        raise SpecError("N must be >= 1")
    k = np.arange(N, dtype=float)
    if isinstance(base, GenJacobiSpec):
        if not base.is_classical:
            raise SpecError("generalized Jacobi weights need stieltjes_recurrence")
        a, b = base.alpha, base.beta
        alphas = np.zeros(N)
        betas = np.zeros(N)
        apb = a + b
        alphas[0] = (b - a) / (apb + 2)
        if N > 1:
            kk = k[1:]
            alphas[1:] = (b * b - a * a) / ((2 * kk + apb) * (2 * kk + apb + 2))
        betas[0] = (
            2.0 ** (apb + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(apb + 2)
        )
        if N > 1:
            betas[1] = 4 * (a + 1) * (b + 1) / ((apb + 2) ** 2 * (apb + 3))
        if N > 2:
            kk = k[2:]
            betas[2:] = (
                4 * kk * (kk + a) * (kk + b) * (kk + apb)
                / ((2 * kk + apb) ** 2 * (2 * kk + apb + 1) * (2 * kk + apb - 1))
            )
        return Recurrence(alphas, betas)
    if isinstance(base, LaguerreSpec):
        a = base.alpha
        alphas = 2 * k + a + 1
        betas = k * (k + a)
        betas[0] = math.gamma(a + 1)
        return Recurrence(alphas, betas)
    if isinstance(base, HermiteSpec):
        alphas = np.zeros(N)
        betas = k / 2.0
        betas[0] = math.sqrt(math.pi)
        return Recurrence(alphas, betas)
    raise SpecError(f"no classical recurrence for base {base!r}")


def _stieltjes(x, w, N, dtype=float):
    """Discretized Stieltjes procedure on the discrete measure sum w_j delta_{x_j}."""
    x = np.asarray(x, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    alphas = np.zeros(N, dtype=dtype)
    betas = np.zeros(N, dtype=dtype)
    b0 = w.sum()
    if b0 <= 0:
        raise NumericalBreakdown("discretized measure has nonpositive mass")
    betas[0] = b0
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / np.sqrt(b0))
    for kk in range(N):
        alphas[kk] = np.sum(w * x * p * p)
        if kk == N - 1:
            break
        q = (x - alphas[kk]) * p - np.sqrt(betas[kk]) * p_prev if kk > 0 else (x - alphas[0]) * p
        bnext = np.sum(w * q * q)
        if bnext <= 0:
            raise NumericalBreakdown(f"Stieltjes breakdown at step {kk + 1}")
        betas[kk + 1] = bnext
        p_prev = p
        p = q / np.sqrt(bnext)
    return np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)


def _stieltjes_mp(x, w, N, extra_bits=40):
    """mpmath variant used for the high-precision constructor path."""
    import mpmath

    with mpmath.workprec(53 + extra_bits):
        xs = [mpmath.mpf(float(t)) for t in x]
        ws = [mpmath.mpf(float(t)) for t in w]
        alphas = [mpmath.mpf(0)] * N
        betas = [mpmath.mpf(0)] * N
        b0 = mpmath.fsum(ws)
        betas[0] = b0
        p_prev = [mpmath.mpf(0)] * len(xs)
        inv = 1 / mpmath.sqrt(b0)
        p = [inv] * len(xs)
        for kk in range(N):
            alphas[kk] = mpmath.fsum(wj * xj * pj * pj for wj, xj, pj in zip(ws, xs, p))
            if kk == N - 1:
                break
            sb = mpmath.sqrt(betas[kk]) if kk > 0 else mpmath.mpf(0)
            q = [
                (xj - alphas[kk]) * pj - sb * qj for xj, pj, qj in zip(xs, p, p_prev)
            ]
            bnext = mpmath.fsum(wj * qj * qj for wj, qj in zip(ws, q))
            if bnext <= 0:
                raise NumericalBreakdown(f"Stieltjes breakdown at step {kk + 1}")
            betas[kk + 1] = bnext
            sb = mpmath.sqrt(bnext)
            p_prev = p
            p = [qj / sb for qj in q]
        return (
            np.array([float(a) for a in alphas]),
            np.array([float(b) for b in betas]),
        )


def _cell_rule(c, d, gl, gr, order, levels=12, ratio=0.25):
    """Composite rule integrating f(x) (x-c)^gl (d-x)^gr dx over [c, d].

    Panels are geometrically graded toward both endpoints; the two panels
    touching the endpoints use Gauss-Jacobi rules that absorb the algebraic
    factor exactly, so individual panel orders stay small enough for the
    node/weight solver to deliver machine accuracy.
    """
    width = d - c
    offs = [0.5 * width * ratio**k for k in range(levels, 0, -1)] + [0.5 * width]
    edges = [c] + [c + o for o in offs] + [d - o for o in reversed(offs[:-1])] + [d]
    nodes, weights = [], []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        half = (b - a) / 2.0
        mid = (a + b) / 2.0
        if i == 0 and gl != 0.0:
            s, ws = scipy.special.roots_jacobi(order, 0.0, gl)
            x = mid + half * s
            w = ws * half ** (1.0 + gl) * (d - x) ** gr
        elif i == len(edges) - 2 and gr != 0.0:
            s, ws = scipy.special.roots_jacobi(order, gr, 0.0)
            x = mid + half * s
            w = ws * half ** (1.0 + gr) * (x - c) ** gl
        else:
            s, ws = np.polynomial.legendre.leggauss(order)
            x = mid + half * s
            w = ws * half * (x - c) ** gl * (d - x) ** gr
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def genjacobi_discretization(spec: GenJacobiSpec, m: int):
    """Composite quadrature (nodes, weights) for a generalized Jacobi weight.

    The interval is split at every interior singularity; each cell carries a
    graded composite rule whose endpoint panels absorb the local algebraic
    factors, so the remaining integrand is analytic panel by panel.
    """
    factors = [(1.0, spec.alpha), (-1.0, spec.beta)] + list(spec.singularities)
    breaks = sorted({-1.0, 1.0, *(t for t, _ in spec.singularities)})
    ncells = len(breaks) - 1
    levels = 12
    order = min(80, max(24, int(math.ceil(m / (ncells * (2 * levels + 1))))))
    exps = {loc: e for loc, e in factors}
    nodes, weights = [], []
    for c, d in zip(breaks[:-1], breaks[1:]):
        gl = exps.get(c, 0.0)
        gr = exps.get(d, 0.0)
        x, w = _cell_rule(c, d, gl, gr, order, levels=levels)
        smooth = np.ones_like(x)
        for loc, e in factors:
            if loc != c and loc != d and e != 0.0:
                smooth *= np.abs(x - loc) ** e
        nodes.append(x)
        weights.append(w * smooth)
    return np.concatenate(nodes), np.concatenate(weights)


def stieltjes_recurrence(
    weight,
    N: int,
    m: int | None = None,
    interval=(-1.0, 1.0),
    edge_exponents=(0.0, 0.0),
    interior_singularities=(),
    high_precision=False,
) -> Recurrence:
    """Recurrence of the measure weight(x) dx on an interval, via discretization.

    ``edge_exponents`` = (exponent of (hi-x) at the right edge, exponent of
    (x-lo) at the left edge's factor) and ``interior_singularities`` =
    ((t, gamma), ...) describe the algebraic structure of the weight so cells
    can use matched Gauss-Jacobi rules; the weight callable itself is always
    evaluated for the smooth remainder, so mild misdeclaration only slows
    convergence.
    """
    if m is None:
        m = 40 * N
    if m < 2 * N:
        raise GridTooSmall(f"grid size {m} < 2N = {2 * N}")
    lo, hi = interval
    er, el = edge_exponents
    factors = [(hi, er), (lo, el)] + list(interior_singularities)
    breaks = sorted({lo, hi, *(t for t, _ in interior_singularities)})
    ncells = len(breaks) - 1
    levels = 12
    order = min(80, max(24, int(math.ceil(m / (ncells * (2 * levels + 1))))))
    exps = {loc: e for loc, e in factors}
    nodes, weights = [], []
    for c, d in zip(breaks[:-1], breaks[1:]):
        gl = exps.get(c, 0.0)
        gr = exps.get(d, 0.0)
        x, w = _cell_rule(c, d, gl, gr, order, levels=levels)
        sing = np.abs(d - x) ** gr * np.abs(x - c) ** gl
        nodes.append(x)
        weights.append(w * weight(x) / sing)
    xg = np.concatenate(nodes)
    wg = np.concatenate(weights)
    if high_precision:
        alphas, betas = _stieltjes_mp(xg, wg, N)
    else:
        alphas, betas = _stieltjes(xg, wg, N)
    return Recurrence(alphas, betas)


def recurrence_for(base, N: int, m: int | None = None, high_precision=False) -> Recurrence:
    """Recurrence of the continuous base weight, dispatched on its structure."""
    if isinstance(base, GenJacobiSpec) and not base.is_classical:
        if m is None:
            m = 40 * N
        xg, wg = genjacobi_discretization(base, m)
        if high_precision:
            alphas, betas = _stieltjes_mp(xg, wg, N)
        else:
            alphas, betas = _stieltjes(xg, wg, N)
        return Recurrence(alphas, betas)
    return classical_recurrence(base, N)


def gauss_points(rec: Recurrence, m: int):
    """Gauss rule (nodes, weights) of order m from the recurrence.

    Weights are Christoffel numbers 1 / sum_{k<m} P_k(x_j)^2, which keep
    relative accuracy down to the tiny weights at far Laguerre / Hermite
    nodes; Golub-Welsch eigenvector weights only have absolute accuracy.
    """
    if m > len(rec):
        raise GridTooSmall(f"rule order {m} exceeds recurrence length {len(rec)}")
    try:
        x = scipy.linalg.eigvalsh_tridiagonal(rec.alphas[:m], np.sqrt(rec.betas[1:m]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(str(exc)) from exc
    # Orthonormal recurrence with the pair (P_{k-1}, P_k) and the running sum
    # rescaled by powers of two, which is exact, so far nodes cannot overflow.
    sb = np.sqrt(rec.betas[:m])
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / sb[0])
    total = p * p
    exponent = np.zeros(x.shape, dtype=int)  # sum_k P_k^2 = total * 2**exponent
    for k in range(m - 1):
        p_prev, p = p, ((x - rec.alphas[k]) * p - sb[k] * p_prev) / sb[k + 1]
        total += p * p
        half = np.frexp(total)[1] // 2
        p_prev, p = np.ldexp(p_prev, -half), np.ldexp(p, -half)
        total = np.ldexp(total, -2 * half)
        exponent += 2 * half
    return x, np.ldexp(1.0 / total, -exponent)


# ----------------------------------------------------------------------
# bases


@dataclass
class OrthoBasis:
    """Evaluation-ready orthonormal system for a MeasureSpec up to a degree cap.

    ``nu_rec`` is the recurrence of the whole measure nu and drives every
    evaluation; ``rec`` stays the recurrence of the continuous part mu (the
    same object when the measure carries no point masses).
    """

    measure: MeasureSpec
    rec: Recurrence
    degree: int
    nu_rec: Recurrence

    def eval_all(self, x, upto: int | None = None):
        """Values P_0..P_upto at points x, shape (upto+1, len(x))."""
        n = self.degree if upto is None else upto
        if n > self.degree:
            raise DegreeOutOfRange(f"degree {n} exceeds cap {self.degree}")
        return self.nu_rec.table(np.atleast_1d(np.asarray(x, dtype=float)), n)

    def eval(self, n: int, x):
        """P_n at x (scalar in, scalar out)."""
        scalar = np.isscalar(x)
        vals = self.eval_all(x, n)[n]
        return float(vals[0]) if scalar else vals


def add_mass_points(base_basis: OrthoBasis, masses) -> OrthoBasis:
    """Orthonormal basis for nu = mu + sum M_i delta_{a_i}, as one recurrence.

    Lanczos in its orthogonal-reduction form (Gragg & Harrod, Numer. Math.
    44, 1984): the Jacobi matrix J of degrees 0..N encodes the Gauss rule of
    order N+1 without forming it.  Bordering blockdiag(J, a_1, .., a_k) with
    the start vector (sqrt(b_0) e_1, sqrt(M_1), ..) and reducing it to
    tridiagonal form by Householder reflections gives the recurrence of that
    rule plus the atoms.  The rule integrates nu exactly to degree 2N+1, so
    the coefficients are exact through degree N.
    """
    masses = tuple(masses)
    if not masses:
        return base_basis
    spec = validate(base_basis.measure.with_masses(masses))
    N = base_basis.degree
    rec = base_basis.nu_rec
    # row and column 0 carry the start vector, rows 1..N+1 J, the rest the atoms
    diag = np.concatenate([[0.0], rec.alphas[: N + 1], [mp.location for mp in masses]])
    off = np.concatenate([np.sqrt(rec.betas[: N + 1]), np.zeros(len(masses))])
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    A[0, N + 2 :] = A[N + 2 :, 0] = np.sqrt([mp.mass for mp in masses])
    T = scipy.linalg.hessenberg(A)
    total = rec.total_mass + sum(mp.mass for mp in masses)
    nu_rec = Recurrence(np.diag(T)[1 : N + 2], np.concatenate([[total], np.diag(T, -1)[1 : N + 1] ** 2]))
    return OrthoBasis(spec, base_basis.rec, N, nu_rec)


def basis_for(spec: MeasureSpec, N: int, m: int | None = None, high_precision=False) -> OrthoBasis:
    """Build the orthonormal basis of a validated MeasureSpec up to degree N."""
    validate(spec)
    rec = recurrence_for(spec.base, N + 1, m=m, high_precision=high_precision)
    base = OrthoBasis(spec.with_masses(()), rec, N, rec)
    return add_mass_points(base, spec.masses)


def cd_kernel(basis: OrthoBasis, n: int, x, y):
    """Christoffel-Darboux kernel L_n(x,y) = sum_{j<=n} P_j(x) P_j(y)."""
    if n > basis.degree:
        raise DegreeOutOfRange(f"degree {n} exceeds cap {basis.degree}")
    scalar = np.isscalar(x) and np.isscalar(y)
    px = basis.eval_all(x, n)
    py = basis.eval_all(y, n)
    out = np.einsum("jx,jy->xy", px, py)
    if scalar:
        return float(out[0, 0])
    return np.squeeze(out)


def kernel_sequence(basis: OrthoBasis, x, a: float, N: int):
    """L_n(x, a) for all 0 <= n <= N at once, shape (N+1, len(x))."""
    px = basis.eval_all(x, N)
    pa = basis.eval_all(a, N)[:, 0]
    return np.cumsum(px * pa[:, None], axis=0)


def kernel_envelope(spec: MeasureSpec, a: float, x, n: int):
    """Pointwise envelope dominating |L_n(x, a)| for a mass point a.

    For interior a the bound carries both edge factors
    (1 -+ x + n^-2)^{-(2 exponent + 1)/4} and skips the singularity factor at
    a itself; for a = +-1 the factor at that edge drops out entirely.
    """
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("kernel envelopes apply to generalized Jacobi bases")
    x = np.asarray(x, dtype=float)
    inv2 = float(n) ** -2.0 if n > 0 else 1.0
    inv1 = float(n) ** -1.0 if n > 0 else 1.0
    env = np.ones_like(x)
    if a == 1.0:
        env = env * (1.0 + x + inv2) ** (-(2 * base.beta + 1) / 4)
    elif a == -1.0:
        env = env * (1.0 - x + inv2) ** (-(2 * base.alpha + 1) / 4)
    else:
        env = env * (1.0 - x + inv2) ** (-(2 * base.alpha + 1) / 4)
        env = env * (1.0 + x + inv2) ** (-(2 * base.beta + 1) / 4)
    for t, g in base.singularities:
        if a not in (1.0, -1.0) and t == a:
            continue
        env = env * (np.abs(x - t) + inv1) ** (-g / 2)
    return env


def kernel_envelope_ratio(basis: OrthoBasis, a: float, N: int, x=None):
    """Running sup over n <= N and the x-grid of |L_n(x,a)| / envelope.

    Finiteness and stability of the returned sequence verify the kernel
    estimates empirically; the constant itself is not asserted.
    """
    if N > basis.degree:
        raise DegreeOutOfRange(f"degree {N} exceeds cap {basis.degree}")
    if x is None:
        m = 400
        x = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    seq = kernel_sequence(basis, x, a, N)
    sups = np.empty(N + 1)
    for n in range(N + 1):
        env = kernel_envelope(basis.measure, a, x, n)
        sups[n] = np.max(np.abs(seq[n]) / env)
    return np.maximum.accumulate(sups)


# ----------------------------------------------------------------------
# Lemma-4 style kernel decomposition


@dataclass
class KernelDecomposition:
    """Coefficients of L_n over the Christoffel-modified kernels, one per subset."""

    n: int
    coefficients: dict  # subset (tuple of locations) -> coefficient
    residual: float
    cond: float

    @property
    def total(self):
        return sum(self.coefficients.values())


def mass_subsets(locations):
    """All subsets of mass locations, by cardinality then lexicographically."""
    locs = sorted(locations)
    out = []
    for r in range(len(locs) + 1):
        out.extend(itertools.combinations(locs, r))
    return out


def modified_bases(spec: MeasureSpec, N: int, m: int | None = None):
    """Bases of the Christoffel-modified measures mu^A for every subset A."""
    out = {}
    for A in mass_subsets(spec.mass_locations):
        mod_spec, _ = christoffel_modified(spec, A)
        out[A] = basis_for(mod_spec, N, m=m)
    return out


def kernel_decomposition(
    nu_basis: OrthoBasis, mod_bases: dict, n: int, grid_size: int = 48
) -> KernelDecomposition:
    """Extract the convex-combination coefficients of L_n by least squares.

    L_n(x,y) is matched on a tensor grid against the candidate kernels
    prod_{a in A}(x-a)(y-a) K_{n-|A|}^A(x,y); the fit residual doubles as a
    numerical verification of the decomposition identity itself.
    """
    spec = nu_basis.measure
    locs = spec.mass_locations
    subsets = [A for A in mass_subsets(locs) if len(A) <= n]
    if grid_size <= len(nu_basis.rec):
        xs, _ = gauss_points(nu_basis.rec, grid_size)
    elif isinstance(spec.base, GenJacobiSpec):
        # Chebyshev points: any distinct interior nodes work for the fit
        xs = np.cos(np.pi * (2 * np.arange(grid_size) + 1) / (2 * grid_size))
    else:
        xs, _ = gauss_points(nu_basis.rec, len(nu_basis.rec))
    target = cd_kernel(nu_basis, n, xs, xs).ravel()
    cols = []
    for A in subsets:
        basis_A = mod_bases[tuple(A)]
        deg = n - len(A)
        kern = cd_kernel(basis_A, deg, xs, xs)
        fac = np.ones_like(xs)
        for a in A:
            fac *= xs - a
        cols.append((np.outer(fac, fac) * kern).ravel())
    M = np.column_stack(cols)
    coef, _, rank, sv = np.linalg.lstsq(M, target, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if rank < len(subsets) or cond > 1e12:
        raise IllConditionedFit(f"candidate kernels numerically dependent (cond={cond:.3g})")
    residual = np.linalg.norm(M @ coef - target) / np.linalg.norm(target)
    return KernelDecomposition(n, dict(zip(subsets, coef)), float(residual), float(cond))


# ----------------------------------------------------------------------
# small-degree helpers


def monomial_coefficients(basis: OrthoBasis):
    """Monomial coefficient triangle of P_0..P_N; row n holds P_n, ascending powers.

    Intended for small degree caps (cross-checks against exact arithmetic);
    the conversion is exponentially ill-conditioned for large N.
    """
    N = basis.degree
    rec = basis.nu_rec
    sb = np.sqrt(rec.betas)
    C = np.zeros((N + 1, N + 1))
    C[0, 0] = 1.0 / sb[0]
    if N >= 1:
        C[1, 1] = C[0, 0] / sb[1]
        C[1, 0] = -rec.alphas[0] * C[0, 0] / sb[1]
    for k in range(1, N):
        C[k + 1, 1:] = C[k, :-1]
        C[k + 1] -= rec.alphas[k] * C[k]
        C[k + 1] -= sb[k] * C[k - 1]
        C[k + 1] /= sb[k + 1]
    return C
