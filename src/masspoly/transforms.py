"""Operators of the expansion theory: partial sums, maximal operator, Hilbert
transform, Pollard decomposition, commutators, and the Laguerre mass-point
kernel formula.

All operators are pure given immutable bases.  Functions may be passed either
as callables or as GridFunctions sampled on the measure grid; integrals with
respect to Lebesgue measure use graded composite Gauss panels so endpoint and
interior log/algebraic singularities are resolved to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (
    DegreeOutOfRange,
    GridMismatch,
    IllConditionedFit,
    PointOnBoundary,
    SpecError,
)
from .measure import (
    GenJacobiSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    validate,
)
from .norms import Grid, GridFunction, make_grid
from .opoly import OrthoBasis, basis_for, cd_kernel, classical_recurrence

# ----------------------------------------------------------------------
# helpers


def _as_values(f, nodes):
    """Evaluate a callable, or accept a matching GridFunction / array."""
    if callable(f):
        return np.asarray(f(nodes), dtype=float)
    if isinstance(f, GridFunction):
        if len(f.nodes) == len(nodes) and np.allclose(f.nodes, nodes):
            return f.values
        return np.interp(nodes, f.nodes, f.values)
    return np.broadcast_to(np.asarray(f, dtype=float), nodes.shape)


def _check_grid(basis: OrthoBasis, f: GridFunction):
    nodes = f.nodes
    for mp in basis.measure.masses:
        if mp.location not in nodes[f.atom_idx]:
            raise GridMismatch(f"grid lacks an atom at mass point {mp.location}")


def _eval_at(f: GridFunction, x):
    """Value of a sampled grid function at a point (exact at nodes)."""
    hits = np.flatnonzero(f.nodes == x)
    if len(hits):
        return float(f.values[hits[0]])
    return float(np.interp(x, f.nodes, f.values))


# ----------------------------------------------------------------------
# partial sums


def partial_sum(basis: OrthoBasis, f: GridFunction, n: int, x):
    """S_n f(x) = integral of L_n(x, .) f d-nu, atoms included."""
    if n > basis.degree:
        raise DegreeOutOfRange(f"degree {n} exceeds cap {basis.degree}")
    _check_grid(basis, f)
    phi = basis.eval_all(f.nodes, n)
    coef = phi @ (f.weights * f.values)
    scalar = np.isscalar(x)
    vals = coef @ basis.eval_all(x, n)
    return float(vals[0]) if scalar else vals


def split_partial_sum(basis: OrthoBasis, f: GridFunction, n: int, x):
    """Split S_n f(x) into the continuous part T_n f(x) and the mass terms.

    T_n integrates against d-mu only; the parts sum to partial_sum exactly
    up to rounding.
    """
    s = partial_sum(basis, f, n, x)
    mass_terms = 0.0 if np.isscalar(x) else np.zeros(np.shape(x))
    for mp in basis.measure.masses:
        f_at = _eval_at(f, mp.location)
        mass_terms = mass_terms + mp.mass * cd_kernel(basis, n, x, mp.location) * f_at
    return s - mass_terms, mass_terms


def maximal_op(basis: OrthoBasis, f: GridFunction, N: int, x):
    """Truncated maximal operator max_{0<=n<=N} |S_n f(x)|."""
    if N > basis.degree:
        raise DegreeOutOfRange(f"degree {N} exceeds cap {basis.degree}")
    _check_grid(basis, f)
    phi = basis.eval_all(f.nodes, N)
    coef = phi @ (f.weights * f.values)
    scalar = np.isscalar(x)
    px = basis.eval_all(x, N)
    partials = np.cumsum(coef[:, None] * px, axis=0)
    vals = np.max(np.abs(partials), axis=0)
    return float(vals[0]) if scalar else vals


def commutator(basis: OrthoBasis, b, f: GridFunction, n: int, x):
    """[M_b, S_n] f(x) = b(x) S_n f(x) - S_n(b f)(x)."""
    b_vals = _as_values(b, f.nodes)
    if not np.all(np.isfinite(b_vals[f.atom_idx])):
        raise SpecError("symbol b must be finite at every mass point")
    bf = GridFunction(f.grid, b_vals * f.values)
    if callable(b):
        bx = b(x)
    else:
        bx = np.array([_eval_at(GridFunction(f.grid, b_vals), xi) for xi in np.atleast_1d(x)])
        if np.isscalar(x):
            bx = float(bx[0])
    return bx * partial_sum(basis, f, n, x) - partial_sum(basis, bf, n, x)


# ----------------------------------------------------------------------
# Lebesgue quadrature and the finite Hilbert transform


def graded_rule(singular_points=(), interval=(-1.0, 1.0), order: int = 12, levels: int = 45, base_panels: int = 8):
    """Composite Gauss-Legendre rule on an interval, geometrically graded
    toward each listed singular point; resolves integrable log / algebraic
    singularities to near machine precision."""
    lo, hi = interval
    span = hi - lo
    pts = set(np.linspace(lo, hi, base_panels + 1))
    for s0 in singular_points:
        for k in range(1, levels + 1):
            h = span * 2.0 ** (-k)
            for p in (s0 - h, s0 + h):
                if lo < p < hi:
                    pts.add(p)
    breaks = np.array(sorted(pts))
    sg, wg = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for c, d in zip(breaks[:-1], breaks[1:]):
        if d - c <= 0:
            continue
        half = (d - c) / 2.0
        nodes.append((c + d) / 2.0 + half * sg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def lebesgue_rule_for(spec: MeasureSpec, extra_singular=(), order: int = 12):
    """Lebesgue rule on [-1,1] graded at the weight's singular locations."""
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("Lebesgue rules are for [-1,1] supports")
    sing = list(extra_singular)
    if base.alpha != int(base.alpha) or base.alpha < 0:
        sing.append(1.0)
    if base.beta != int(base.beta) or base.beta < 0:
        sing.append(-1.0)
    sing.extend(t for t, _ in base.singularities)
    return graded_rule(tuple(sing), order=order)


def hilbert_transform(g, x, rule=None, singular_points=()):
    """Principal value of int_{-1}^{1} g(y)/(x-y) dy.

    Singularity-subtracted quadrature: the smooth part integrates
    (g(y)-g(x))/(x-y) and the subtracted constant contributes
    g(x) log((1+x)/(1-x)).
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) >= 1.0):
        raise PointOnBoundary("evaluation points must lie strictly inside (-1,1)")
    if rule is None:
        rule = graded_rule(singular_points) if singular_points else np.polynomial.legendre.leggauss(400)
    y, wy = rule
    gy = _as_values(g, y)
    gx = _as_values(g, xs)
    diff = xs[:, None] - y[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (gy[None, :] - gx[:, None]) / diff
    integrand = np.where(diff == 0.0, 0.0, integrand)
    out = integrand @ wy + gx * np.log((1.0 + xs) / (1.0 - xs))
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# Pollard decomposition


def q_measure(spec: MeasureSpec) -> MeasureSpec:
    """The measure (1-x^2) d-nu: edge exponents bumped, masses rescaled."""
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("Pollard decomposition applies on [-1,1]")
    new_base = GenJacobiSpec(base.alpha + 1, base.beta + 1, base.singularities)
    masses = tuple(
        MassPoint(mp.location, mp.mass * (1 - mp.location**2))
        for mp in spec.masses
        if abs(mp.location) != 1.0
    )
    return MeasureSpec(new_base, masses)


def q_basis_for(nu_basis: OrthoBasis, m: int | None = None) -> OrthoBasis:
    """Orthonormal basis for (1-x^2) d-nu matching the degree cap of nu."""
    return basis_for(q_measure(nu_basis.measure), nu_basis.degree, m=m)


@dataclass
class PollardParts:
    """T_n f split into the rank-one and two Hilbert-transform parts.

    Reconstruction: T_n f = r_n W1 + s_n W2 - s_n W3 at the evaluation points.
    """

    n: int
    r: float
    s: float
    x: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    t_n: np.ndarray  # independently computed T_n f at x
    cond: float

    @property
    def reconstruction(self):
        return self.r * self.w1 + self.s * self.w2 - self.s * self.w3

    @property
    def residual(self):
        scale = np.max(np.abs(self.t_n))
        if scale == 0:
            return float(np.max(np.abs(self.reconstruction)))
        return float(np.max(np.abs(self.reconstruction - self.t_n)) / scale)


def _continuous_quadrature(basis: OrthoBasis):
    """Gauss rule of the continuous part at the full recurrence length."""
    from .opoly import gauss_points

    m = len(basis.rec)
    return gauss_points(basis.rec, m)


def _t_n(basis: OrthoBasis, fy, y, wy, n, x):
    """T_n f(x) by projection: integrate f against d-mu on the Gauss rule (y, wy)."""
    phi = basis.eval_all(y, n)
    coef = phi @ (wy * fy)
    return coef @ basis.eval_all(x, n)


def _pollard_w(nu_basis, q_basis, f, n, x, rule):
    """The three Pollard parts of f at points x; f is a callable on [-1,1]."""
    y, wy = rule
    dens = nu_basis.measure.base.density
    fy = _as_values(f, y)
    wdy = dens(y) * wy
    p_next = lambda t: nu_basis.eval_all(t, n + 1)[n + 1]
    q_n = lambda t: q_basis.eval_all(t, n)[n]
    w1 = p_next(x) * np.sum(p_next(y) * fy * wdy)
    h2 = hilbert_transform(
        lambda t: (1 - t**2) * q_n(t) * _as_values(f, t) * dens(t), x, rule=rule
    )
    w2 = p_next(x) * h2
    h3 = hilbert_transform(lambda t: p_next(t) * _as_values(f, t) * dens(t), x, rule=rule)
    w3 = (1 - x**2) * q_n(x) * h3
    return w1, w2, w3


def fit_pollard_coefficients(nu_basis: OrthoBasis, q_basis: OrthoBasis, n: int, rule=None, seed: int = 7):
    """Extract (r_n, s_n) by least squares against independently computed T_n.

    Uses a few random polynomial test functions on a fixed interior test grid;
    also returns the condition number of the 3-column fit.
    """
    if n + 1 > nu_basis.degree or n > q_basis.degree:
        raise DegreeOutOfRange("Pollard parts need degree n+1 in both bases")
    if rule is None:
        rule = lebesgue_rule_for(nu_basis.measure, order=max(16, n + 8))
    yq, wq = _continuous_quadrature(nu_basis)
    x = np.linspace(-0.87, 0.87, 31) + 1.3e-4  # interior, off the nodes
    rng = np.random.default_rng(seed)
    rows, target = [], []
    for _ in range(3):
        # a degree-(n+1) component is required: without it the rank-one part
        # integrates to zero against an absolutely continuous measure
        c = np.zeros(n + 2)
        low = rng.standard_normal(min(n, 8) + 1)
        c[: len(low)] = low
        c[n + 1] = rng.standard_normal() + 2.0
        fpoly = np.polynomial.Polynomial(c)
        w1, w2, w3 = _pollard_w(nu_basis, q_basis, fpoly, n, x, rule)
        rows.append(np.column_stack([w1, w2, w3]))
        target.append(_t_n(nu_basis, fpoly(yq), yq, wq, n, x))
    M = np.vstack(rows)
    t = np.concatenate(target)
    coef, _, rank, sv = np.linalg.lstsq(M, t, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if rank < 3 or cond > 1e12:
        raise IllConditionedFit(f"Pollard fit ill-conditioned (cond={cond:.3g})")
    r = float(coef[0])
    s = float((coef[1] - coef[2]) / 2)
    return r, s, float(cond)


def pollard_parts(nu_basis: OrthoBasis, q_basis: OrthoBasis, f, n: int, x, rule=None) -> PollardParts:
    """Pollard split of T_n f at the points x (f callable or GridFunction)."""
    if rule is None:
        rule = lebesgue_rule_for(nu_basis.measure, order=max(16, n + 8))
    r, s, cond = fit_pollard_coefficients(nu_basis, q_basis, n, rule=rule)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w1, w2, w3 = _pollard_w(nu_basis, q_basis, f, n, x, rule)
    yq, wq = _continuous_quadrature(nu_basis)
    t_vals = _t_n(nu_basis, _as_values(f, yq), yq, wq, n, x)
    return PollardParts(n, r, s, x, w1, w2, w3, t_vals, cond)


# ----------------------------------------------------------------------
# commutator Psi split


@dataclass
class CommutatorParts:
    """The four-part split of [M_b, S_n] for an absolutely continuous measure."""

    n: int
    r: float
    s: float
    x: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray
    direct: np.ndarray  # [M_b, S_n] f at x, computed by quadrature

    @property
    def reconstruction(self):
        return self.r * self.psi1 - self.r * self.psi2 + self.s * self.psi3 - self.s * self.psi4

    @property
    def residual(self):
        scale = np.max(np.abs(self.direct))
        if scale == 0:
            scale = 1.0
        return float(np.max(np.abs(self.reconstruction - self.direct)) / scale)


def commutator_psi_parts(
    mu_basis: OrthoBasis, q_basis: OrthoBasis, b, f, n: int, x, rule=None,
    b_singularities=(),
) -> CommutatorParts:
    """Evaluate the Psi operators of the commutator split at the points x.

    Applies to the partial sums of the absolutely continuous measure; b and f
    are callables on [-1,1].  b_I is the Lebesgue mean of b over the interval.
    ``b_singularities`` lists locations where b blows up so the quadrature can
    grade toward them.
    """
    if mu_basis.measure.masses:
        raise SpecError("the Psi split applies to the absolutely continuous part")
    if rule is None:
        rule = lebesgue_rule_for(
            mu_basis.measure, extra_singular=b_singularities, order=max(16, n + 8)
        )
    y, wy = rule
    dens = mu_basis.measure.base.density
    wdy = dens(y) * wy
    by = _as_values(b, y)
    fy = _as_values(f, y)
    b_mean = float(np.sum(by * wy) / 2.0)

    x = np.atleast_1d(np.asarray(x, dtype=float))
    p_next = lambda t: mu_basis.eval_all(t, n + 1)[n + 1]
    q_n = lambda t: q_basis.eval_all(t, n)[n]
    bx = _as_values(b, x)

    psi1 = (bx - b_mean) * p_next(x) * np.sum(p_next(y) * fy * wdy)
    psi2 = p_next(x) * np.sum((by - b_mean) * p_next(y) * fy * wdy)

    def comm_h(h):
        """[M_b, H] h at x = b(x) H(h)(x) - H(b h)(x)."""
        hx = hilbert_transform(h, x, rule=rule)
        bh = lambda t: _as_values(b, t) * h(t)
        return bx * hx - hilbert_transform(bh, x, rule=rule)

    psi3 = p_next(x) * comm_h(lambda t: (1 - t**2) * q_n(t) * _as_values(f, t) * dens(t))
    psi4 = (1 - x**2) * q_n(x) * comm_h(lambda t: p_next(t) * _as_values(f, t) * dens(t))

    r, s, _ = fit_pollard_coefficients(mu_basis, q_basis, n, rule=rule)

    # direct evaluation of b S_n f - S_n(b f) by the same quadrature
    phi = mu_basis.eval_all(y, n)
    coef_f = phi @ (wdy * fy)
    coef_bf = phi @ (wdy * by * fy)
    px = mu_basis.eval_all(x, n)
    direct = bx * (coef_f @ px) - coef_bf @ px

    return CommutatorParts(n, r, s, x, psi1, psi2, psi3, psi4, direct)


# ----------------------------------------------------------------------
# Laguerre with a mass at the origin


def laguerre_q_values(alpha: float, N: int, x=0.0):
    """Values Q_0(x)..Q_N(x) of the orthonormal Laguerre system for
    e^{-x} x^{alpha+1} dx, signed so that Q_n(0) > 0 (classical convention)."""
    rec = classical_recurrence(LaguerreSpec(alpha + 1), N + 1)
    vals = rec.table(np.atleast_1d(np.asarray(x, dtype=float)), N)
    signs = (-1.0) ** np.arange(N + 1)
    return signs[:, None] * vals


def laguerre_q_at_zero(alpha: float, n) -> np.ndarray:
    """Closed form Q_n(0) = Gamma(n+alpha+2)^{1/2} / (Gamma(alpha+2) n!^{1/2})."""
    n = np.asarray(n, dtype=float)
    logv = 0.5 * scipy.special.gammaln(n + alpha + 2) - scipy.special.gammaln(alpha + 2) \
        - 0.5 * scipy.special.gammaln(n + 1)
    return np.exp(logv)


def laguerre_mass_kernel(alpha: float, M: float, n: int, x, nu_basis: OrthoBasis | None = None):
    """Kernel values L_n(x, 0) = r_n Q_n(x) for e^{-x} x^alpha dx + M delta_0.

    Returns (L_n(x,0), r_n) with r_n = L_n(0,0)/Q_n(0) > 0.
    """
    if alpha <= -1:
        raise SpecError(f"alpha must be > -1, got {alpha}")
    if nu_basis is None:
        nu_basis = basis_for(
            MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, M),)), n
        )
    if n > nu_basis.degree:
        raise DegreeOutOfRange(f"degree {n} exceeds cap {nu_basis.degree}")
    l_00 = float(np.sum(nu_basis.eval_all(0.0, n)[:, 0] ** 2))
    q0 = float(laguerre_q_at_zero(alpha, n))
    r_n = l_00 / q0
    qx = laguerre_q_values(alpha, n, x)[n]
    vals = r_n * qx
    if np.isscalar(x):
        return float(vals[0]), r_n
    return vals, r_n


def laguerre_mass_table(alpha: float, M: float, N: int):
    """Columns (n, L_n(0,0), Q_n(0), r_n, r_n n^{(alpha+1)/2}) for n = 0..N."""
    nu_basis = basis_for(MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, M),)), N)
    p0 = nu_basis.eval_all(0.0)[:, 0]
    l_diag = np.cumsum(p0**2)
    ns = np.arange(N + 1)
    q0 = laguerre_q_at_zero(alpha, ns)
    r = l_diag / q0
    scaled = r * np.maximum(ns, 1) ** ((alpha + 1) / 2)
    return ns, l_diag, q0, r, scaled
