"""Operators of the expansion theory: partial sums, maximal operator, Hilbert
transform, Pollard decomposition, commutators, and the Laguerre mass-point
kernel formula.

An operator call evaluates each basis once, at its quadrature nodes and
evaluation points together.  ``_expand`` splits that table by column and
projects value columns onto P_0..P_n: S_n, the maximal operator, the
commutator and the independent T_n of the Pollard split all go through it.
The Pollard split reads p_{n+1}, (1-t^2) q_n, f and the density once at
(rule nodes, x); the Psi split of the commutator is the Pollard split of f
and of b f on the same values.  (r_n, s_n) come in closed
form from the recurrences of nu and of (1-x^2) d-nu; the least-squares fit
that extracts them from T_n is kept as the reference the tests check.

All operators are pure given immutable bases.  S_n, the maximal operator and
the commutator take GridFunctions sampled on the measure grid.  The Hilbert
transform and the Pollard and Psi splits take callables; a GridFunction is
read only at exactly its own nodes, and anywhere else raises GridMismatch.
Integrals with respect to Lebesgue measure use ``lebesgue_rule_for``, which
is ``opoly.lebesgue_rule``, the rule the discretized Stieltjes recurrences are
built on, at 45 levels of ratio 1/2: cells split at every singular point,
panels graded geometrically toward it, and Gauss-Jacobi panels that absorb an
algebraic factor |x - t|^g there.  Every weight next to t
carries the ratio (exact offset / stored offset)^g of its node, so the density
read at the rounded node cancels the factor, and endpoint and interior log or
algebraic singularities are resolved to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeOutOfRange, GridMismatch, IllConditionedFit, PointOnBoundary, SpecError
from .measure import GenJacobiSpec, LaguerreSpec, MassPoint, MeasureSpec, is_polynomial
from .norms import GridFunction, check_symbol
from .opoly import (
    OrthoBasis,
    _check_degree,
    add_mass_points,
    basis_for,
    classical_recurrence,
    gauss_points,
    lebesgue_rule,
    linear_step,
    recurrence_for,
)

# ----------------------------------------------------------------------
# helpers


def _as_values(f, nodes):
    """Values of f at the nodes: a callable is evaluated there, a GridFunction
    must sit on exactly these nodes, and an array or scalar is broadcast."""
    if callable(f):
        return np.asarray(f(nodes), dtype=float)
    if isinstance(f, GridFunction):
        if f.nodes.shape != nodes.shape or not np.array_equal(f.nodes, nodes):
            raise GridMismatch(
                f"a GridFunction on {len(f.nodes)} nodes is read only at exactly those nodes, "
                f"not at {len(nodes)} other points; pass a callable"
            )
        return f.values
    return np.broadcast_to(np.asarray(f, dtype=float), nodes.shape)


def _check_grid(basis: OrthoBasis, f: GridFunction, n: int):
    _check_degree(n, basis.degree)
    for mp in basis.measure.masses:
        if mp.location not in f.nodes[f.atom_idx]:
            raise GridMismatch(f"grid lacks an atom at mass point {mp.location}")


def _expand(basis: OrthoBasis, nodes, weights, columns, n: int, x):
    """Coefficients of each value column on P_0..P_n, and P_0..P_n at the points x.

    One table of ``basis`` at (nodes, x) serves both: entry j of a column's
    coefficients is sum_k weights_k v_k P_j(nodes_k), so S_n v(x) = coef @ px.
    px is copied out of the table: matmul sums a single strided column in
    another order than a contiguous one.
    """
    table = basis.eval_all(np.concatenate([nodes, np.atleast_1d(np.asarray(x, dtype=float))]), n)
    phi, px = table[:, : len(nodes)], np.ascontiguousarray(table[:, len(nodes):])
    return [phi @ (weights * v) for v in columns], px


# ----------------------------------------------------------------------
# partial sums


def partial_sum(basis: OrthoBasis, f: GridFunction, n: int, x):
    """S_n f(x) = integral of L_n(x, .) f d-nu, atoms included."""
    _check_grid(basis, f, n)
    (coef,), px = _expand(basis, f.nodes, f.weights, [f.values], n, x)
    vals = coef @ px
    return float(vals[0]) if np.isscalar(x) else vals


def maximal_op(basis: OrthoBasis, f: GridFunction, N: int, x):
    """Truncated maximal operator max_{0<=n<=N} |S_n f(x)|."""
    _check_grid(basis, f, N)
    (coef,), px = _expand(basis, f.nodes, f.weights, [f.values], N, x)
    partials = np.cumsum(coef[:, None] * px, axis=0)
    vals = np.max(np.abs(partials), axis=0)
    return float(vals[0]) if np.isscalar(x) else vals


def commutator(basis: OrthoBasis, b, f: GridFunction, n: int, x):
    """[M_b, S_n] f(x) = b(x) S_n f(x) - S_n(b f)(x).

    b is a callable, or values on the grid of f (a GridFunction or an array),
    which are read at x by linear interpolation between the grid nodes.  It
    must be finite at every node of that grid, its mass points first
    (``norms.check_symbol``); at x it may not be, and the values then are not.
    """
    _check_grid(basis, f, n)
    b_vals = _as_values(b, f.nodes)
    check_symbol(b_vals, f.grid)
    (coef_f, coef_bf), px = _expand(basis, f.nodes, f.weights, [f.values, b_vals * f.values], n, x)
    bx = b(x) if callable(b) else np.interp(x, f.nodes, b_vals)
    vals = bx * (coef_f @ px) - coef_bf @ px
    return float(vals[0]) if np.isscalar(x) else vals


# ----------------------------------------------------------------------
# Lebesgue quadrature and the finite Hilbert transform


def lebesgue_rule_for(spec: MeasureSpec, extra_singular=(), order: int = 12):
    """Lebesgue rule on [-1,1] graded at the weight's singular locations.

    The locations of the factors that are not polynomials
    (``measure.is_polynomial``) are graded and their panels absorb the
    exponent (``opoly.lebesgue_rule``), so a sum of weights times the density
    integrates those factors exactly; ``extra_singular`` points are graded at
    exponent 0.
    """
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("Lebesgue rules are for [-1,1] supports")
    factors = [(t, e) for t, e in base.factors if not is_polynomial(t, e)]
    return lebesgue_rule(factors + [(t, 0.0) for t in extra_singular], order, 45, 0.5)


def _interior(x):
    """The points x as a 1-d array; each must lie strictly inside (-1, 1)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) >= 1.0):
        raise PointOnBoundary("evaluation points must lie strictly inside (-1,1)")
    return xs


def hilbert_transform(g, x, rule):
    """Principal value of int_{-1}^{1} g(y)/(x-y) dy on a Lebesgue ``rule`` (nodes, weights), g read once at (nodes, x).

    Singularity-subtracted quadrature: the smooth part integrates
    (g(y)-g(x))/(x-y) on the rule and the subtracted constant contributes
    g(x) log((1+x)/(1-x)).
    """
    xs = _interior(x)
    y, wy = rule
    gz = _as_values(g, np.concatenate([y, xs]))
    gy, gx = gz[: len(y)], gz[len(y):]
    diff = xs[:, None] - y[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (gy[None, :] - gx[:, None]) / diff
    integrand = np.where(diff == 0.0, 0.0, integrand)
    out = integrand @ wy + gx * np.log((1.0 + xs) / (1.0 - xs))
    return float(out[0]) if np.isscalar(x) else out


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


def q_basis_for(nu_basis: OrthoBasis) -> OrthoBasis:
    """Orthonormal basis for (1-x^2) d-nu matching the degree cap of nu: two Cholesky
    steps on mu's recurrence (I - J of nu is nearly singular with an atom at 1),
    then ``q_measure``'s atoms by RKPW."""
    spec = q_measure(nu_basis.measure)
    rec = linear_step(linear_step(recurrence_for(nu_basis.measure.base, nu_basis.degree + 3), 1.0), -1.0)
    return OrthoBasis(spec, rec, add_mass_points(rec, spec.masses))


def _relative_residual(recon, direct):
    """max |recon - direct| over max |direct|, or over 1 where direct is all zeros."""
    scale = np.max(np.abs(direct))
    return float(np.max(np.abs(recon - direct)) / (scale if scale != 0 else 1.0))


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

    @property
    def reconstruction(self):
        return self.r * self.w1 + self.s * self.w2 - self.s * self.w3

    @property
    def residual(self):
        return _relative_residual(self.reconstruction, self.t_n)


def _check_pollard_degree(nu_basis: OrthoBasis, q_basis: OrthoBasis, n: int):
    if not 0 <= n < nu_basis.degree or n > q_basis.degree:
        raise DegreeOutOfRange(f"Pollard parts need 0 <= n and degree n+1 in both bases, got n = {n}")


def _pollard_setup(nu_basis: OrthoBasis, q_basis: OrthoBasis, n: int, x, extra_singular=()):
    """(rule, x, z, values) of the degree-n Pollard and Psi splits at the points x inside (-1, 1).

    The rule is ``lebesgue_rule_for`` at order max(16, n + 8), x is an array,
    z = (rule nodes, x), and the values are p_{n+1}, (1-t^2) q_n and the
    density of mu at z, one table per basis.
    """
    rule = lebesgue_rule_for(nu_basis.measure, extra_singular, order=max(16, n + 8))
    x = _interior(x)
    z = np.concatenate([rule[0], x])
    q_part = (1 - z**2) * q_basis.eval_all(z, n)[n]
    return rule, x, z, (nu_basis.eval_all(z, n + 1)[n + 1], q_part, nu_basis.measure.base.density(z))


def _pollard_w(values, fz, x, rule):
    """The three Pollard parts at x from the values of ``_pollard_setup`` and f at z = (rule nodes, x)."""
    p_next, q_part, dens = values
    y, wy = rule
    m = len(y)
    wdy = dens[:m] * wy
    w1 = p_next[m:] * np.sum(p_next[:m] * fz[:m] * wdy)
    g2 = q_part * fz * dens
    g3 = p_next * fz * dens
    w2 = p_next[m:] * hilbert_transform(g2, x, rule)
    w3 = q_part[m:] * hilbert_transform(g3, x, rule)
    return w1, w2, w3


def _continuous_partial_sums(nu_basis: OrthoBasis, fs, n: int, x):
    """T_n f(x) for each callable f in fs, independently: projection on the Gauss rule of mu."""
    yq, wq = gauss_points(nu_basis.rec, len(nu_basis.rec))
    coefs, px = _expand(nu_basis, yq, wq, [_as_values(f, yq) for f in fs], n, x)
    return [coef @ px for coef in coefs]


def pollard_coefficients(nu_basis: OrthoBasis, q_basis: OrthoBasis, n: int):
    """(r_n, s_n) of the Pollard split in closed form from the two recurrences.

    (1-y^2) d-nu is the measure of the q_n, so (1-y^2) q_n lies in the span of
    p_n, p_{n+1}, p_{n+2}; the Christoffel-Darboux formula then gives, with
    t^2 = b_{n+1}(nu) prod_{k<=n} b_k(nu) / b_k(q) (b_0 the total mass),
    r_n = -t^2 / (1+t^2) and s_n = t / (1+t^2); both products underflow by
    n ~ 540, so t^2 is formed as a product of ratios.  As t -> 1 the limits
    are -1/2 and 1/2.
    """
    _check_pollard_degree(nu_basis, q_basis, n)
    b_nu, b_q = nu_basis.nu_rec.betas, q_basis.nu_rec.betas
    t2 = float(b_nu[n + 1] * np.prod(b_nu[: n + 1] / b_q[: n + 1]))
    return -t2 / (1.0 + t2), math.sqrt(t2) / (1.0 + t2)


def fit_pollard_coefficients(nu_basis: OrthoBasis, q_basis: OrthoBasis, n: int):
    """Extract (r_n, s_n) by least squares against independently computed T_n.

    Uses three random polynomial test functions (seed 7) on a fixed interior test grid;
    also returns the condition number of the 3-column fit.  This is the
    reference for ``pollard_coefficients`` in the tests and the benchmark;
    the library itself never calls it.
    """
    _check_pollard_degree(nu_basis, q_basis, n)
    x = np.linspace(-0.87, 0.87, 31) + 1.3e-4  # interior, off the nodes
    rule, x, z, values = _pollard_setup(nu_basis, q_basis, n, x)
    rng = np.random.default_rng(7)
    rows, polys = [], []
    for _ in range(3):
        # a degree-(n+1) component is required: without it the rank-one part
        # integrates to zero against an absolutely continuous measure
        c = np.zeros(n + 2)
        low = rng.standard_normal(min(n, 8) + 1)
        c[: len(low)] = low
        c[n + 1] = rng.standard_normal() + 2.0
        fpoly = np.polynomial.Polynomial(c)
        rows.append(np.column_stack(_pollard_w(values, fpoly(z), x, rule)))
        polys.append(fpoly)
    target = _continuous_partial_sums(nu_basis, polys, n, x)
    M = np.vstack(rows)
    t = np.concatenate(target)
    coef, _, rank, sv = np.linalg.lstsq(M, t, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if rank < 3 or cond > 1e12:
        raise IllConditionedFit(f"Pollard fit ill-conditioned (cond={cond:.3g})")
    r = float(coef[0])
    s = float((coef[1] - coef[2]) / 2)
    return r, s, float(cond)


def pollard_parts(nu_basis: OrthoBasis, q_basis: OrthoBasis, f, n: int, x) -> PollardParts:
    """Pollard split of T_n f at the points x inside (-1, 1); f is a callable on [-1, 1]."""
    r, s = pollard_coefficients(nu_basis, q_basis, n)
    rule, x, z, values = _pollard_setup(nu_basis, q_basis, n, x)
    w1, w2, w3 = _pollard_w(values, _as_values(f, z), x, rule)
    (t_vals,) = _continuous_partial_sums(nu_basis, [f], n, x)
    return PollardParts(n, r, s, x, w1, w2, w3, t_vals)


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
        return _relative_residual(self.reconstruction, self.direct)


def commutator_psi_parts(
    mu_basis: OrthoBasis, q_basis: OrthoBasis, b, f, n: int, x, b_singularities=(),
) -> CommutatorParts:
    """Evaluate the Psi operators of the commutator split at the points x.

    Applies to the partial sums of the absolutely continuous measure; b and f
    are callables on [-1,1].  b_I is the Lebesgue mean of b over the interval,
    and the Psi parts combine the Pollard parts W1..W3 of f and of b f.
    ``b_singularities`` lists locations where b blows up so the quadrature can
    grade toward them.
    """
    if mu_basis.measure.masses:
        raise SpecError("the Psi split applies to the absolutely continuous part")
    r, s = pollard_coefficients(mu_basis, q_basis, n)
    rule, x, z, values = _pollard_setup(mu_basis, q_basis, n, x, b_singularities)
    y, wy = rule
    m = len(y)
    bz, fz = _as_values(b, z), _as_values(f, z)
    by, bx = bz[:m], bz[m:]
    b_mean = float(np.sum(by * wy) / 2.0)

    w1, w2, w3 = _pollard_w(values, fz, x, rule)
    bw1, bw2, bw3 = _pollard_w(values, bz * fz, x, rule)
    psi1 = (bx - b_mean) * w1
    psi2 = bw1 - b_mean * w1
    psi3 = bx * w2 - bw2
    psi4 = bx * w3 - bw3

    # direct evaluation of b S_n f - S_n(b f) by the same quadrature
    wdy = values[2][:m] * wy
    (coef_f, coef_bf), px = _expand(mu_basis, y, wdy, [fz[:m], by * fz[:m]], n, x)
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
    """Closed form Q_n(0) = Gamma(n+alpha+2)^{1/2} / (Gamma(alpha+2) n!^{1/2}), as the running
    product Q_k(0)^2 = Q_{k-1}(0)^2 (1 + (alpha+1)/k) from Q_0(0)^2 = 1 / Gamma(alpha+2)."""
    n = np.asarray(n, dtype=int)
    ratios = 1.0 + (alpha + 1) / np.arange(1, n.max(initial=0) + 1)
    return np.sqrt(np.cumprod(np.concatenate(([1.0 / math.gamma(alpha + 2)], ratios))))[n]


def laguerre_mass_kernel(alpha: float, M: float, n: int, x):
    """Kernel values L_n(x, 0) = r_n Q_n(x) for e^{-x} x^alpha dx + M delta_0.

    Returns (L_n(x,0), r_n) with r_n = L_n(0,0)/Q_n(0) > 0.
    """
    nu_basis = basis_for(MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, M),)), n)
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
