"""Exact rational reference pipeline for small degree caps.

Moments of the measure are computed in exact Fraction arithmetic whenever the
weight is polynomial-representable (integer edge exponents, even integer
interior exponents, integer Laguerre parameter); monic orthogonal polynomials
then follow from exact Gram-Schmidt on the moment functional.  Results are
frozen references against which the floating-point construction is verified.

Degree caps are deliberately small (N <= 12): exact Hankel arithmetic explodes
combinatorially and the orthonormalization it certifies is the same at any N.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegreeOutOfRange, HankelSingular, Irrational
from .measure import GenJacobiSpec, LaguerreSpec, MeasureSpec

MAX_ORACLE_DEGREE = 12


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_pow(a, k: int):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _weight_polynomial(base: GenJacobiSpec):
    """The weight as an exact polynomial in x, or raise Irrational."""
    for val, name in ((base.alpha, "alpha"), (base.beta, "beta")):
        if val != int(val) or val < 0:
            raise Irrational(f"{name}={val} is not a nonnegative integer")
    poly = _poly_mul(
        _poly_pow([Fraction(1), Fraction(-1)], int(base.alpha)),  # (1 - x)^alpha
        _poly_pow([Fraction(1), Fraction(1)], int(base.beta)),  # (1 + x)^beta
    )
    for t, g in base.singularities:
        if g != int(g) or int(g) < 0 or int(g) % 2 != 0:
            raise Irrational(f"interior exponent {g} at t={t} is not an even integer")
        poly = _poly_mul(poly, _poly_pow([Fraction(-Fraction(t)), Fraction(1)], int(g)))
    return poly


def rational_moments(spec: MeasureSpec, upto: int):
    """Exact moments m_0..m_upto of the measure, as Fractions.

    Mass locations and sizes are binary floats, hence exact rationals.
    Raises Irrational when the continuous part has no rational moments.
    """
    base = spec.base
    moments = [Fraction(0)] * (upto + 1)
    if isinstance(base, GenJacobiSpec):
        poly = _weight_polynomial(base)
        for n in range(upto + 1):
            # int_{-1}^{1} x^{n+j} dx = 2/(n+j+1) for even powers
            m = Fraction(0)
            for j, cj in enumerate(poly):
                if cj and (n + j) % 2 == 0:
                    m += cj * Fraction(2, n + j + 1)
            moments[n] = m
    elif isinstance(base, LaguerreSpec):
        if base.alpha != int(base.alpha) or base.alpha < 0:
            raise Irrational(f"Laguerre alpha={base.alpha} is not a nonnegative integer")
        a = int(base.alpha)
        for n in range(upto + 1):
            moments[n] = Fraction(math.factorial(n + a))
    else:
        raise Irrational(f"no rational moments for base {base!r}")
    for mp in spec.masses:
        loc = Fraction(mp.location)
        mass = Fraction(mp.mass)
        pw = Fraction(1)
        for n in range(upto + 1):
            moments[n] += mass * pw
            pw *= loc
    return moments


def check_hankel(moments, N: int):
    """Verify positive definiteness of the (N+1)x(N+1) moment Hankel matrix.

    Exact fraction-free Gaussian elimination on leading principal minors;
    raises HankelSingular on a nonpositive minor.
    """
    if len(moments) < 2 * N + 1:
        raise DegreeOutOfRange("need moments up to order 2N")
    H = [[moments[i + j] for j in range(N + 1)] for i in range(N + 1)]
    for k in range(N + 1):
        pivot = H[k][k]
        if pivot <= 0:
            raise HankelSingular(f"Hankel minor {k + 1} is not positive")
        for i in range(k + 1, N + 1):
            fac = H[i][k] / pivot
            for j in range(k, N + 1):
                H[i][j] -= fac * H[k][j]
    return True


def exact_monic_orthogonal(spec: MeasureSpec, N: int):
    """Monic orthogonal polynomials p_0..p_N and squared norms, all exact.

    Returns (coeff rows as Fraction lists, norms h_k, alphas a_k, betas b_k)
    with the convention b_0 = m_0 = total mass.
    """
    if N > MAX_ORACLE_DEGREE:
        raise DegreeOutOfRange(f"oracle degree cap is {MAX_ORACLE_DEGREE}, got {N}")
    moments = rational_moments(spec, 2 * N + 1)
    check_hankel(moments, N)

    def ip(c1, c2):
        # <p, q> for coefficient lists against the moment functional
        s = Fraction(0)
        for i, a in enumerate(c1):
            if a:
                for j, b in enumerate(c2):
                    if b:
                        s += a * b * moments[i + j]
        return s

    polys = [[Fraction(1)]]
    h = [moments[0]]
    alphas, betas = [], [moments[0]]
    for k in range(N):
        pk = polys[k]
        xpk = [Fraction(0)] + pk
        a_k = ip(xpk, pk) / h[k]
        alphas.append(a_k)
        nxt = [c for c in xpk]
        for i, c in enumerate(pk):
            nxt[i] -= a_k * c
        if k > 0:
            b_k = h[k] / h[k - 1]
            for i, c in enumerate(polys[k - 1]):
                nxt[i] -= b_k * c
        polys.append(nxt)
        h_next = ip(nxt, nxt)
        if h_next <= 0:
            raise HankelSingular(f"nonpositive norm at degree {k + 1}")
        h.append(h_next)
        if k > 0:
            betas.append(h[k] / h[k - 1])
    if N >= 1:
        betas.append(h[N] / h[N - 1])
        # alphas has N entries, betas N+1 (b_0..b_N); trim to match length N+1 runs
    # alpha_N needed to give N+1 recurrence rows
    pN = polys[N]
    alphas.append(ip([Fraction(0)] + pN, pN) / h[N])
    return polys, h, alphas, betas


def oracle_recurrence(spec: MeasureSpec, N: int):
    """Float arrays (alphas, betas) of length N+1 from the exact pipeline."""
    _, _, alphas, betas = exact_monic_orthogonal(spec, N)
    return (
        np.array([float(a) for a in alphas]),
        np.array([float(b) for b in betas]),
    )


def oracle_orthonormal_coefficients(spec: MeasureSpec, N: int):
    """Monomial coefficient triangle of the orthonormal system, sign of the
    leading coefficient positive; float output from exact fractions."""
    polys, h, _, _ = exact_monic_orthogonal(spec, N)
    C = np.zeros((N + 1, N + 1))
    for k, (pk, hk) in enumerate(zip(polys, h)):
        scale = 1.0 / float(hk) ** 0.5
        for i, c in enumerate(pk):
            C[k, i] = float(c) * scale
    return C

