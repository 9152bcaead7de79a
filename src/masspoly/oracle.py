"""Exact rational reference pipeline.

Moments of the measure are computed in exact Fraction arithmetic whenever the
weight is polynomial-representable (integer edge exponents, even integer
interior exponents, integer Laguerre parameter).  Gautschi's Chebyshev
algorithm turns the moments m_0..m_{2N+1} into the exact recurrence in O(N^2)
rational operations, and the monic orthogonal polynomials follow from it.
Results are frozen references against which the floating-point construction
is verified.

The degree is capped at MAX_ORACLE_DEGREE.  The cost of each operation grows
with the size of the rationals: atoms at +-1 or none keep them small, while an
interior atom at a decimal location (a binary float with a long denominator)
makes them grow quickly with N.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegreeOutOfRange, HankelSingular, Irrational
from .measure import GenJacobiSpec, LaguerreSpec, MeasureSpec, is_polynomial

MAX_ORACLE_DEGREE = 300


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
    """The weight as an exact polynomial in x, or raise Irrational at its first factor that is not one."""
    poly = [Fraction(1)]
    for t, e in base.factors:
        if not is_polynomial(t, e):
            end = {1.0: "alpha", -1.0: "beta"}.get(t)
            raise Irrational(f"{end}={e} is not a nonnegative integer" if end
                             else f"interior exponent {e} at t={t} is not an even integer")
        # on [-1, 1], |x - t| is 1 - x at the end 1 and x - t elsewhere (an odd power only at the end -1)
        sign = -1 if t == 1.0 else 1
        poly = _poly_mul(poly, _poly_pow([Fraction(-sign * t), Fraction(sign)], int(e)))
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


def _chebyshev(moments, N: int):
    """Exact (h, alphas, betas) of degrees 0..N from the moments m_0..m_{2N+1}.

    Gautschi's Chebyshev algorithm: row k holds sigma_{k,l} = <p_k, x^l> for
    l = k..2N+1-k, with sigma_{k,l} = sigma_{k-1,l+1} - a_{k-1} sigma_{k-1,l}
    - b_{k-1} sigma_{k-2,l}, so the pass takes O(N^2) operations.  Then
    h_k = sigma_{k,k}, b_k = h_k / h_{k-1} (b_0 = m_0) and a_k is the
    difference of sigma_{k,k+1} / h_k and its value at k - 1.  h_k is the
    ratio of leading Hankel minors k+1 and k, so a nonpositive h_k raises
    HankelSingular exactly where the Hankel matrix stops being positive
    definite.
    """
    if len(moments) < 2 * N + 2:
        raise DegreeOutOfRange(f"need moments up to order {2 * N + 1}")
    older, row = [0] * len(moments), moments  # sigma_{-1} = 0, sigma_0 = m
    h, alphas, betas, ratio = [], [], [], 0
    for k in range(N + 1):
        if k:
            a, b = alphas[-1], betas[-1]
            older, row = row, [0] * k + [row[l + 1] - a * row[l] - b * older[l] for l in range(k, 2 * N + 2 - k)]
        if row[k] <= 0:
            raise HankelSingular(f"Hankel minor {k + 1} is not positive")
        h.append(row[k])
        betas.append(h[k] / h[k - 1] if k else h[0])
        ratio, prev = row[k + 1] / h[k], ratio
        alphas.append(ratio - prev)
    return h, alphas, betas


def exact_monic_orthogonal(spec: MeasureSpec, N: int):
    """Monic orthogonal polynomials p_0..p_N and squared norms, all exact.

    Returns (coeff rows as Fraction lists, norms h_k, alphas a_k, betas b_k)
    with the convention b_0 = m_0 = total mass; the rows follow from the
    three-term recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}.
    """
    if N > MAX_ORACLE_DEGREE:
        raise DegreeOutOfRange(f"oracle degree cap is {MAX_ORACLE_DEGREE}, got {N}")
    h, alphas, betas = _chebyshev(rational_moments(spec, 2 * N + 1), N)
    polys = [[Fraction(1)]]
    for k in range(N):
        nxt = [Fraction(0)] + polys[k]
        for i, c in enumerate(polys[k]):
            nxt[i] -= alphas[k] * c
        if k:
            for i, c in enumerate(polys[k - 1]):
                nxt[i] -= betas[k] * c
        polys.append(nxt)
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

