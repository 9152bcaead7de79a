"""Reference values the benchmark checks job outputs against.

Nothing here calls the masspoly code paths the benchmark times.  The
references are closed forms, Gauss rules built directly with
``scipy.special.roots_jacobi``, and a discretized Stieltjes step written here.  The exact rational oracle
(``masspoly.oracle``) is the one library module used, and only to check.
"""

from __future__ import annotations

import numpy as np
import scipy.special

# Criterion-1 masses: both endpoints and one interior point.
CRITERION1_MASSES = ((-1.0, 0.5), (0.3, 0.25), (1.0, 0.5))

# Gauss-Jacobi order per cell of the reference rule.  At order 1400 the
# recurrence it gives agrees with this one to 4e-11 up to degree 401.
REFERENCE_ORDER = 1000


def jacobi_window(alpha, beta):
    """Open interval of p where the partial sums of a Jacobi-type weight stay bounded.

    Pollard / Muckenhoupt: 4(m+1)/(2m+3) < p < 4(m+1)/(2m+1) with m = max(alpha, beta).
    A mass at an endpoint leaves the window unchanged (the paper's main theorem).
    """
    m = max(alpha, beta)
    return 4 * (m + 1) / (2 * m + 3), 4 * (m + 1) / (2 * m + 1)


def expected_verdict(p, window):
    lo, hi = window
    return "bounded" if lo < p < hi else "growing"


# ----------------------------------------------------------------------
# generalized Jacobi weight (1-x)^a (1+x)^b |x|: a rule independent of opoly


def genjacobi_rule(alpha, beta):
    """Gauss rule for (1-x)^alpha (1+x)^beta |x| on [-1, 1], split at 0.

    Each cell carries one Gauss-Jacobi rule that absorbs both algebraic
    factors at its ends; the remaining factor is analytic on the cell.
    """
    s, w = scipy.special.roots_jacobi(REFERENCE_ORDER, 1.0, beta)
    xl = (s - 1.0) / 2.0  # cell [-1, 0]
    wl = w * 0.5 ** (beta + 2.0) * (1.0 - xl) ** alpha
    s, w = scipy.special.roots_jacobi(REFERENCE_ORDER, alpha, 1.0)
    xr = (s + 1.0) / 2.0  # cell [0, 1]
    wr = w * 0.5 ** (alpha + 2.0) * (1.0 + xr) ** beta
    return np.concatenate([xl, xr]), np.concatenate([wl, wr])


def stieltjes(x, w, n):
    """Recurrence coefficients (alphas, betas) of sum_j w_j delta_{x_j}, betas[0] = mass."""
    alphas = np.zeros(n)
    betas = np.zeros(n)
    betas[0] = w.sum()
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / np.sqrt(betas[0]))
    for k in range(n):
        alphas[k] = np.sum(w * x * p * p)
        if k == n - 1:
            break
        q = (x - alphas[k]) * p - np.sqrt(betas[k]) * p_prev if k else (x - alphas[0]) * p
        betas[k + 1] = np.sum(w * q * q)
        p_prev, p = p, q / np.sqrt(betas[k + 1])
    return alphas, betas


class GenJacobiReference:
    """Reference rule and recurrence for one (alpha, beta) with |x| at 0."""

    def __init__(self, alpha, beta, degree):
        self.nodes, self.weights = genjacobi_rule(alpha, beta)
        self.alphas, self.betas = stieltjes(self.nodes, self.weights, degree + 1)

    def recurrence_error(self, alphas, betas):
        """Largest deviation of a recurrence from the reference (relative for betas)."""
        n = len(alphas)
        return float(max(
            np.max(np.abs(np.asarray(alphas) - self.alphas[:n])),
            np.max(np.abs(np.asarray(betas) / self.betas[:n] - 1.0)),
        ))


def gram_residual(eval_all, degree, nodes, weights, masses=()):
    """max |G - I| for the basis on a rule, point masses appended as nodes."""
    x = np.concatenate([nodes, [a for a, _ in masses]])
    w = np.concatenate([weights, [m for _, m in masses]])
    phi = eval_all(x, degree)
    gram = (phi * w) @ phi.T
    return float(np.max(np.abs(gram - np.eye(degree + 1))))


# ----------------------------------------------------------------------
# Legendre plus masses: kernels from closed-form coefficients


def legendre_table(n, x):
    """Orthonormal Legendre values p_0..p_n at x from the closed-form recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n + 1, len(x)))
    out[0] = np.sqrt(0.5)
    if n >= 1:
        out[1] = np.sqrt(1.5) * x
    for k in range(1, n):
        a = (k + 1) / np.sqrt((2 * k + 1) * (2 * k + 3))
        b = k / np.sqrt((2 * k - 1) * (2 * k + 1))
        out[k + 1] = (x * out[k] - b * out[k - 1]) / a
    return out


def legendre_mass_kernel(n, x, y, masses):
    """L_n(x, y) for Lebesgue measure plus sum M_i delta_{a_i} (Woodbury update).

    With K the Legendre kernel and A the mass locations,
    L_n(x, y) = K(x, y) - K(x, A) (diag(1/M) + K(A, A))^{-1} K(A, y).
    """
    locs = np.array([a for a, _ in masses])
    inv_mass = np.diag([1.0 / m for _, m in masses])
    px, py, pa = legendre_table(n, x), legendre_table(n, y), legendre_table(n, locs)
    k_xy = px.T @ py
    k_xa, k_ay, k_aa = px.T @ pa, pa.T @ py, pa.T @ pa
    return k_xy - k_xa @ np.linalg.solve(inv_mass + k_aa, k_ay)


# ----------------------------------------------------------------------
# Laguerre e^{-x} x^alpha dx plus M delta_0


def laguerre_mass_diagonal(alpha, mass, n):
    """L_k(0, 0), k = 0..n, from the Christoffel function: K / (1 + M K).

    K_k(0, 0) = Gamma(k + alpha + 2) / (Gamma(alpha + 1) Gamma(alpha + 2) k!) is the
    Laguerre kernel at the origin, and a mass M at 0 adds M to 1 / K.
    """
    k = np.arange(n + 1, dtype=float)
    log_k = (scipy.special.gammaln(k + alpha + 2) - scipy.special.gammaln(alpha + 1)
             - scipy.special.gammaln(alpha + 2) - scipy.special.gammaln(k + 1))
    kern = np.exp(log_k)
    return kern / (1.0 + mass * kern)


def laguerre_q_at_zero(alpha, n):
    """Q_k(0), k = 0..n, for e^{-x} x^{alpha+1} dx, signed positive."""
    k = np.arange(n + 1, dtype=float)
    return np.exp(0.5 * scipy.special.gammaln(k + alpha + 2) - scipy.special.gammaln(alpha + 2)
                  - 0.5 * scipy.special.gammaln(k + 1))
