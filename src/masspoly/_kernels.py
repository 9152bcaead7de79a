"""Hot numeric kernel: forward three-term recurrence evaluation, vectorized over points."""

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; perfbench/run.py still reads this flag


def recurrence_table(alphas, sqrt_betas, x, nmax):
    """Values P_0(x)..P_nmax(x) of the orthonormal system, shape (nmax+1, len(x)).

    alphas[k], sqrt_betas[k] = sqrt(beta_k) with beta_0 the total mass; the
    arrays must have length >= nmax+1.
    """
    x = np.ascontiguousarray(x, dtype=float)
    alphas = np.ascontiguousarray(alphas, dtype=float)
    sqrt_betas = np.ascontiguousarray(sqrt_betas, dtype=float)
    if nmax > alphas.shape[0] or nmax + 1 > sqrt_betas.shape[0]:
        raise ValueError("recurrence arrays too short for requested degree")
    out = np.empty((nmax + 1, x.shape[0]))
    out[0] = 1.0 / sqrt_betas[0]
    if nmax >= 1:
        out[1] = (x - alphas[0]) * out[0] / sqrt_betas[1]
    for k in range(1, nmax):
        out[k + 1] = ((x - alphas[k]) * out[k] - sqrt_betas[k] * out[k - 1]) / sqrt_betas[k + 1]
    return out
