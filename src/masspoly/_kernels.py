"""Hot numeric kernel: forward three-term recurrence evaluation, vectorized over points."""

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; perfbench/run.py still reads this flag


def recurrence_table(alphas, sqrt_betas, x, nmax, head=None):
    """Values P_0(x)..P_nmax(x) of the orthonormal system, shape (nmax+1, len(x)).

    alphas[k], sqrt_betas[k] = sqrt(beta_k) with beta_0 the total mass; the
    arrays must have length >= nmax+1.

    ``head``, the rows P_0..P_d of this table at the same x, extends it: only
    the rows P_{d+1}..P_nmax are computed, from the last two rows of ``head``,
    and returned, shape (nmax-d, len(x)).  Each row depends on the two before
    it only, so they are the floats of the rows of the whole table.
    """
    x = np.ascontiguousarray(x, dtype=float)
    alphas = np.ascontiguousarray(alphas, dtype=float)
    sqrt_betas = np.ascontiguousarray(sqrt_betas, dtype=float)
    if nmax > alphas.shape[0] or nmax + 1 > sqrt_betas.shape[0]:
        raise ValueError("recurrence arrays too short for requested degree")
    d = 0 if head is None else len(head) - 1
    if d > nmax:
        raise ValueError(f"head holds degrees up to {d}, beyond the requested {nmax}")
    # buf holds P_{d-1}, P_d, P_{d+1}, ..., P_nmax, with P_{-1} = 0
    buf = np.empty((nmax - d + 2, x.shape[0]))
    buf[0] = head[d - 1] if d else 0.0
    buf[1] = 1.0 / sqrt_betas[0] if head is None else head[d]
    for i, k in enumerate(range(d, nmax), start=1):
        buf[i + 1] = ((x - alphas[k]) * buf[i] - sqrt_betas[k] * buf[i - 1]) / sqrt_betas[k + 1]
    return buf[1:] if head is None else buf[2:]
