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

    Each row is ((x - a_k) P_k - sqrt(b_k) P_{k-1}) / sqrt(b_{k+1}), computed
    in place in its row of the output with one scratch row.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if nmax > len(alphas) or nmax + 1 > len(sqrt_betas):
        raise ValueError("recurrence arrays too short for requested degree")
    d = 0 if head is None else len(head) - 1
    if d > nmax:
        raise ValueError(f"head holds degrees up to {d}, beyond the requested {nmax}")
    a = np.asarray(alphas[d:nmax], dtype=float).tolist()
    sb = np.asarray(sqrt_betas[d : nmax + 1], dtype=float).tolist()
    # buf holds P_{d-1}, P_d, P_{d+1}, ..., P_nmax, with P_{-1} = 0
    buf = np.empty((nmax - d + 2, x.shape[0]))
    buf[0] = head[d - 1] if d else 0.0
    buf[1] = 1.0 / sb[0] if head is None else head[d]
    tmp = np.empty_like(x)
    for i in range(1, nmax - d + 1):
        row = buf[i + 1]
        np.subtract(x, a[i - 1], row)
        np.multiply(row, buf[i], row)
        np.multiply(buf[i - 1], sb[i - 1], tmp)
        np.subtract(row, tmp, row)
        np.divide(row, sb[i], row)
    return buf[1:] if head is None else buf[2:]
