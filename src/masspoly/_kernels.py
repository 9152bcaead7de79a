"""Hot numeric kernel: forward three-term recurrence evaluation, vectorized over points."""

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; perfbench/run.py still reads this flag


def recurrence_table(alphas, sqrt_betas, x, nmax, head=None, out=None):
    """Values P_0(x)..P_nmax(x) of the orthonormal system, shape (nmax+1, len(x)).

    alphas[k], sqrt_betas[k] = sqrt(beta_k), beta_0 the total mass, of length
    >= nmax+1.  ``head``, the rows P_0..P_d of this table at the same x,
    extends it: only the rows P_{d+1}..P_nmax are computed, from its last two,
    and returned, each the float of the same row of the whole table
    (``test_recurrence_table_extends_a_head_bit_for_bit``).  The rows are
    computed in place in a buffer of P_{d-1}, P_d, ..., P_nmax (P_{-1} = 0):
    a fresh one, or the leading rows of ``out``, of which the result is a
    view; ``head`` may be the first two rows of ``out``
    (``test_recurrence_table_computes_in_a_reused_buffer_bit_for_bit``).
    """
    x = np.ascontiguousarray(x, dtype=float)
    if nmax > len(alphas) or nmax + 1 > len(sqrt_betas):
        raise ValueError("recurrence arrays too short for requested degree")
    d = 0 if head is None else len(head) - 1
    if d > nmax:
        raise ValueError(f"head holds degrees up to {d}, beyond the requested {nmax}")
    a = np.asarray(alphas[d:nmax], dtype=float).tolist()
    sb = np.asarray(sqrt_betas[d : nmax + 1], dtype=float).tolist()
    size = (nmax - d + 2, x.shape[0])
    buf = np.empty(size) if out is None else out[: size[0]]
    buf[0] = head[d - 1] if d else 0.0
    buf[1] = 1.0 / sb[0] if head is None else head[d]
    tmp = np.empty_like(x)
    prev, cur = buf[0], buf[1]
    for row, a_k, sb_k, sb_next in zip(buf[2:], a, sb, sb[1:]):
        np.subtract(x, a_k, row)
        np.multiply(row, cur, row)
        np.multiply(prev, sb_k, tmp)
        np.subtract(row, tmp, row)
        np.divide(row, sb_next, row)
        prev, cur = cur, row
    return buf[1:] if head is None else buf[2:]
