"""The two degree loops, and the Christoffel weights built on one, against plain loops, float for float.

``opoly._stieltjes`` and ``_kernels.recurrence_table`` run in preallocated
rows with in-place ufuncs.  ``opoly.gauss_points`` sums its Christoffel
numbers over ``recurrence_table`` blocks of 8 degrees and renormalizes after
each block.  Each does the same float operations in the same order as the
loops below, so every coefficient, table row and weight must be bit-identical
to theirs.
"""

import numpy as np
import pytest
import scipy.linalg

from masspoly import GenJacobiSpec, HermiteSpec, LaguerreSpec
from masspoly._kernels import recurrence_table
from masspoly.opoly import _stieltjes, classical_recurrence, gauss_points, genjacobi_discretization


def same(a, b):
    """The same floats bit for bit, so -0.0 is not 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stieltjes_reference(x, w, N):
    alphas = np.zeros(N)
    betas = np.zeros(N)
    b0 = w.sum()
    betas[0] = b0
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / np.sqrt(b0))
    for kk in range(N):
        alphas[kk] = np.sum(w * x * p * p)
        if kk == N - 1:
            break
        q = (x - alphas[kk]) * p - np.sqrt(betas[kk]) * p_prev if kk > 0 else (x - alphas[0]) * p
        bnext = np.sum(w * q * q)
        betas[kk + 1] = bnext
        p_prev = p
        p = q / np.sqrt(bnext)
    return alphas, betas


def recurrence_table_reference(alphas, sqrt_betas, x, nmax, head=None):
    d = 0 if head is None else len(head) - 1
    buf = np.empty((nmax - d + 2, x.shape[0]))
    buf[0] = head[d - 1] if d else 0.0
    buf[1] = 1.0 / sqrt_betas[0] if head is None else head[d]
    for i, k in enumerate(range(d, nmax), start=1):
        buf[i + 1] = ((x - alphas[k]) * buf[i] - sqrt_betas[k] * buf[i - 1]) / sqrt_betas[k + 1]
    return buf[1:] if head is None else buf[2:]


def christoffel_weights_reference(rec, x, m):
    """The running sum rescaled after every step."""
    sb = np.sqrt(rec.betas[:m])
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / sb[0])
    total = p * p
    exponent = np.zeros(x.shape, dtype=int)
    for k in range(m - 1):
        p_prev, p = p, ((x - rec.alphas[k]) * p - sb[k] * p_prev) / sb[k + 1]
        total += p * p
        half = np.frexp(total)[1] // 2
        p_prev, p = np.ldexp(p_prev, -half), np.ldexp(p, -half)
        total = np.ldexp(total, -2 * half)
        exponent += 2 * half
    return np.ldexp(1.0 / total, -exponent)


def test_stieltjes_on_the_generalized_jacobi_discretization_at_n400():
    x, w = genjacobi_discretization(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)), 40 * 401)
    alphas, betas = _stieltjes(x, w, 401)
    ref_alphas, ref_betas = stieltjes_reference(x, w, 401)
    assert same(alphas, ref_alphas) and same(betas, ref_betas)


@pytest.mark.parametrize("base, m", [
    (GenJacobiSpec(0.0, 0.0), 600),
    (GenJacobiSpec(0.0, 0.0), 1200),
    (LaguerreSpec(0.0), 1200),
    (HermiteSpec(), 1000),
    (GenJacobiSpec(0.0, 0.0), 48),
    (GenJacobiSpec(0.0, 0.0), 300),
    (GenJacobiSpec(0.0, 0.0), 1),
    (GenJacobiSpec(0.0, 0.0), 2),
    (GenJacobiSpec(0.0, 0.0), 1500),
    (LaguerreSpec(0.0), 1500),
    (GenJacobiSpec(0.0, 0.0), 1501),
    (LaguerreSpec(0.0), 1501),
    (GenJacobiSpec(0.0, 0.0), 3000),
    (LaguerreSpec(0.0), 3000),
])
def test_gauss_points_weights(base, m):
    # one dsterf call at every order: the nodes of scipy's tridiagonal solver, which ends in dsterf too
    rec = classical_recurrence(base, m)
    x, w = gauss_points(rec, m)
    assert same(x, scipy.linalg.eigvalsh_tridiagonal(rec.alphas, np.sqrt(rec.betas[1:])))
    ref = christoffel_weights_reference(rec, x, m)
    assert same(w, ref)
    if not isinstance(base, GenJacobiSpec):
        assert np.count_nonzero(w == 0.0) > 0  # far weights underflow the same way too


def test_recurrence_table_and_its_head_extension():
    rec = classical_recurrence(GenJacobiSpec(0.5, -0.5), 401)
    al, sb = rec.alphas, np.sqrt(rec.betas)
    x = np.concatenate([np.linspace(-1.0, 1.0, 333), [-0.0, 0.0, 1.25]])
    full = recurrence_table(al, sb, x, 400)
    assert same(full, recurrence_table_reference(al, sb, x, 400))
    for d in (0, 1, 100, 399, 400):
        new = recurrence_table(al, sb, x, 400, head=full[: d + 1])
        assert same(new, recurrence_table_reference(al, sb, x, 400, head=full[: d + 1]))
