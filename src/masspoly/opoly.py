"""Orthonormal polynomial systems: recurrences, mass-point updates, kernels.

Construction paths:
  * classical three-term recurrences for Jacobi / Laguerre / Hermite weights,
  * discretized Stieltjes recurrences for generalized Jacobi weights, from
    the ``GenJacobiSpec`` alone: ``genjacobi_discretization`` (the density
    times ``lebesgue_rule``, composite Gauss-Jacobi cells split at every
    algebraic singularity), optionally in double-double arithmetic; the
    degree N alone sizes the discretization, about 40N nodes, and no caller
    sets it,
  * every change of measure as a ``Recurrence`` -> ``Recurrence`` step on
    mu's Jacobi matrix, O(N) each: RKPW Givens rotations add point masses,
    a QR step gives (x-a)^2 d-mu at any real a, a Cholesky step (1 -+ x) d-mu.
    Only mu itself is ever discretized.

``lebesgue_rule`` is the library's one graded composite rule: the Lebesgue
rules of ``transforms`` come from it too.

Each ``Recurrence`` keeps one table, the last one ``Recurrence.table``
computed; ``OrthoBasis.eval_all`` reads the table of ``nu_rec``.  A request at
the same points up to its degree is a read-only view of it; a higher degree
extends it by the new rows only, from its last two; new points replace it.
Every returned table is read-only and bit-identical to a table computed from
degree 0.  ``_kernels.recurrence_table`` is the one loop over degrees at
points; ``gauss_points`` sums its Christoffel numbers over its blocks too.

The library installs and runs on numpy alone: the Gauss-Jacobi panels of
``lebesgue_rule`` come from ``gauss_points`` on the closed-form Jacobi
recurrence, and ``gauss_points`` takes its nodes from LAPACK's ``dsterf`` in
the LAPACK ``numpy.linalg`` links at every order.  scipy is optional: only a
numpy whose LAPACK does not export ``dsterf`` needs scipy's binding of the
same routine, and without scipy there ``gauss_points`` raises EigenFailure.
The tests and the benchmark's references use scipy.  Where scipy is
installed, ``scipy.special`` is registered in ``sys.modules`` as a lazy
module (``_lazy_module``) only so that a tracer that looks ``roots_jacobi``
up there and wraps it finds it; the library never calls it, and the
registration goes once the tracer stops looking it up.

Kernels L_n(x,y) = sum_{j<=n} P_j(x) P_j(y) are provided on top, with the
convex-combination decomposition of L_n over Christoffel-modified measures:
its coefficients come in closed form from mu's kernel at the mass points
(Christoffel-Uvarov), and the modified recurrences only check the identity.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg._umath_linalg  # the LAPACK numpy links, where _dsterf finds dsterf
import numpy.polynomial.legendre  # leggauss; `import numpy` alone does not load it

from ._kernels import recurrence_table
from .errors import (
    DegreeOutOfRange,
    EigenFailure,
    GridTooSmall,
    NumericalBreakdown,
    SpecError,
)
from .measure import (
    GenJacobiSpec,
    HermiteSpec,
    LaguerreSpec,
    MeasureSpec,
    at_end,
)


def _lazy_module(name):
    """The submodule ``name``, in ``sys.modules``, whose body runs on its first attribute access.

    The ``importlib.util.LazyLoader`` recipe of the Python docs, with the spec
    found by ``importlib.machinery.PathFinder`` on the search path of the
    parent package's spec, so that neither the submodule nor its parent
    package runs any code now; a module already imported is returned as it
    is.  It exists only for ``scipy.special``, which a tracer looks up in
    ``sys.modules`` to wrap ``roots_jacobi``; the library does not call it,
    and registers it only where scipy is installed.
    """
    if name in sys.modules:
        return sys.modules[name]
    parent, _, _ = name.rpartition(".")
    path = importlib.util.find_spec(parent).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


if importlib.util.find_spec("scipy") is not None:
    _lazy_module("scipy.special")

# ----------------------------------------------------------------------
# recurrences


@dataclass(frozen=True)
class Recurrence:
    """Three-term recurrence coefficients a_k, b_k (k = 0..N-1), b_0 = total mass.

    Orthonormal forward recurrence:
        sqrt(b_{k+1}) P_{k+1}(x) = (x - a_k) P_k(x) - sqrt(b_k) P_{k-1}(x),
        P_0 = 1/sqrt(b_0),  P_{-1} = 0.

    A coefficient that is not finite (the first one is named) or a b_k that
    is not positive raises NumericalBreakdown.  The recurrence keeps the last
    table ``table`` computed, read-only.
    """

    alphas: np.ndarray
    betas: np.ndarray
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        for name, values in (("alphas", self.alphas), ("betas", self.betas)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise NumericalBreakdown(f"recurrence {name}[{bad[0]}] is {values[bad[0]]}, not finite")
        if np.any(self.betas <= 0):
            raise NumericalBreakdown("recurrence betas must be positive")

    def __len__(self):
        return len(self.alphas)

    def table(self, x, nmax):
        """Orthonormal values P_0..P_nmax at the points x, shape (nmax+1, len(x)), read-only.

        The recurrence keeps the table it returns, rows P_0..P_d at its points.
        At the same points (bit for bit, so -0.0 is not 0.0), nmax <= d returns
        its leading rows as a view, and nmax > d computes only the rows
        d+1..nmax (``recurrence_table`` with ``head=``) and keeps the longer
        table.  New points get a new table, which replaces the kept one.  Each
        row depends on the two before it only, so every result is bit-identical
        to the table computed from degree 0.  Copy a table to write to it.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = (x.shape, x.tobytes())
        head = self._kept[1] if self._kept is not None and self._kept[0] == key else None
        if head is not None and nmax < len(head):
            return head[: nmax + 1]
        table = recurrence_table(self.alphas, np.sqrt(self.betas), x, nmax, head=head)
        if head is not None:
            table = np.concatenate([head, table])
        table.flags.writeable = False
        object.__setattr__(self, "_kept", (key, table))
        return table


def classical_recurrence(base, N: int) -> Recurrence:
    """Exact recurrence coefficients for Jacobi(alpha,beta), Laguerre(alpha), Hermite."""
    if N < 1:
        raise SpecError("N must be >= 1")
    k = np.arange(N, dtype=float)
    if isinstance(base, GenJacobiSpec):
        if not base.is_classical:
            raise SpecError("generalized Jacobi weights need stieltjes_recurrence")
        a, b = base.alpha, base.beta
        alphas = np.zeros(N)
        betas = np.zeros(N)
        apb = a + b
        alphas[0] = (b - a) / (apb + 2)
        if N > 1:
            kk = k[1:]
            alphas[1:] = (b * b - a * a) / ((2 * kk + apb) * (2 * kk + apb + 2))
        betas[0] = (
            2.0 ** (apb + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(apb + 2)
        )
        if N > 1:
            betas[1] = 4 * (a + 1) * (b + 1) / ((apb + 2) ** 2 * (apb + 3))
        if N > 2:
            kk = k[2:]
            betas[2:] = (
                4 * kk * (kk + a) * (kk + b) * (kk + apb)
                / ((2 * kk + apb) ** 2 * (2 * kk + apb + 1) * (2 * kk + apb - 1))
            )
        return Recurrence(alphas, betas)
    if isinstance(base, LaguerreSpec):
        a = base.alpha
        alphas = 2 * k + a + 1
        betas = k * (k + a)
        betas[0] = math.gamma(a + 1)
        return Recurrence(alphas, betas)
    if isinstance(base, HermiteSpec):
        alphas = np.zeros(N)
        betas = k / 2.0
        betas[0] = math.sqrt(math.pi)
        return Recurrence(alphas, betas)
    raise SpecError(f"no classical recurrence for base {base!r}")


def _stieltjes(x, w, N):
    """Discretized Stieltjes procedure on the discrete measure sum w_j delta_{x_j}.

    In three rotating rows and one scratch row: alpha_k = sum (w x) p_k^2 and
    b_{k+1} = sum w q^2 with q = (x - alpha_k) p_k - sqrt(b_k) p_{k-1}, then
    p_{k+1} = q / sqrt(b_{k+1}).
    """
    x = np.ascontiguousarray(x, dtype=float)
    w = np.ascontiguousarray(w, dtype=float)
    alphas = [0.0] * N
    betas = [0.0] * N
    b0 = float(w.sum())
    if b0 <= 0:
        raise NumericalBreakdown("discretized measure has nonpositive mass")
    betas[0] = b0
    wx = w * x
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(b0))
    q = np.empty_like(x)
    tmp = np.empty_like(x)
    for kk in range(N):
        np.multiply(wx, p, tmp)
        np.multiply(tmp, p, tmp)
        a = alphas[kk] = float(tmp.sum())
        if kk == N - 1:
            break
        np.subtract(x, a, q)
        np.multiply(q, p, q)
        if kk > 0:
            np.multiply(p_prev, math.sqrt(betas[kk]), p_prev)
            np.subtract(q, p_prev, q)
        np.multiply(w, q, tmp)
        np.multiply(tmp, q, tmp)
        bnext = float(tmp.sum())
        if bnext <= 0:
            raise NumericalBreakdown(f"Stieltjes breakdown at step {kk + 1}")
        betas[kk + 1] = bnext
        np.divide(q, math.sqrt(bnext), q)
        p_prev, p, q = p, q, p_prev
    return np.array(alphas), np.array(betas)


# ----------------------------------------------------------------------
# double-double arithmetic (Dekker, Numer. Math. 18, 1971)
#
# A value is a pair (hi, lo) of floats or arrays with hi = fl(hi + lo), about
# 106 significant bits.  numpy has no fused multiply-add, so exact products
# come from Veltkamp splitting; inputs must stay below 2**996 in magnitude.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """_two_sum for |a| >= |b| (or a = 0)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly, barring underflow."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    t, f = _two_sum(a[1], b[1])
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _fast_two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_div(a, b):
    """a / b: the double quotient, corrected by the pair remainder a - q b."""
    q = a[0] / b[0]
    r = _dd_add(a, _dd_mul((-q, 0.0), b))
    return _fast_two_sum(q, r[0] / b[0])


def _dd_sqrt(a):
    """Square root of a positive scalar pair by one Newton step from sqrt(hi)."""
    q = math.sqrt(a[0])
    p, e = _two_prod(q, q)
    return _fast_two_sum(q, ((a[0] - p) - e + a[1]) / (2.0 * q))


def _dd_fsum(terms):
    """Sum of pair arrays as one pair: fsum of the terms, then fsum of the remainder."""
    parts = np.concatenate(terms).tolist()
    s = math.fsum(parts)
    parts.append(-s)
    return s, math.fsum(parts)


def _stieltjes_mp(x, w, N):
    """The Stieltjes procedure of ``_stieltjes`` carried out in double-double.

    Nodes and weights are doubles, so exact pairs.  The polynomial values are
    pairs, and every inner product is summed exactly and rounded once to a
    pair, so the coefficients carry about 106 bits until their final rounding
    to double.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    alphas = np.zeros(N)
    betas = np.zeros(N)
    b = _dd_fsum([w])
    if b[0] <= 0:
        raise NumericalBreakdown("discretized measure has nonpositive mass")
    betas[0] = b[0]
    wx = _two_prod(w, x)
    inv = _dd_div((1.0, 0.0), _dd_sqrt(b))
    p_prev = (0.0, 0.0)
    p = (np.full_like(x, inv[0]), np.full_like(x, inv[1]))
    sb = (0.0, 0.0)
    for kk in range(N):
        a = _dd_fsum(_dd_mul(wx, _dd_mul(p, p)))
        alphas[kk] = a[0]
        if kk == N - 1:
            break
        q = _dd_add(_dd_mul(_dd_add((x, 0.0), (-a[0], -a[1])), p), _dd_mul((-sb[0], -sb[1]), p_prev))
        b = _dd_fsum(_dd_mul((w, 0.0), _dd_mul(q, q)))
        if b[0] <= 0:
            raise NumericalBreakdown(f"Stieltjes breakdown at step {kk + 1}")
        betas[kk + 1] = b[0]
        sb = _dd_sqrt(b)
        p_prev = p
        p = _dd_div(q, sb)
    return alphas, betas


@functools.lru_cache(maxsize=128)
def gauss_jacobi_rule(order: int, a: float = 0.0, b: float = 0.0):
    """Cached order-``order`` Gauss rule for (1-s)^a (1+s)^b ds on [-1, 1].

    Gauss-Legendre (``leggauss``) when a = b = 0.  Otherwise Golub-Welsch on
    the closed-form Jacobi recurrence (``gauss_points``; Golub & Welsch, Math.
    Comp. 23, 1969; Gautschi 2004, §3.1.1), with the weights rescaled to sum
    to the recurrence's b_0, the weight's total mass, as
    ``scipy.special.roots_jacobi`` rescales its own.  Against ``roots_jacobi``
    at orders 24..80 the nodes agree to 1e-15, and the recurrence's Gram
    matrix on the rule is closer to the identity.  The arrays are shared by
    every caller, so they are read-only.
    """
    if a == 0.0 and b == 0.0:
        s, ws = np.polynomial.legendre.leggauss(order)
    else:
        rec = classical_recurrence(GenJacobiSpec(a, b), order)
        s, ws = gauss_points(rec, order)
        ws *= rec.betas[0] / ws.sum()
    s.flags.writeable = False
    ws.flags.writeable = False
    return s, ws


def _cell_rule(c, d, gl, gr, order, levels, ratio):
    """Lebesgue rule on the cell [c, d], ascending; ``gl`` / ``gr`` are the
    exponents of |x - c| / |x - d|, or None where that edge is not graded.

    Each half of the cell is graded geometrically toward its edge: the panel
    edges lie at the offsets 0, h ratio^levels, ..., h ratio, h from it (h the
    half width), and an ungraded half is one panel.  The panel touching a
    graded edge with exponent e != 0 takes the Gauss-Jacobi rule of u^e, so a
    weight times the factor |x - edge|^e read at its node is the panel rule's
    weight of the smooth rest.  That holds at the stored node: every weight of
    the half carries (u / u~)^e for the offset u the panel rule asks for and
    the offset u~ of the float x it is stored as.  Near an edge the floats are
    1e-16 apart while the finest panels of a 45-level rule are 1e-14 wide, so
    without that ratio a factor like |x - 0.3|^(-1/2) is read at the wrong
    place, by up to 17% at order 12.  Where the finest panel's nodes would
    round onto the edge, its level is left out; a half with no level left
    raises NumericalBreakdown.
    """
    mid = 0.5 * (c + d)
    sg, wg = gauss_jacobi_rule(order)
    nodes, weights = [], []
    for edge, sign, e in ((c, 1.0, gl), (d, -1.0, gr)):
        k = 0 if e is None else levels
        while True:
            offs = np.concatenate(([0.0], abs(mid - edge) * ratio ** np.arange(k, -1.0, -1.0)))
            start, half = offs[:-1, None], np.diff(offs)[:, None] / 2.0
            s, w = np.tile(sg, (len(start), 1)), np.tile(wg, (len(start), 1))
            if e:
                s[0], w[0] = gauss_jacobi_rule(order, 0.0, e)
                w[0] /= (1.0 + s[0]) ** e
            u = start + half * (1.0 + s)
            x = edge + sign * u
            stored = sign * (x - edge)
            if np.all(stored > 0.0):
                break
            if k == 0:
                raise NumericalBreakdown(f"order-{order} panel nodes round onto the cell edge {edge}")
            k -= 1
        w = half * w
        if e:
            w *= (u / stored) ** e
        if sign < 0:
            x, w = x[::-1, ::-1], w[::-1, ::-1]
        nodes.append(x.ravel())
        weights.append(w.ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def lebesgue_rule(factors, order, levels, ratio):
    """Composite Gauss rule (nodes, Lebesgue weights) on [-1, 1], graded at ``factors``.

    ``factors`` are (location, exponent) pairs of the factors |x - location|^exponent
    of the integrands; repeated locations add their exponents.  The interval
    is split into cells at every location, and each cell takes a ``_cell_rule``
    graded toward its listed edges with ``levels`` levels at ``ratio``; an
    interval end is graded only when it is listed.  A sum of the weights
    against an integrand holding the factors cancels them node by node, so
    only the smooth rest is left to the panel rules.  A location outside
    [-1, 1] raises SpecError.
    """
    exps = {}
    for loc, e in factors:
        if not -1.0 <= loc <= 1.0:
            raise SpecError(f"singular point {loc} lies outside the interval (-1.0, 1.0)")
        exps[loc] = exps.get(loc, 0.0) + e
    breaks = sorted({-1.0, 1.0, *exps})
    cells = [
        _cell_rule(c, d, exps.get(c), exps.get(d), order, levels, ratio)
        for c, d in zip(breaks[:-1], breaks[1:])
    ]
    return np.concatenate([x for x, _ in cells]), np.concatenate([w for _, w in cells])


# a degree-N Stieltjes recurrence runs on a discretization of about 40N nodes;
# from N = 50 per cell on, the panel order of ``genjacobi_discretization`` sits
# at its cap of 80, so a larger size would change no node
_NODES_PER_DEGREE = 40


def genjacobi_discretization(spec: GenJacobiSpec, m: int):
    """Composite quadrature (nodes, weights) of about m nodes for a generalized Jacobi weight.

    ``lebesgue_rule`` graded at both ends and every interior singularity, 12
    levels at ratio 1/4, times the density: the end panels absorb the local
    algebraic factors, so the rest is analytic panel by panel.  The panel
    order spreads m nodes over the cells, within 24..80.  This is the one
    place a discretization is sized: ``stieltjes_recurrence`` calls it at
    m = 40N, and checks call it at any m.
    """
    levels = 12
    ncells = len(spec.factors) - 1  # the spec's locations are distinct
    order = min(80, max(24, int(math.ceil(m / (ncells * (2 * levels + 1))))))
    x, w = lebesgue_rule(spec.factors, order, levels, 0.25)
    return x, w * spec.density(x)


def stieltjes_recurrence(base: GenJacobiSpec, N: int, high_precision=False) -> Recurrence:
    """Recurrence of a generalized Jacobi weight, by the discretized Stieltjes procedure.

    The procedure runs on ``genjacobi_discretization(base, 40N)``, in
    double-double with ``high_precision``.
    """
    if not isinstance(base, GenJacobiSpec):
        raise SpecError(f"stieltjes_recurrence discretizes generalized Jacobi weights, not {base!r}")
    if N < 1:
        raise SpecError("N must be >= 1")
    x, w = genjacobi_discretization(base, _NODES_PER_DEGREE * N)
    alphas, betas = (_stieltjes_mp if high_precision else _stieltjes)(x, w, N)
    return Recurrence(alphas, betas)


def recurrence_for(base, N: int, high_precision=False) -> Recurrence:
    """Recurrence of the continuous base weight, dispatched on its structure."""
    if isinstance(base, GenJacobiSpec) and not base.is_classical:
        return stieltjes_recurrence(base, N, high_precision)
    return classical_recurrence(base, N)


@functools.cache
def _dsterf(names=("scipy_dsterf_64_", "dsterf_64_")):
    """LAPACK's ``dsterf`` as a function (diagonal, off-diagonal) -> (eigenvalues ascending, info).

    The symbol is looked up through the handle of ``numpy.linalg._umath_linalg``,
    and dlsym searches that library's dependencies, so it is the LAPACK
    ``numpy.linalg`` already links: ``scipy_dsterf_64_`` in numpy >= 2
    wheels, ``dsterf_64_`` in older ILP64 ones, both with 64-bit integers.
    A numpy whose LAPACK exports neither name (Accelerate, MKL) gets
    ``scipy.linalg.lapack.dsterf``, the same routine through scipy's binding,
    and raises EigenFailure where scipy is not installed.  Neither argument is
    written to.
    """
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    found = [getattr(lib, name) for name in names if hasattr(lib, name)]
    if not found:
        try:
            from scipy.linalg.lapack import dsterf
        except ImportError:
            raise EigenFailure("no binding of LAPACK's dsterf: numpy's LAPACK does not export it, "
                               "and scipy, whose binding stands in, is not installed") from None

        # scipy's wrapper wants one off-diagonal entry at order 1, which dsterf does not read
        return lambda d, e: dsterf(d, e if len(d) > 1 else np.zeros(1))
    sterf = found[0]
    int64 = ctypes.POINTER(ctypes.c_int64)
    sterf.argtypes, sterf.restype = (int64, ctypes.c_void_p, ctypes.c_void_p, int64), None

    def call(d, e):
        d, e = np.array(d, dtype=float), np.array(e, dtype=float)  # copies: dsterf overwrites both
        info = ctypes.c_int64()
        sterf(ctypes.byref(ctypes.c_int64(len(d))), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
        return d, info.value

    return call


def gauss_points(rec: Recurrence, m: int):
    """Gauss rule (nodes, weights) of order m from the recurrence.

    The nodes are the eigenvalues of the Jacobi matrix (Golub-Welsch), from
    one call of LAPACK's ``dsterf`` (``_dsterf``) on its diagonal and
    off-diagonal at every order: the implicit QL/QR iteration, O(m^2) time
    and O(m) memory.  numpy's dense ``eigvalsh`` and
    ``scipy.linalg.eigvalsh_tridiagonal`` end in the same routine, and their
    nodes are the same floats.  If ``dsterf`` does not converge, EigenFailure
    is raised; the coefficients it is given are finite, as ``Recurrence``
    refuses any other.

    Weights are Christoffel numbers 1 / sum_{k<m} P_k(x_j)^2, which keep
    relative accuracy down to the tiny weights at far Laguerre / Hermite
    nodes; Golub-Welsch eigenvector weights only have absolute accuracy.

    The rows come from ``recurrence_table`` in blocks of 8 degrees, computed
    in one reused buffer, each seeded (``head``) by the last two rows before
    it rescaled by 2^-h, the sum by 2^-2h, h half the sum's binary exponent,
    so far nodes cannot overflow.
    A power of two scales a float exactly while it neither overflows nor turns
    subnormal, and every step (a recurrence row, a square, a sum) commutes
    with one common scaling of its inputs, so the weights are the floats of a
    rescale after every step.  Between rescales the sum stays below 2^166 on
    Laguerre(0) at m = 1200 (2^199 at m = 5000), far inside the exponent range.
    """
    if not 1 <= m <= len(rec):
        raise GridTooSmall(f"rule order {m} is outside 1..{len(rec)}, the orders the recurrence reaches")
    x, info = _dsterf()(rec.alphas[:m], np.sqrt(rec.betas[1:m]))
    if info > 0:
        raise EigenFailure(f"the Gauss nodes of order {m} did not converge: LAPACK's dsterf left "
                           f"{info} off-diagonal entries of the Jacobi matrix nonzero")
    sb = np.sqrt(rec.betas[:m])
    square, total = np.empty_like(x), np.zeros_like(x)
    exponent = np.zeros(x.shape, dtype=int)  # sum_k P_k^2 = total * 2**exponent
    buf = np.empty((10, m))  # the head P_{d-1}, P_d, then a block of 8 rows
    top = min(8, m - 1)
    rows = recurrence_table(rec.alphas, sb, x, top, out=buf)  # P_0..P_top, then P_{d+1}..P_top
    while True:
        for row in rows:
            np.multiply(row, row, square)
            np.add(total, square, total)
        if top and top % 8 == 0:
            half = np.frexp(total)[1] // 2
            np.ldexp(rows[-2:], -half, out=buf[:2])  # a full block: rows[-2:] are buf[8:10]
            np.ldexp(total, -2 * half, total)
            exponent += 2 * half
        if top == m - 1:
            break
        d, top = top, min(top + 8, m - 1)
        # the coefficients from degree d-1 on: the head is P_{d-1}, P_d
        rows = recurrence_table(rec.alphas[d - 1 :], sb[d - 1 :], x, top - d + 1, head=buf[:2], out=buf)
    return x, np.ldexp(1.0 / total, -exponent)


# ----------------------------------------------------------------------
# bases


def _check_degree(n, cap=math.inf):
    """Raise DegreeOutOfRange unless 0 <= n <= cap."""
    if n < 0:
        raise DegreeOutOfRange(f"degree {n} is below 0, the lowest degree a basis reaches")
    if n > cap:
        raise DegreeOutOfRange(f"degree {n} exceeds cap {cap}")


@dataclass
class OrthoBasis:
    """Evaluation-ready orthonormal system for a MeasureSpec up to a degree cap.

    ``nu_rec`` is the recurrence of the whole measure nu and drives every
    evaluation; its length sets the degree cap.  ``rec`` stays the recurrence
    of the continuous part mu (the same object when the measure carries no
    point masses).
    """

    measure: MeasureSpec
    rec: Recurrence
    nu_rec: Recurrence

    @property
    def degree(self):
        return len(self.nu_rec) - 1

    def eval_all(self, x, upto: int | None = None):
        """Values P_0..P_upto at points x, shape (upto+1, len(x)), as a read-only array.

        This is ``nu_rec.table(x, upto)``: the kept table lives on ``nu_rec``,
        so a request at its points reads or extends it (``Recurrence.table``).
        A degree outside 0..cap raises DegreeOutOfRange.
        """
        n = self.degree if upto is None else upto
        _check_degree(n, self.degree)
        return self.nu_rec.table(x, n)


def add_mass_points(rec: Recurrence, masses) -> Recurrence:
    """Recurrence of nu = mu + sum M_i delta_{a_i} from the recurrence ``rec`` of mu.

    RKPW (Gragg & Harrod, Numer. Math. 44, 1984; Gautschi 2004, §2.2.3): the
    Jacobi matrix J of degrees 0..N (N + 1 = len(rec)) encodes the Gauss rule
    of order N+1 of mu without forming it, and each atom enters J through one
    sweep of Givens rotations that restores tridiagonal form, O(N) per atom.
    The rule plus the atoms integrates nu exactly to degree 2N+1, so the
    coefficients are exact through degree N.  Entry k of a sweep reads only
    entries <= k, so the sweeps stop at degree N and leave out the rows the
    atoms add below.  Without masses ``rec`` itself is returned.
    """
    if not masses:
        return rec
    # Gautschi's names: p0, p1 the diagonal and squared off-diagonal of J
    p0 = rec.alphas.tolist()
    p1 = rec.betas.tolist()
    for mp in masses:
        xlam, pn = mp.location, mp.mass
        gam, sig, t = 1.0, 0.0, 0.0
        for k in range(len(p0)):
            rho = p1[k] + pn
            tmp = gam * rho
            tsig = sig
            gam = p1[k] / rho
            sig = pn / rho
            tk = sig * (p0[k] - xlam) - gam * t
            p0[k] -= tk - t
            t = tk
            pn = t * t / sig if sig > 0.0 else tsig * p1[k]
            p1[k] = tmp
    return Recurrence(p0, p1)


# ----------------------------------------------------------------------
# Christoffel steps (Kautsky & Golub, Linear Algebra Appl. 52/53, 1983; Gautschi 2004, §2.4) on
# mu's Jacobi matrix J of degrees 0..N-1: one entry shorter, as the last needs J's next row.


def quadratic_step(rec: Recurrence, a: float) -> Recurrence:
    """Recurrence of (x-a)^2 d-mu from that of mu, for any real a: one shifted QR step.

    J - aI = QR by Givens rotations (c_k, s_k); RQ + aI is the new J, with
    (RQ)_kk = R_kk c_{k-1} c_k + R_{k,k+1} s_k and (RQ)_{k+1,k} = R_{k+1,k+1} s_k,
    and b_0 becomes b_0 R_00^2 = int (x-a)^2 d-mu.
    """
    d = (rec.alphas - a).tolist()
    e = np.sqrt(rec.betas).tolist() + [0.0]  # e[k] couples degrees k-1 and k
    n = len(d) - 1
    alphas, betas = [0.0] * n, [0.0] * n
    x, y = d[0], e[1]  # entries (k, k) and (k, k+1) of row k, reduced up to column k
    c_prev, s_prev = 1.0, 0.0
    for k in range(n):
        r = math.hypot(x, e[k + 1])
        c, s = x / r, e[k + 1] / r
        alphas[k] = r * c_prev * c + (c * y + s * d[k + 1]) * s + a
        betas[k] = (r * s_prev) ** 2 if k else rec.betas[0] * r * r
        x, y = c * d[k + 1] - s * y, c * e[k + 2]
        c_prev, s_prev = c, s
    return Recurrence(alphas, betas)


def linear_step(rec: Recurrence, sign: float) -> Recurrence:
    """Recurrence of (1 - sign x) d-mu from that of mu, sign = +-1: one Cholesky step.

    I - sign J = L L^T; sign (I - L^T L) is the new J, and b_0 becomes
    b_0 L_00^2.  Square-root free, in u_k = L_kk^2 and L_{k,k-1}^2 = b_k / u_{k-1}.
    """
    d = (1.0 - sign * rec.alphas).tolist()
    b = rec.betas.tolist()
    n = len(d) - 1
    alphas, betas = [0.0] * n, [0.0] * n
    u_prev, u = 1.0, d[0]
    for k in range(n):
        t = b[k + 1] / u
        alphas[k] = sign * (1.0 - u - t)
        betas[k] = b[k] * u / u_prev
        u_prev, u = u, d[k + 1] - t
    return Recurrence(alphas, betas)


def basis_for(spec: MeasureSpec, N: int, high_precision=False) -> OrthoBasis:
    """Build the orthonormal basis of a MeasureSpec up to degree N >= 0."""
    _check_degree(N)
    rec = recurrence_for(spec.base, N + 1, high_precision=high_precision)
    return OrthoBasis(spec, rec, add_mass_points(rec, spec.masses))


def cd_kernel(basis: OrthoBasis, n: int, x, y):
    """Christoffel-Darboux kernel L_n(x,y) = sum_{j<=n} P_j(x) P_j(y)."""
    scalar = np.isscalar(x) and np.isscalar(y)
    px = basis.eval_all(x, n)
    py = basis.eval_all(y, n)
    out = np.einsum("jx,jy->xy", px, py)
    if scalar:
        return float(out[0, 0])
    return np.squeeze(out)


def kernel_sequence(basis: OrthoBasis, x, a: float, N: int):
    """L_n(x, a) for all 0 <= n <= N at once, shape (N+1, len(x))."""
    px = basis.eval_all(x, N)
    pa = basis.eval_all(a, N)[:, 0]
    return np.cumsum(px * pa[:, None], axis=0)


def kernel_envelope(spec: MeasureSpec, a: float, x, n):
    """Pointwise envelope dominating |L_n(x, a)| for a mass point a.

    One factor per entry (t, e) of the weight's factor list but the one at
    a itself: (|x - t| + n^-2)^{-(2e + 1)/4} at an end t = +-1, and
    (|x - t| + n^-1)^{-e/2} at an interior singularity.  An array ``n``
    broadcasts against x: degrees of shape (k, 1) and points of shape (m,)
    give the k envelopes at once, shape (k, m).
    """
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("kernel envelopes apply to generalized Jacobi bases")
    x = np.asarray(x, dtype=float)
    n = np.asarray(n)
    # n^-2 and n^-1 from Python floats: numpy's vectorized power rounds some of
    # them differently from the C library's pow (n^-2 at 76 of n <= 1000), and
    # array and scalar n must give the same floats
    inv2 = np.reshape([float(k) ** -2.0 if k > 0 else 1.0 for k in n.flat], n.shape)
    inv1 = np.reshape([float(k) ** -1.0 if k > 0 else 1.0 for k in n.flat], n.shape)
    env = np.ones(np.broadcast_shapes(x.shape, n.shape))
    for t, e in base.factors:
        if t != a:
            offset, power = (inv2, -(2 * e + 1) / 4) if at_end(t) else (inv1, -e / 2)
            env = env * (np.abs(x - t) + offset) ** power
    return env


def kernel_envelope_ratio(basis: OrthoBasis, a: float, N: int):
    """Running sup over n <= N and a 400-point Chebyshev grid of |L_n(x,a)| / envelope.

    Finiteness and stability of the returned sequence verify the kernel
    estimates empirically; the constant itself is not asserted.  The kernels
    of every degree come from one ``kernel_sequence`` call and their
    envelopes from one ``kernel_envelope`` call.
    """
    m = 400
    x = np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    seq = np.abs(kernel_sequence(basis, x, a, N))
    seq /= kernel_envelope(basis.measure, a, x, np.arange(N + 1)[:, None])
    return np.maximum.accumulate(seq.max(axis=1))


# ----------------------------------------------------------------------
# Lemma-4 style kernel decomposition


@dataclass
class KernelDecomposition:
    """Coefficients of L_n over the Christoffel-modified kernels, one per subset."""

    n: int
    coefficients: dict  # subset (tuple of locations) -> coefficient
    residual: float

    @property
    def total(self):
        return sum(self.coefficients.values())


def mass_subsets(locations):
    """All subsets of mass locations, by cardinality then lexicographically."""
    locs = sorted(locations)
    out = []
    for r in range(len(locs) + 1):
        out.extend(itertools.combinations(locs, r))
    return out


def modified_bases(spec: MeasureSpec, N: int):
    """Recurrences, length N+1, of prod_{a in A}(x-a)^2 d-mu for every subset A of the mass
    locations, from mu's one recurrence: A takes a ``quadratic_step`` from A without its last."""
    _check_degree(N)
    full = {(): recurrence_for(spec.base, N + 1 + len(spec.masses))}
    for A in mass_subsets(spec.mass_locations)[1:]:
        full[A] = quadratic_step(full[A[:-1]], A[-1])
    return {A: Recurrence(rec.alphas[: N + 1], rec.betas[: N + 1]) for A, rec in full.items()}


# a kernel identity residual above this bound means the inputs are wrong
_IDENTITY_TOL = 1e-8
# points per variable of the tensor grid the identity is checked on
_IDENTITY_GRID = 48


def kernel_decomposition(nu_basis: OrthoBasis, mods: dict, n: int) -> KernelDecomposition:
    """Convex-combination coefficients of L_n over the modified kernels, in closed form.

    Christoffel-Uvarov (Uvarov 1969; Gautschi 2004, §2.4): with K the kernel
    K_n of mu at the mass points and M = diag(M_i), the coefficient of
    prod_{a in A}(x-a)(y-a) K_{n-|A|}^A(x,y) is
    c_A = det((M K)_{AA}) / det(I + M K), so c_empty = 1 / det(I + M K) and
    the c_A over all subsets sum to 1.  Subsets with |A| > n carry no kernel
    and are left out.  The identity is then checked on a tensor grid against
    the kernels of the recurrences ``mods`` (``modified_bases``: QR steps, on
    any base); a relative residual above 1e-8 raises NumericalBreakdown.
    A degree n outside 0 .. min(basis cap, top degree of ``mods``) raises
    DegreeOutOfRange.
    """
    cap = min(nu_basis.degree, len(mods[()]) - 1)
    if not 0 <= n <= cap:
        raise DegreeOutOfRange(f"degree {n} is outside 0..{cap}, the degrees both the basis and mods reach")
    spec = nu_basis.measure
    locs = spec.mass_locations
    # without masses rec is nu_rec, whose kept table is the grid's below
    P = nu_basis.rec.table(locs, n) if locs else np.empty((n + 1, 0))
    MK = np.array([mp.mass for mp in spec.masses])[:, None] * (P.T @ P)
    det = np.linalg.det(np.eye(len(locs)) + MK)
    subsets = [A for A in mass_subsets(locs) if len(A) <= n]
    coefficients = {}
    for A in subsets:
        idx = [locs.index(a) for a in A]
        coefficients[A] = float(np.linalg.det(MK[np.ix_(idx, idx)]) / det)

    if _IDENTITY_GRID <= len(nu_basis.rec):
        xs, _ = gauss_points(nu_basis.rec, _IDENTITY_GRID)
    else:
        # Chebyshev points: n+1 distinct nodes per variable test an identity of degree n
        xs = np.cos(np.pi * (2 * np.arange(_IDENTITY_GRID) + 1) / (2 * _IDENTITY_GRID))
    target = cd_kernel(nu_basis, n, xs, xs)
    total = np.zeros_like(target)
    for A, c in coefficients.items():
        P = mods[A].table(xs, n - len(A)) * np.prod([xs - a for a in A], axis=0)
        total += c * (P.T @ P)
    residual = float(np.linalg.norm(total - target) / np.linalg.norm(target))
    if not residual <= _IDENTITY_TOL:
        raise NumericalBreakdown(
            f"kernel identity residual {residual:.3g} at n = {n} exceeds {_IDENTITY_TOL:g}"
        )
    return KernelDecomposition(n, coefficients, residual)


# ----------------------------------------------------------------------
# small-degree helpers


def monomial_coefficients(basis: OrthoBasis):
    """Monomial coefficient triangle of P_0..P_N; row n holds P_n, ascending powers.

    Intended for small degree caps (cross-checks against exact arithmetic);
    the conversion is exponentially ill-conditioned for large N.
    """
    N = basis.degree
    rec = basis.nu_rec
    sb = np.sqrt(rec.betas)
    C = np.zeros((N + 1, N + 1))
    C[0, 0] = 1.0 / sb[0]
    if N >= 1:
        C[1, 1] = C[0, 0] / sb[1]
        C[1, 0] = -rec.alphas[0] * C[0, 0] / sb[1]
    for k in range(1, N):
        C[k + 1, 1:] = C[k, :-1]
        C[k + 1] -= rec.alphas[k] * C[k]
        C[k + 1] -= sb[k] * C[k - 1]
        C[k + 1] /= sb[k + 1]
    return C
