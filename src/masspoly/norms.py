"""Quadrature grids with atoms, L^p / Lorentz norms, BMO estimation, operator probes.

Operator norms for p != 2 are lower-bound estimates (random trials, indicator
functions, and a p-duality power iteration); verdicts concern growth trends in
the degree n, not absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, NonFiniteWeight, NumericalBreakdown, SpecError
from .measure import MeasureSpec, PowerWeightSpec, validate, weight_to_dict
from .opoly import OrthoBasis, Recurrence, gauss_jacobi_rule, gauss_points, recurrence_for

GROWTH_THRESHOLD = 0.02  # |gamma| below this counts as bounded


# ----------------------------------------------------------------------
# grids


@dataclass
class Grid:
    """Quadrature nodes for the continuous part plus every mass location."""

    nodes: np.ndarray
    weights: np.ndarray
    atom_idx: np.ndarray  # indices of the mass points within ``nodes``

    @property
    def size(self):
        return len(self.nodes)

    def fn(self, values) -> "GridFunction":
        """Wrap values (array or callable on nodes) as a GridFunction."""
        if callable(values):
            values = values(self.nodes)
        values = np.broadcast_to(np.asarray(values, dtype=float), self.nodes.shape).copy()
        return GridFunction(self, values)


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray

    @property
    def nodes(self):
        return self.grid.nodes

    @property
    def weights(self):
        return self.grid.weights

    @property
    def atom_idx(self):
        return self.grid.atom_idx


def make_grid(spec: MeasureSpec, m: int, rec: Recurrence | None = None) -> Grid:
    """Grid with an order-m Gauss rule of the continuous part plus the atoms."""
    validate(spec)
    if m < 1:
        raise GridTooSmall(f"a grid needs at least one Gauss node, got grid size {m}")
    if rec is None or len(rec) < m:
        rec = recurrence_for(spec.base, m)
    nodes, weights = gauss_points(rec, m)
    locs = np.array([mp.location for mp in spec.masses])
    mass = np.array([mp.mass for mp in spec.masses])
    all_nodes = np.concatenate([nodes, locs])
    all_weights = np.concatenate([weights, mass])
    order = np.argsort(all_nodes, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    atom_idx = inv[m + np.arange(len(locs))]
    return Grid(all_nodes[order], all_weights[order], atom_idx)


def weight_values(w: PowerWeightSpec | None, grid: Grid, spec: MeasureSpec):
    """Node values of a power weight; mass-point entries use the prescribed values."""
    if w is None:
        return np.ones(grid.size)
    vals = w.values(grid.nodes, spec)
    return vals


# ----------------------------------------------------------------------
# norms


def lp_norm(f: GridFunction, p: float) -> float:
    _check_exponent(p)
    return float(np.sum(f.weights * np.abs(f.values) ** p) ** (1.0 / p))


def rearrangement(f: GridFunction):
    """Nonincreasing rearrangement of |f|: (values descending, step measures)."""
    v = np.abs(f.values)
    order = np.argsort(-v, kind="stable")
    return v[order], f.weights[order]


@dataclass(frozen=True)
class LorentzIndex:
    p: float
    r: float  # math.inf gives the weak norm

    def __post_init__(self):
        _check_exponent(self.p)
        if not (1 <= self.r):
            raise SpecError(f"r must be in [1, inf], got {self.r}")

    @property
    def conjugate(self):
        pc = math.inf if self.p == 1 else self.p / (self.p - 1)
        if self.r == math.inf:
            rc = 1.0
        elif self.r == 1:
            rc = math.inf
        else:
            rc = self.r / (self.r - 1)
        return pc, rc


def _weak_norms(A, w, p):
    """L^{p,inf} norm of every row of a non-negative matrix A on node measures w > 0.

    The norm of a row is max_i v_(i) C_i^{1/p}, with v_(i) the row sorted in
    descending order and C_i the measure of its first i nodes.  Rows are sorted
    with the default (unstable, SIMD) argsort and read backwards; the rows whose
    sorted values hold an exact tie are sorted again stably.  Distinct values
    have only one descending order, so every row gets the permutation of
    ``rearrangement``, and the cumulative sums add the same numbers in the same
    order.
    """
    if A.shape[1] == 0:
        return np.zeros(A.shape[0])
    order = np.argsort(A, axis=1)[:, ::-1]
    vals = np.take_along_axis(A, order, axis=1)
    tied = np.flatnonzero(np.any(vals[:, 1:] == vals[:, :-1], axis=1))
    if len(tied):
        order[tied] = np.argsort(-A[tied], axis=1, kind="stable")
    # in place: each block-sized temporary freed and allocated again costs page faults
    cum = w[order]
    np.cumsum(cum, axis=1, out=cum)
    np.power(cum, 1.0 / p, out=cum)
    cum *= vals
    return cum.max(axis=1)


def _may_reach(A, w, p, denom, floor):
    """Mask of the rows of a non-negative A whose ratio ||row||_{p,inf} / denom on w may reach ``floor``.

    A row is ruled out only by Chebyshev's inequality ||f||_{p,inf} <= ||f||_p,
    an O(m) bound with no sort.  The slack of 1e-10 covers the rounding of the
    bound and of the sorted cumulative sums, O(m eps), far below it for
    m <= 1e4.  A power sum below the smallest normal float has lost its
    relative precision to underflow, so its row is kept; so is a row whose
    bound overflows to inf, and one whose bound or floor is NaN.
    """
    with np.errstate(over="ignore"):
        power_sums = A**p @ w
        bound = power_sums ** (1.0 / p) / denom
    return ~(bound * (1.0 + 1e-10) < floor) | (power_sums < np.finfo(float).tiny)


def lorentz_norm(f: GridFunction, idx: LorentzIndex) -> float:
    """Exact L^{p,r} norm of a grid function via its step rearrangement."""
    p, r = idx.p, idx.r
    if r == math.inf:
        keep = f.weights > 0
        return float(_weak_norms(np.abs(f.values[keep])[None, :], f.weights[keep], p)[0])
    vals, meas = rearrangement(f)
    keep = meas > 0
    vals, meas = vals[keep], meas[keep]
    if len(vals) == 0:
        return 0.0
    cum = np.cumsum(meas)
    prev = np.concatenate([[0.0], cum[:-1]])
    terms = vals**r * (cum ** (r / p) - prev ** (r / p))
    return float(np.sum(terms) ** (1.0 / r))


# ----------------------------------------------------------------------
# BMO

def bmo_norm_estimate(b, resolution: int, npts: int = 64, return_levels=False):
    """Dyadic lower bound of the BMO norm of b on [-1,1].

    Sweeps every dyadic subinterval down to length 2^{1-resolution}; the
    estimate is nondecreasing in ``resolution``.
    """
    s, ws = gauss_jacobi_rule(npts)
    best = 0.0
    levels = []
    for level in range(resolution + 1):
        k = 2**level
        edges = np.linspace(-1.0, 1.0, k + 1)
        lo, hi = edges[:-1], edges[1:]
        half = (hi - lo) / 2.0
        x = lo[:, None] + half[:, None] * (s[None, :] + 1.0)
        bv = b(x)
        mean = bv @ ws / 2.0
        osc = np.abs(bv - mean[:, None]) @ ws / 2.0
        best = max(best, float(osc.max()))
        levels.append(best)
    if return_levels:
        return best, levels
    return best


def bmo_symbols(t: float = 0.3, steepness: float = 50.0):
    """Test symbols on [-1,1]: genuinely unbounded BMO examples plus a smoothed step."""
    return {
        "log_edge": lambda x: np.log(1.0 - np.asarray(x, dtype=float)),
        "log_interior": lambda x: np.log(np.abs(np.asarray(x, dtype=float) - t)),
        "smooth_step": lambda x: np.tanh(steepness * (np.asarray(x, dtype=float) - t)),
    }


# ----------------------------------------------------------------------
# dense operator matrices: test references; the probes keep S_n in its factors


def partial_sum_matrix(basis: OrthoBasis, grid: Grid, n: int):
    """Dense matrix of S_n acting on node values (integration against d-nu)."""
    phi = basis.eval_all(grid.nodes, n)
    return phi.T @ (phi * grid.weights)


def commutator_matrix(basis: OrthoBasis, grid: Grid, n: int, b_vals):
    s = partial_sum_matrix(basis, grid, n)
    b_vals = np.asarray(b_vals, dtype=float)
    return b_vals[:, None] * s - s * b_vals[None, :]


# ----------------------------------------------------------------------
# operator-norm probes


def _checked_weights(u_vals, v_vals):
    u = np.asarray(u_vals, dtype=float)
    v = np.asarray(v_vals, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NonFiniteWeight("u has a non-finite node value")
    if not np.all(v > 0) or not np.all(np.isfinite(v)):
        raise NonFiniteWeight("v must be finite and positive at every node")
    return u, v


def _weighted_rows(u, Y):
    """u * Y row by row; 0 * inf = 0 convention: a zero u wipes its row."""
    out = u[:, None] * Y
    out[u == 0.0] = 0.0
    return out


def _weighted_matrix(op, u_vals, v_vals):
    u, v = _checked_weights(u_vals, v_vals)
    return _weighted_rows(u, op / v[None, :])


def _check_exponent(p, dual=False):
    """Reject p outside [1, inf); with ``dual`` also p = 1, whose conjugate p' is infinite."""
    if not 1 <= p < math.inf:
        raise SpecError(f"p must be in [1, inf), got {p}")
    if dual and p == 1:
        raise SpecError("p = 1 has no finite conjugate exponent p'; use p > 1")


def _pnorm(w, x, p):
    return np.sum(w * np.abs(x) ** p) ** (1.0 / p)


def _pnorms(w, X, p):
    """||X[:, j]||_p of every column of X."""
    return np.sum(w[:, None] * np.abs(X) ** p, axis=0) ** (1.0 / p)


def _best_ratio(w, Y, nf, p):
    """max_j ||Y[:, j]||_p / nf[j] over the columns with nf[j] > 0 (0 if none).

    ``nf`` holds the ``_pnorms`` of the inputs Y came from, so a fixed trial
    family has its norms computed once per probe.
    """
    keep = nf > 0
    return float(np.max(_pnorms(w, Y[:, keep], p) / nf[keep], initial=0.0))


def operator_norm_probe(
    op,
    grid: Grid,
    p: float,
    u_vals=None,
    v_vals=None,
    trials: int = 12,
    rng=None,
    iters: int = 300,
    x0=None,
    restarts: int = 3,
):
    """Estimate sup_f ||u op(v^{-1} f)||_p / ||f||_p on the grid for a dense op.

    Exact (spectral) at p = 2; for other p a lower bound from random trials,
    coordinate indicators and a p-duality power iteration restarted from the
    best starting points (``x0`` supplies a warm start).  Returns
    (estimate, maximizer values).
    """
    _check_exponent(p, dual=True)
    m = grid.size
    w = grid.weights
    if u_vals is None:
        u_vals = np.ones(m)
    if v_vals is None:
        v_vals = np.ones(m)
    A = _weighted_matrix(op, u_vals, v_vals)
    sw = np.sqrt(w)
    Aw = sw[:, None] * A / sw[None, :]
    U, S, Vt = np.linalg.svd(Aw, full_matrices=False)
    spec_vec = Vt[0] / sw  # L^2 maximizer in function coordinates
    if p == 2:
        return float(S[0]), spec_vec

    if rng is None:
        rng = np.random.default_rng(0)

    def ratio(x):
        nx = _pnorm(w, x, p)
        if nx == 0:
            return 0.0
        return _pnorm(w, A @ x, p) / nx

    candidates = [spec_vec]
    if x0 is not None:
        candidates.append(np.asarray(x0, dtype=float))
    for i in range(trials):
        candidates.append(rng.standard_normal(m))
    for i in list(grid.atom_idx) + [0, m - 1, m // 2]:
        e = np.zeros(m)
        e[i] = 1.0
        candidates.append(e)
    scored = sorted(candidates, key=lambda c: -ratio(c))
    best_val, best_x = ratio(scored[0]), scored[0]

    # p-duality power iteration (Boyd): fixed points are stationary ratios;
    # restarted from the strongest starting points to dodge local maxima
    pp = p / (p - 1)
    for start in scored[:restarts]:
        x = start / _pnorm(w, start, p)
        last = 0.0
        for _ in range(iters):
            y = A @ x
            ny = _pnorm(w, y, p)
            if ny == 0:
                break
            z = w * np.abs(y) ** (p - 1) * np.sign(y)
            g = A.T @ z
            x_new = np.sign(g) * np.abs(g / w) ** (pp - 1)
            nx = _pnorm(w, x_new, p)
            if nx == 0 or not np.isfinite(nx):
                break
            x = x_new / nx
            r = ratio(x)
            if r > best_val:
                best_val, best_x = r, x.copy()
            if abs(r - last) <= 1e-12 * max(r, 1.0):
                break
            last = r
    return float(best_val), best_x


def _partial_sums(phi, coef, degrees):
    """Yield (n, sum_{k<=n} P_k coef_k) for ascending ``degrees``; P_k is row k of phi.

    With coef = phi (w g) for node values g in its columns this is S_n g:
    S_n = phi_n^T diag(w) phi_n stays in its factors, the caller forms the
    coefficients once, and each step adds the rows of phi between consecutive
    degrees.  The yielded array is updated in place by the next step.
    """
    out = np.zeros((phi.shape[1], coef.shape[1]))
    k = 0
    for n in degrees:
        out += phi[k : n + 1].T @ coef[k : n + 1]
        k = n + 1
        yield n, out


def _spectral_norms(phi, w, uv, vv, degrees):
    """Exact L^2(d-nu) norms of u S_n(v^{-1} .) for every n in ``degrees``.

    In sqrt(w)-scaled coordinates the operator is L_n R_n^T with
    L = diag(sqrt(w) u) phi^T and R = diag(sqrt(w) / v) phi^T.  The R factor of
    the first n+1 columns of a matrix is the leading block of the R factor of
    all its columns, so one QR per factor gives every degree its norm as the top
    singular value of a product of two (n+1) x (n+1) triangles.

    The factorizations run on numpy's LAPACK, the OpenBLAS runtime of every
    matmul of the probes: a second runtime keeps its own worker thread, which
    spins after each call and takes the core the first one needs.  numpy's
    LAPACK does not check for inf or NaN, so the factors are checked here.
    """
    sw = np.sqrt(w)
    factors = [(sw * uv)[:, None] * phi.T, (sw / vv)[:, None] * phi.T]
    if not all(np.isfinite(f).all() for f in factors):
        raise NumericalBreakdown(f"the basis table up to degree {len(phi) - 1} overflowed on the grid of "
                                 f"{phi.shape[1]} nodes: the p = 2 factors hold non-finite values")
    rl, rr = (np.linalg.qr(f, mode="r") for f in factors)
    return {n: float(np.linalg.svd(rl[: n + 1, : n + 1] @ rr[: n + 1, : n + 1].T, compute_uv=False)[0])
            for n in degrees}


def _trial_functions(grid: Grid, seed, trials, spots):
    """m x K candidates: ``trials`` seeded standard normal vectors, then the indicator of each node in ``spots``."""
    m = grid.size
    F = np.zeros((m, trials + len(spots)))
    F[:, :trials] = np.random.default_rng(seed).standard_normal((trials, m)).T
    F[spots, trials + np.arange(len(spots))] = 1.0
    return F


def _check_grid_resolves(grid: Grid, n):
    """Reject a grid whose Gauss part has fewer than n + 1 nodes.

    Below that the grid cannot tell the basis up to degree n apart: S_n is no
    longer a projection on it, and a norm of 1 can read as 4.
    """
    order = grid.size - len(grid.atom_idx)
    if order < n + 1:
        raise GridTooSmall(f"a grid of {order} Gauss nodes resolves degrees up to {order - 1}; "
                           f"degree {n} needs a grid size of at least {n + 1}")


def _weight_fields(w: PowerWeightSpec | None):
    """The report's record of a weight: all its fields, or {} when none was given."""
    return {} if w is None else weight_to_dict(w)


def _sweep_setup(basis: OrthoBasis, grid: Grid, u, v, N, ns):
    """Degree list, checked node values of u and v, and the basis table up to the top degree."""
    if ns is None:
        ns = default_degree_list(basis.degree if N is None else N)
    _check_grid_resolves(grid, max(ns))
    spec = basis.measure
    uv, vv = _checked_weights(weight_values(u, grid, spec), weight_values(v, grid, spec))
    return list(ns), uv, vv, basis.eval_all(grid.nodes, max(ns))


# ----------------------------------------------------------------------
# growth fitting and reports


def fit_growth(ns, vals, envelope=False):
    """Fit log(val) ~ gamma log(n) over the top half of the n-range.

    With ``envelope`` the fit runs on the running maximum, the right statistic
    for uniform-in-n boundedness when the values are noisy lower bounds.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if envelope:
        vals = np.maximum.accumulate(vals)
    k = len(ns) // 2
    if len(set(ns[k:].tolist())) < 2:
        degrees = ", ".join(f"{n:g}" for n in ns)
        raise SpecError(f"a growth fit needs two distinct degrees in the top half of the sweep, got {degrees}")
    x = np.log(ns[k:])
    y = np.log(np.maximum(vals[k:], 1e-300))
    coef, res = np.polyfit(x, y, 1), None
    fit = np.polyval(coef, x)
    res = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(coef[0]), res


@dataclass
class ProbeReport:
    mode: str
    p: float
    entries: list  # (n, estimate)
    gamma: float
    fit_residual: float
    verdict: str
    seed: int
    grid_size: int
    u: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "mode": self.mode,
            "p": self.p,
            "entries": [[int(n), float(v)] for n, v in self.entries],
            "gamma": self.gamma,
            "fit_residual": self.fit_residual,
            "verdict": self.verdict,
            "seed": self.seed,
            "grid_size": self.grid_size,
            "u": self.u,
            "v": self.v,
            "diagnostics": self.diagnostics,
        }


def _verdict(gamma):
    return "growing" if gamma > GROWTH_THRESHOLD else "bounded"


def _sweep_report(mode, p, ns, vals, seed, grid: Grid, **weights) -> ProbeReport:
    entries = [(n, float(vals[n])) for n in ns]
    bad = [n for n, val in entries if not math.isfinite(val)]
    if bad:
        raise NumericalBreakdown(f"the {mode} probe at p = {p:g} has a non-finite entry at degree {bad[0]} "
                                 f"on a grid of {grid.size} nodes")
    gamma, res = fit_growth(*zip(*entries), envelope=True)
    return ProbeReport(mode, p, entries, gamma, res, _verdict(gamma), seed, grid.size, **weights)


def default_degree_list(N, count=20, start=4):
    """About ``count`` degrees from ``start`` to N, spaced geometrically, ascending and distinct.

    A set, not ``np.unique``, drops the repeats: ``np.unique`` imports
    ``numpy.ma``, which a probe process has no other use for.
    """
    if N < start:
        raise SpecError(f"a degree sweep starts at n = {start}; N = {N} is too small")
    return sorted(set(np.round(np.geomspace(start, N, count)).astype(int).tolist()))


def strong_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    ns=None,
    trials: int = 8,
    seed: int = 0,
) -> ProbeReport:
    """Growth probe of ||u S_n(v^{-1} .)||_{L^p(d-nu)} over a degree sweep.

    Exact at p = 2.  Otherwise entries are deterministic lower bounds built
    from a fixed trial family (seeded random functions, atom indicators)
    together with the dual certificates of the top expansion coefficient: the
    test function |P_n|^{p'-1} sgn(P_n) and the projection-increment value
    ||u P_n||_p ||P_n / v||_{p'} = ||u (S_n - S_{n-1})(v^{-1} .)||_{p->p}.
    The certificates carry the blow-up signal; adaptive optimization is
    deliberately avoided because its estimates creep upward for bounded
    operators at these degree scales and would defeat the trend fit.
    """
    _check_exponent(p, dual=True)
    ns, uv, vv, phi = _sweep_setup(basis, grid, u, v, N, ns)
    w = grid.weights
    degrees = sorted(set(ns))
    if p == 2:
        vals = _spectral_norms(phi, w, uv, vv, degrees)
    else:
        F = _trial_functions(grid, seed, trials, list(grid.atom_idx) + [grid.size // 2])
        nF = _pnorms(w, F, p)
        pp = p / (p - 1)
        vals = {}
        for n, SF in _partial_sums(phi, phi @ (w[:, None] * (F / vv[:, None])), degrees):
            # dual certificates f = v |P_k / v|^{p'-1} sgn(P_k / v), k = n, n-1; G holds f / v
            pk = phi[[k for k in (n, n - 1) if k >= 0]] / vv
            G = (np.abs(pk) ** (pp - 1) * np.sign(pk)).T
            head = phi[: n + 1]
            SG = head.T @ (head @ (w[:, None] * G))
            best = max(_best_ratio(w, _weighted_rows(uv, SF), nF, p),
                       _best_ratio(w, _weighted_rows(uv, SG), _pnorms(w, vv[:, None] * G, p), p))
            cert = _pnorm(w, uv * phi[n], p) * _pnorm(w, phi[n] / vv, pp)
            vals[n] = max(best, float(cert))
    return _sweep_report("strong", p, ns, vals, seed, grid, u=_weight_fields(u), v=_weight_fields(v))


def commutator_probe(
    basis: OrthoBasis,
    grid: Grid,
    b,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    ns=None,
    trials: int = 12,
    seed: int = 0,
) -> ProbeReport:
    """Growth probe of the commutator [M_b, S_n] in L^p(d-nu)."""
    _check_exponent(p, dual=True)
    b_vals = b(grid.nodes) if callable(b) else np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_vals[grid.atom_idx])):
        raise NonFiniteWeight("symbol b must be finite at every mass point")
    ns, uv, vv, phi = _sweep_setup(basis, grid, u, v, N, ns)
    w = grid.weights
    F = _trial_functions(grid, seed, trials, list(grid.atom_idx) + [grid.size // 2])
    nF = _pnorms(w, F, p)
    G = F / vv[:, None]
    K = G.shape[1]
    pp = p / (p - 1)
    vals = {}
    coef = phi @ (w[:, None] * np.hstack([G, b_vals[:, None] * G]))
    # entries are fixed-family lower bounds plus increment certificates;
    # exact norms approach their (finite) sup so slowly in n that a trend
    # fit on them would misread every bounded commutator as growing
    for n, S in _partial_sums(phi, coef, sorted(set(ns))):
        # [M_b, S_n](f / v) = b S_n(f / v) - S_n(b f / v)
        best = _best_ratio(w, _weighted_rows(uv, b_vals[:, None] * S[:, :K] - S[:, K:]), nF, p)
        # rank-two degree increment [M_b, S_n - S_{n-1}] as a certificate, applied to
        # f = v |g|^{p'-1} sgn(g) for g = P_n / v and b P_n / v; H holds f / v
        pn = phi[n]
        pk = np.stack([pn / vv, b_vals * pn / vv])
        H = (np.abs(pk) ** (pp - 1) * np.sign(pk)).T
        R = np.outer(b_vals * pn, pn @ (w[:, None] * H)) - np.outer(pn, pn @ ((w * b_vals)[:, None] * H))
        vals[n] = max(best, _best_ratio(w, _weighted_rows(uv, R), _pnorms(w, vv[:, None] * H, p), p))
    return _sweep_report("commutator", p, ns, vals, seed, grid, u=_weight_fields(u), v=_weight_fields(v))


def maximal_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    ns=None,
    trials: int = 40,
    seed: int = 0,
) -> ProbeReport:
    """Trial-based growth probe of the truncated maximal operator sup_{n<=N}|S_n|."""
    _check_exponent(p)
    ns, uv, vv, phi = _sweep_setup(basis, grid, u, v, N, ns)
    w = grid.weights
    F = _trial_functions(grid, seed, trials, list(grid.atom_idx) + [0, grid.size - 1])
    nF = _pnorms(w, F, p)
    wanted = set(ns)
    sup = np.zeros_like(F)
    vals = {}
    # one prefix sum over every degree; sup_{k<=n} |S_k f| is its running max at n
    for k, S in _partial_sums(phi, phi @ (w[:, None] * (F / vv[:, None])), range(max(ns) + 1)):
        np.maximum(sup, np.abs(S), out=sup)
        if k in wanted:
            vals[k] = _best_ratio(w, _weighted_rows(uv, sup), nF, p)
    return _sweep_report("maximal", p, ns, vals, seed, grid, u=_weight_fields(u), v=_weight_fields(v))


# ----------------------------------------------------------------------
# weak / restricted-weak type probes


def default_set_family(grid: Grid, rng=None, n_random: int = 20, depth: int = 8):
    """Masks over grid nodes: dyadic intervals at the edges / atoms, unions, atoms.

    Known extremizers for weak-type failure concentrate at the endpoints, so
    the family is anchored there.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    nodes = grid.nodes
    lo, hi = nodes.min(), nodes.max()
    span = hi - lo
    anchors = [lo, hi] + [nodes[i] for i in grid.atom_idx]
    intervals = []
    for a in anchors:
        for j in range(depth):
            h = span * 2.0 ** (-j - 1)
            intervals.append((a - h, a + h))
    masks = []
    for c, d in intervals:
        mask = (nodes >= c) & (nodes <= d)
        if mask.any():
            masks.append(mask)
    for i in grid.atom_idx:
        mask = np.zeros(grid.size, dtype=bool)
        mask[i] = True
        masks.append(mask)
    for _ in range(n_random):
        mask = np.zeros(grid.size, dtype=bool)
        for _ in range(rng.integers(1, 5)):
            c, d = np.sort(rng.uniform(lo, hi, size=2))
            mask |= (nodes >= c) & (nodes <= d)
        if mask.any():
            masks.append(mask)
    # dedupe
    seen, out = set(), []
    for mask in masks:
        key = mask.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(mask)
    return out


def weak_type_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    sets=None,
    N: int | None = None,
    seed: int = 0,
    restricted: bool = True,
) -> ProbeReport:
    """Max over sets E and degrees n of ||u S_n(u^{-1} chi_E)||_{p,inf} / ||chi_E||_p.

    The inputs are indicators, so the probe measures restricted weak type;
    ``restricted=False`` raises SpecError, since no probe over general inputs
    exists.  The entries give the running max ratio as the degree cap grows.

    The partial sums come from the shared prefix-sum loop, one degree at a
    time; at degree n each set E of positive measure gives one row
    |u S_n(u^{-1} chi_E)| over the nodes of positive measure.  Only the running
    maximum over sets and degrees reaches the report, so a row is sorted only
    if it could raise it.  Chebyshev's inequality ||f||_{p,inf} <= ||f||_p
    bounds every row in O(m) with no sort; a row is skipped when that bound is
    below the largest ratio at the degrees below n.  A skipped row stays 0: its
    ratio is below a computed ratio at a smaller degree, so no running entry,
    ``max_ratio`` or first-occurrence argmax (``extremal_set``,
    ``extremal_n``) can change.  Every row that is sorted sees the same floats
    as when all rows were, so reports are bit-identical.  On Legendre + delta_1
    with the 3N grid and p = 4, 718 of the 7437 rows are sorted at N = 200 and
    908 of 14837 at N = 400.  Beside the basis table, S sets take O(S (m + N))
    working memory.
    """
    _check_exponent(p)
    if not restricted:
        raise SpecError("the weak-type probe takes indicator inputs only, so it needs restricted=True")
    # u^{-1} weights the input, so u is checked as v as well
    ns, uv, _, phi = _sweep_setup(basis, grid, u, u, N, None)
    if sets is None:
        sets = default_set_family(grid, np.random.default_rng(seed))
    if not sets:
        raise SpecError("set family is empty")
    w = grid.weights
    denoms = np.array([lp_norm(grid.fn(mask), p) for mask in sets])
    live = np.flatnonzero(denoms != 0)
    if not len(live):
        raise SpecError("no set in the family has positive measure")
    coef = np.zeros((len(phi), len(live)))
    for j, si in enumerate(live):
        coef[:, j] = phi @ (w * sets[si] / uv)
    keep = w > 0  # a node of measure zero adds nothing to a distribution function
    u_kept, w_kept, d_live = uv[keep], w[keep], denoms[live]
    ratios = np.zeros((len(sets), len(phi)))
    running = np.zeros(len(phi))
    for n, S in _partial_sums(phi, coef, range(len(phi))):
        rows = np.ascontiguousarray(S[keep].T)  # one row per live set
        rows *= u_kept
        np.abs(rows, out=rows)
        best = running[n - 1] if n else 0.0
        may = np.flatnonzero(_may_reach(rows, w_kept, p, d_live, best))
        ratios[live[may], n] = _weak_norms(rows[may], w_kept, p) / d_live[may]
        running[n] = max(best, ratios[:, n].max())
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    diagnostics = {"max_ratio": float(ratios.max()), "extremal_set": int(si), "extremal_n": int(n_star),
                   "n_sets": len(sets)}
    return _sweep_report("restricted-weak", p, ns, running, seed, grid, u=_weight_fields(u), diagnostics=diagnostics)
