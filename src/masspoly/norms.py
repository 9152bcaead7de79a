"""Quadrature grids with atoms, L^p / Lorentz norms, BMO estimation, operator probes.

Operator norms at p = 2 are exact.  For p != 2 a probe entry is the best
ratio over fixed inputs, a lower bound, and the strong and commutator probes
add the increment certificates that ``strong_probe`` describes.  Verdicts
concern growth trends in the degree n, not absolute constants.  The probes
keep S_n in its factors, and their memory peaks are pinned by
``test_probe_sweeps_hold_few_arrays_the_size_of_a_factor``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

from .errors import GridTooSmall, NonFiniteWeight, NumericalBreakdown, SpecError
from .measure import MeasureSpec, PowerWeightSpec, weight_to_dict
from .opoly import OrthoBasis, gauss_jacobi_rule, gauss_points, recurrence_for

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


def make_grid(spec: MeasureSpec, m: int) -> Grid:
    """Grid with an order-m Gauss rule of the continuous part plus the atoms."""
    if m < 1:
        raise GridTooSmall(f"a grid needs at least one Gauss node, got grid size {m}")
    nodes, weights = gauss_points(recurrence_for(spec.base, m), m)
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
    return w.values(grid.nodes, spec)


# ----------------------------------------------------------------------
# norms


def _pnorm(w, x, p):
    return np.sum(w * np.abs(x) ** p) ** (1.0 / p)


def lp_norm(f: GridFunction, p: float) -> float:
    _check_exponent(p)
    return float(_pnorm(f.weights, f.values, p))


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


def _weak_norms(A, w, p, floor):
    """L^{p,inf} norm of every row of a matrix A on node measures w > 0, cut at ``floor``; A is not written.

    The norm of a signed row is max_i v_(i) C_i^{1/p}, with v_(i) its
    magnitudes in descending order, ties by node index as in
    ``rearrangement``, and C_i the measure of its first i nodes.  ``floor``
    holds one entry per row: a row whose norm reaches its floor gets that
    norm exactly, any other row some value below it, 0 when ruled out, so a
    floor of 0 gives every norm exactly.  A row holding NaN reads NaN, one
    holding inf but no NaN reads inf.  A holds at least one column.

    A row is ruled out by ||f||_{p,inf} <= ||f||_p, with M_p = sum w |f|^p
    bounded by moments that squarings give, so no power runs over A: by
    log-convexity M_1 and M_2 bound it for p <= 2, M_2 and M_4 for p <= 4,
    and M_p <= max|f|^{p-4} M_4 above.  A moment whose power in the bound is
    0 stands as inf, whose 0th power is 1 and which no underflow test flags.
    The slack of 1e-10 covers the O(m eps) rounding of the bound and of the
    cumulative sums.  A row is kept where a moment is below the smallest
    normal float, or its bound overflows or is NaN.

    A node below floor / w.sum()^{1/p}, less the slack, adds a term below the
    floor wherever it stands, so a kept row sorts only the nodes not below
    that cut, stably.  They lead its full descending order, so the cumulative
    sums are the same floats
    (``test_weak_norms_cut_at_a_floor_are_exact_where_they_reach_it``).
    """
    with np.errstate(over="ignore"):
        if p <= 2:
            lo = np.abs(A) @ w if p < 2 else math.inf  # M_1
            hi = np.square(A) @ w if p > 1 else math.inf  # M_2
            bound = lo ** (2.0 / p - 1.0) * hi ** (1.0 - 1.0 / p)
        else:
            sq = np.square(A)
            lo = sq @ w if p < 4 else math.inf  # M_2
            hi = np.square(sq, out=sq) @ w  # M_4
            del sq  # freed before the kept rows are copied
            if p <= 4:
                bound = lo ** (2.0 / p - 0.5) * hi ** (0.5 - 1.0 / p)
            else:
                bound = np.maximum(A.max(axis=1), -A.min(axis=1)) ** (1.0 - 4.0 / p) * hi ** (1.0 / p)
    kept = (~(bound * (1.0 + 1e-10) < floor) | (np.minimum(lo, hi) < np.finfo(float).tiny)).nonzero()[0]
    cuts = floor[kept] * (1.0 - 1e-10) / w.sum() ** (1.0 / p)
    rows = A[kept]
    out = np.zeros(len(A))
    for i, row, cut in zip(kept, np.abs(rows, out=rows), cuts):
        top = (~(row < cut)).nonzero()[0]  # the array methods, not their numpy wrappers: a few us a row
        top = top[(-row[top]).argsort(kind="stable")]
        cum = w[top].cumsum()
        np.power(cum, 1.0 / p, out=cum)
        cum *= row[top]
        out[i] = cum.max(initial=0.0)
    return out


def lorentz_norm(f: GridFunction, idx: LorentzIndex) -> float:
    """Exact L^{p,r} norm of a grid function via its step rearrangement; nodes of measure zero are dropped.

    At r = inf it is ``_weak_norms`` with a floor of 0 on the nodes of
    positive measure, whose stable sort is the rearrangement's order
    (``test_lorentz_weak_norm_ties_match_stable_sort``).
    """
    p, r = idx.p, idx.r
    keep = f.weights > 0
    if not keep.any():
        return 0.0
    if r == math.inf:
        return float(_weak_norms(f.values[None, keep], f.weights[keep], p, np.zeros(1))[0])
    vals, meas = rearrangement(f)
    vals, meas = vals[meas > 0], meas[meas > 0]
    cum = np.cumsum(meas)
    prev = np.concatenate([[0.0], cum[:-1]])
    terms = vals**r * (cum ** (r / p) - prev ** (r / p))
    return float(np.sum(terms) ** (1.0 / r))


# ----------------------------------------------------------------------
# BMO

def bmo_norm_estimate(b, resolution: int, return_levels=False):
    """Dyadic lower bound of the BMO norm of b on [-1,1], nondecreasing in ``resolution``.

    Every dyadic interval down to length 2^{1-resolution}, on 64 Gauss nodes.
    """
    s, ws = gauss_jacobi_rule(64)
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


def bmo_symbols(t: float = 0.3):
    """Test symbols on [-1,1]: genuinely unbounded BMO examples plus a smoothed step of steepness 50."""
    return {
        "log_edge": lambda x: np.log(1.0 - np.asarray(x, dtype=float)),
        "log_interior": lambda x: np.log(np.abs(np.asarray(x, dtype=float) - t)),
        "smooth_step": lambda x: np.tanh(50.0 * (np.asarray(x, dtype=float) - t)),
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


def _pnorms(w, X, p):
    """||X[:, j]||_p of every column of X; X is overwritten, as a temporary of its size costs more than the powers.

    Callers pass a temporary of their own, or scratch they no longer need.
    """
    np.abs(X, out=X)
    X **= p
    X *= w[:, None]
    return X.sum(axis=0) ** (1.0 / p)


def _ratios(w, u, Y, nf, p):
    """||u Y[:, j]||_p / nf[j] for every column j of Y, and 0 where nf[j] = 0; Y is overwritten.

    ``nf`` holds the ``_pnorms`` of the inputs Y came from, so a fixed family
    has its norms computed once per probe.  Y is column-major, so each
    column's norm is summed on its own: the same floats however many columns
    Y has (``test_family_takes_each_spot_once_and_keeps_every_entry``).
    """
    Y *= u[:, None]
    Y[u == 0.0] = 0.0  # 0 * inf = 0: a zero u wipes its row
    return np.divide(_pnorms(w, Y, p), nf, out=np.zeros(len(nf)), where=nf > 0)


def operator_norm_probe(
    op,
    grid: Grid,
    p: float,
    u_vals=None,
    v_vals=None,
    rng=None,
):
    """Estimate sup_f ||u op(v^{-1} f)||_p / ||f||_p on the grid for a dense op: (estimate, maximizer values).

    Exact (spectral) at p = 2; for other p a lower bound from 12 random
    trials, coordinate indicators and a p-duality power iteration of at most
    300 steps from the 3 best starts.  The tests' reference for the probes.
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
    for i in range(12):
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
    for start in scored[:3]:
        x = start / _pnorm(w, start, p)
        last = 0.0
        for _ in range(300):
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


def _partial_sums(coef, phi, degrees):
    """Yield (n, sum_{k<=n} coef_k^T P_k) for ascending ``degrees``: inputs x nodes; P_k is row k of phi.

    With coef = phi (w g) for node values g in its columns, row j of the sum
    is S_n g_j, so S_n stays in its factors.  The yielded array is updated in
    place by the next step.  A step of several rows adds the transpose of
    phi_rows^T coef_rows, which OpenBLAS gives the same floats at every
    thread count, while coef_rows^T phi_rows moves in the last place
    (``test_partial_sums_are_the_same_floats_at_one_and_two_threads``).
    """
    out = np.zeros((coef.shape[1], phi.shape[1]))
    step = np.empty_like(out)
    k = 0
    for n in degrees:
        if n == k:
            out += np.einsum("i,j->ij", coef[k], phi[k], out=step)
        else:
            out += (phi[k : n + 1].T @ coef[k : n + 1]).T
        k = n + 1
        yield n, out


def _scaled_factor(phi, scale):
    """diag(scale) phi^T, F-contiguous, scaled exactly by 2^-e to bring its largest entry below 1, and e.

    LAPACK does not check for inf or NaN, so the two reductions that give e,
    through which NaN propagates, also reject every non-finite entry.
    """
    f = np.multiply(scale[:, None], phi.T, out=np.empty(phi.T.shape, order="F"))
    lo, hi = f.min(), f.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalBreakdown(f"the basis table up to degree {len(phi) - 1} overflowed on the grid of "
                                 f"{phi.shape[1]} nodes: the p = 2 factors hold non-finite values")
    e = int(np.frexp(max(hi, -lo))[1])
    return np.ldexp(f, -e, out=f), e


def _qr_triangle(f):
    """The triangle R of f = QR, as ``np.linalg.qr(f, mode="r")`` gives it; f is overwritten.

    f is F-contiguous, so f.T is the array LAPACK's ``dgeqrf`` factors in
    place, through numpy's own binding ``lapack_lite``; ``np.linalg.qr`` runs
    the same routine on two copies (``test_qr_triangle_in_place_is_numpy_qr``).
    """
    a = f.T
    n, m = a.shape
    k = min(m, n)
    tau, work = np.empty(k), np.empty(1)
    lapack_lite.dgeqrf(m, n, a, m, tau, work, -1, 0)  # the query writes the optimal workspace size
    work = np.empty(int(work[0]))
    info = lapack_lite.dgeqrf(m, n, a, m, tau, work, len(work), 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf rejected argument {-info}")
    return np.triu(a[:, :k].T)


def _spectral_norms(phi, w, uv, vv, degrees):
    """Exact L^2(d-nu) norms of u S_n(v^{-1} .) for every n in ``degrees``.

    In sqrt(w)-scaled coordinates the operator is L_n R_n^T, with L_n and R_n
    the first n+1 columns of L = diag(sqrt(w) u) phi^T and
    R = diag(sqrt(w) / v) phi^T.  The leading block T_n of the triangle T of
    one QR of R is the R factor of R_n, and the u side enters as its Gram
    matrix G = L^T L, so the norm is sqrt(lambda_max(T_n G[n] T_n^T)), G[n]
    the leading (n+1) x (n+1) block.  R and L are never alive together, and
    neither is copied.  G squares the u side, so the error grows with the
    spread of u / v: the entries are within 1e-13 relative of scipy's SVD on
    the weights of
    ``test_p2_entries_match_the_dense_svd_of_another_lapack_across_weights``.
    Each factor is scaled exactly by a power of two, so that no product
    overflows where the factors are finite.  The factorizations run on
    numpy's LAPACK, since a second BLAS runtime's worker thread spins after
    each call on the core the probes' matmuls need.
    """
    sw = np.sqrt(w)
    right, e_right = _scaled_factor(phi, sw / vv)
    t = _qr_triangle(right)
    del right
    left, e_left = _scaled_factor(phi, sw * uv)
    gram = left.T @ left
    del left
    tops = []
    for n in degrees:
        tn = t[: n + 1, : n + 1]
        tops.append(np.linalg.eigvalsh(tn @ gram[: n + 1, : n + 1] @ tn.T)[-1])
    return dict(zip(degrees, np.ldexp(np.sqrt(tops), e_left + e_right).tolist()))


def _family(grid: Grid, p, vv, seed, trials, spots):
    """A probe's fixed candidates f, one per column, as (f / v, ||f||_p).

    The f are ``trials`` seeded standard normal vectors, then the indicator
    of each node in ``spots``, taken once, at its first occurrence.
    """
    m, spots = grid.size, list(dict.fromkeys(spots))  # an atom at an end node is one spot
    F = np.zeros((m, trials + len(spots)))
    F[:, :trials] = np.random.default_rng(seed).standard_normal((trials, m)).T
    F[spots, trials + np.arange(len(spots))] = 1.0
    return F / vv[:, None], _pnorms(grid.weights, F, p)


def _dual(rows, p):
    """Dual certificates |g|^{p'-1} sgn g of the rows g, one per column: ``rows``, written over and transposed."""
    pp = p / (p - 1)
    mag = np.abs(rows)
    mag **= pp - 1
    np.sign(rows, out=rows)
    rows *= mag
    return rows.T


def _check_grid_resolves(grid: Grid, n):
    """Reject a grid of fewer than n + 1 Gauss nodes, on which S_n is no projection and a norm of 1 can read 4."""
    order = grid.size - len(grid.atom_idx)
    if order < n + 1:
        raise GridTooSmall(f"a grid of {order} Gauss nodes resolves degrees up to {order - 1}; "
                           f"degree {n} needs a grid size of at least {n + 1}")


def _sweep_setup(basis: OrthoBasis, grid: Grid, u, v, N):
    """The degree list up to N (by default the basis degree), grid weights, checked u and v, and the basis table."""
    N = basis.degree if N is None else N
    ns = default_degree_list(N)
    _check_grid_resolves(grid, N)
    spec = basis.measure
    uv, vv = _checked_weights(weight_values(u, grid, spec), weight_values(v, grid, spec))
    return ns, grid.weights, uv, vv, basis.eval_all(grid.nodes, N)


# ----------------------------------------------------------------------
# growth fitting and reports


def fit_growth(ns, vals):
    """Fit log(val) ~ gamma log(n) over the top half of the positive, ascending degrees ns.

    The fit runs on the running maximum, the statistic for uniform-in-n
    boundedness of noisy lower bounds; the top half needs two distinct degrees.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.maximum.accumulate(np.asarray(vals, dtype=float))
    k = len(ns) // 2
    if len(set(ns[k:].tolist())) < 2:
        degrees = ", ".join(f"{n:g}" for n in ns)
        raise SpecError(f"a growth fit needs two distinct degrees in the top half of the sweep, got {degrees}")
    x = np.log(ns[k:])
    y = np.log(np.maximum(vals[k:], 1e-300))
    coef = np.polyfit(x, y, 1)
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
        return {**asdict(self), "entries": [[int(n), float(v)] for n, v in self.entries]}


def _verdict(gamma):
    return "growing" if gamma > GROWTH_THRESHOLD else "bounded"


def _sweep_report(mode, p, ns, vals, seed, grid: Grid, u, v, diagnostics=None) -> ProbeReport:
    """The report of a sweep; it records each weight in full, or as {} when none was given."""
    entries = [(n, float(vals[n])) for n in ns]
    bad = [n for n, val in entries if not math.isfinite(val)]
    if bad:
        raise NumericalBreakdown(f"the {mode} probe at p = {p:g} has a non-finite entry at degree {bad[0]} "
                                 f"on a grid of {grid.size} nodes")
    gamma, res = fit_growth(*zip(*entries))
    u, v = ({} if w is None else weight_to_dict(w) for w in (u, v))
    return ProbeReport(mode, p, entries, gamma, res, _verdict(gamma), seed, grid.size, u, v, diagnostics or {})


def default_degree_list(N):
    """The degrees of a probe sweep: about 20 from 4 to N, spaced geometrically, ascending and distinct.

    The last is N.  A set drops the repeats: ``np.unique`` imports
    ``numpy.ma``, which no command loads
    (``test_cli_jobs_run_on_numpy_alone``).
    """
    if N < 4:
        raise SpecError(f"a degree sweep starts at n = 4; N = {N} is too small")
    return sorted(set(np.round(np.geomspace(4, N, 20)).astype(int).tolist()))


def _lp_sweep(mode, basis: OrthoBasis, grid: Grid, p, u, v, N, seed, trials, spots, parts) -> ProbeReport:
    """The report of a strong, commutator or maximal sweep at p != 2.

    The K inputs f / v are ``_family``'s, and
    ``parts(phi, degrees, w, uv, vv, G)`` gives the probe's own: the columns
    whose coefficients the prefix sums carry, the degrees they step through,
    the rows g of its certificates (c per degree), its increment norm of each
    degree (0 for none), and ``write(y, n, d, sums)``, which steps ``sums``
    (``_partial_sums`` over the columns) to degree n and fills the (K + c) x m
    rows y with the operator applied to the inputs, then to d, the degree's c
    certificates f / v, where f = v |g / v|^{p'-1} sgn(g / v).  One degree is
    taken per ``_ratios`` pass, in one reused scratch.  An entry is the
    largest of its K + c ratios and its increment norm, and NaN if any of
    them is, which ``_sweep_report`` rejects.
    """
    degrees, w, uv, vv, phi = _sweep_setup(basis, grid, u, v, N)
    G, nG = _family(grid, p, vv, seed, trials, spots)
    columns, steps, rows, increment, write = parts(phi, degrees, w, uv, vv, G)
    c = len(rows) // len(degrees)
    rows /= vv
    D = _dual(rows, p) if c else rows.T
    nD = _pnorms(w, vv[:, None] * D, p)
    sums = _partial_sums(phi @ (w[:, None] * columns), phi, steps)
    del columns  # only their coefficients are needed
    y = np.empty((G.shape[1] + c, grid.size))
    top = []
    for j, n in enumerate(degrees):
        write(y, n, D[:, c * j : c * (j + 1)], sums)
        top.append(_ratios(w, uv, y.T, np.concatenate([nG, nD[c * j : c * (j + 1)]]), p).max())
    return _sweep_report(mode, p, degrees, dict(zip(degrees, np.maximum(top, increment).tolist())), seed, grid, u, v)


def strong_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    seed: int = 0,
) -> ProbeReport:
    """Growth probe of ||u S_n(v^{-1} .)||_{L^p(d-nu)} over the degrees of ``default_degree_list(N)``.

    Exact at p = 2 (``_spectral_norms``).  Otherwise an entry is the larger
    of the best ratio of fixed inputs, a lower bound of the norm, and
    rho_n = ||u P_n||_p ||P_n / v||_{p'} = ||u (S_n - S_{n-1})(v^{-1} .)||_{p->p}.
    The inputs are 8 seeded random functions, the indicators of the atoms and
    of the middle node, and the dual certificates
    v |P_k / v|^{p'-1} sgn(P_k / v) of k = n, n-1.  rho_n is no lower bound
    of ||u S_n(v^{-1} .)||: only rho_n / 2 <= max(||S_n||, ||S_{n-1}||)
    holds.  So "growing" is justified, while "bounded" checks only that
    sup rho_n < inf (ROADMAP item 20).
    """
    _check_exponent(p, dual=True)
    if p == 2:
        ns, w, uv, vv, phi = _sweep_setup(basis, grid, u, v, N)
        return _sweep_report("strong", p, ns, _spectral_norms(phi, w, uv, vv, ns), seed, grid, u, v)

    def parts(phi, degrees, w, uv, vv, G):
        K = G.shape[1]
        # the increment ||u P_n||_p ||P_n / v||_{p'}
        P = phi[degrees]
        rho = _pnorms(w, (uv * P).T, p) * _pnorms(w, (P / vv).T, p / (p - 1))
        # certificates of g = P_k, k = n, n-1; every degree of a sweep is at least 4
        rows = phi[np.repeat(degrees, 2) - np.tile([0, 1], len(degrees))]

        def write(y, n, d, sums):  # S_n on the family, then on the certificates
            head = phi[: n + 1]
            y[:K] = next(sums)[1]
            y[K:] = (head.T @ (head @ (w[:, None] * d))).T

        return G, degrees, rows, rho, write

    return _lp_sweep("strong", basis, grid, p, u, v, N, seed, 8, [*grid.atom_idx, grid.size // 2], parts)


def check_symbol(b_vals, grid: Grid, name="b", hint=None):
    """Raise NonFiniteWeight at the first mass point, else the first node, where the symbol's value is not finite.

    The message names the symbol and the point, and ends in ``hint`` or, by
    default, in the rule that the symbol must be finite at every atom or node.
    """
    bad = np.flatnonzero(~np.isfinite(b_vals))
    for at, nodes, rule in (("mass point", grid.atom_idx, "atom"), ("grid node", bad, "grid node")):
        for i in nodes:
            if not np.isfinite(b_vals[i]):
                raise NonFiniteWeight(f"symbol {name} is {b_vals[i]} at the {at} {grid.nodes[i]:g}; "
                                      f"{hint or f'it must be finite at every {rule}'}")


def commutator_probe(
    basis: OrthoBasis,
    grid: Grid,
    b,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    seed: int = 0,
) -> ProbeReport:
    """Growth probe of the commutator [M_b, S_n] in L^p(d-nu); b must be finite at every node of the grid.

    An entry is the larger of the best ratio of [M_b, S_n] on 12 seeded
    trials and the indicators of the atoms and of the middle node, a lower
    bound, and the best ratio of the increment [M_b, S_n - S_{n-1}] on its
    certificates of P_n and b P_n, which bounds only
    ||[M_b, S_n]|| + ||[M_b, S_{n-1}]|| from below.  No exact norm is taken:
    those approach their finite sup so slowly in n that the trend fit would
    read every bounded commutator as growing.
    """
    _check_exponent(p, dual=True)
    b_vals = b(grid.nodes) if callable(b) else np.asarray(b, dtype=float)
    check_symbol(b_vals, grid)

    def parts(phi, degrees, w, uv, vv, G):
        K = G.shape[1]
        rows = np.repeat(phi[degrees], 2, axis=0)  # g = P_n and b P_n
        rows[1::2] *= b_vals

        def write(y, n, d, sums):  # [M_b, S_n](f / v) = b S_n(f / v) - S_n(b f / v), then the increment
            S, pn = next(sums)[1], phi[n]
            np.subtract(np.multiply(b_vals, S[:K], out=y[:K]), S[K:], out=y[:K])
            np.subtract(np.outer(pn @ (w[:, None] * d), b_vals * pn), np.outer(pn @ ((w * b_vals)[:, None] * d), pn),
                        out=y[K:])

        return np.hstack([G, b_vals[:, None] * G]), degrees, rows, 0.0, write

    return _lp_sweep("commutator", basis, grid, p, u, v, N, seed, 12, [*grid.atom_idx, grid.size // 2], parts)


def maximal_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    v: PowerWeightSpec | None = None,
    N: int | None = None,
    seed: int = 0,
) -> ProbeReport:
    """Trial-based growth probe of the truncated maximal operator sup_{n<=N}|S_n|.

    The inputs are 40 seeded trials and the indicators of the atoms and of
    the two end nodes, and there are no certificates, so p = 1 is taken.
    The prefix sums step through every degree, and the output of a degree n
    is the running sup_{k<=n} |S_k(f / v)|.
    """
    _check_exponent(p)

    def parts(phi, degrees, w, uv, vv, G):
        sup = np.zeros(G.shape[::-1])  # one row per input, as the sums

        def write(y, n, d, sums):
            for k, S in sums:
                np.maximum(sup, np.abs(S), out=sup)
                if k == n:
                    break
            y[:] = sup

        return G, range(len(phi)), np.empty((0, len(w))), 0.0, write

    return _lp_sweep("maximal", basis, grid, p, u, v, N, seed, 40, [*grid.atom_idx, 0, grid.size - 1], parts)


# ----------------------------------------------------------------------
# weak / restricted-weak type probes


def default_set_family(grid: Grid, rng):
    """Indicators of sets of grid nodes, one boolean row per set: dyadic intervals, atoms and unions.

    Weak-type extremizers concentrate at the endpoints, so the family is
    anchored there: 8 closed dyadic intervals around each end, then each
    atom, the atoms' singletons, then 20 unions of up to four intervals drawn
    from ``rng``.  Each row holds a node; a repeated row is dropped, keeping
    the place of its first occurrence.
    """
    nodes = grid.nodes
    lo, hi = nodes.min(), nodes.max()
    anchors = np.concatenate([[lo, hi], nodes[grid.atom_idx]])[:, None]
    h = np.ldexp(hi - lo, -np.arange(1, 9))  # half-widths span 2^-j, j = 1..8, exact
    dyadic = (nodes >= (anchors - h).reshape(-1, 1)) & (nodes <= (anchors + h).reshape(-1, 1))
    atoms = np.arange(grid.size) == grid.atom_idx[:, None]
    unions = np.zeros((20, grid.size), dtype=bool)
    for mask in unions:
        for _ in range(rng.integers(1, 5)):
            c, d = np.sort(rng.uniform(lo, hi, size=2))
            mask |= (nodes >= c) & (nodes <= d)
    rows = np.vstack([dyadic, atoms, unions])
    rows = rows[rows.any(axis=1)]
    first = {}  # a dict, not ``np.unique``, which imports ``numpy.ma``
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    return rows[list(first.values())]


def weak_type_probe(
    basis: OrthoBasis,
    grid: Grid,
    p: float,
    u: PowerWeightSpec | None = None,
    N: int | None = None,
    seed: int = 0,
    restricted: bool = True,
) -> ProbeReport:
    """Max over sets E and degrees n of ||u S_n(u^{-1} chi_E)||_{p,inf} / ||chi_E||_p.

    The inputs are indicators, so the probe measures restricted weak type;
    ``restricted=False`` raises SpecError, since no probe over general inputs
    exists.  The sets are ``default_set_family(grid, rng)`` with ``rng``
    seeded by ``seed``, and the entries are the running max ratio at the
    degrees of ``default_degree_list(N)``.  The partial sums come one degree
    at a time from ``_partial_sums``, one row per set of positive measure
    over the nodes of positive measure.

    Only the running maximum reaches the report, so each degree's
    ``_weak_norms`` pass takes the largest ratio below n, times the row's
    ||chi_E||_p, as its floor: a row below it cannot change a running entry,
    ``max_ratio`` or the first-occurrence argmax (``extremal_set``,
    ``extremal_n``), and reports are bit-identical to sorting every row in
    full (``test_weak_probe_matches_rearrangement_reference``).  The rows it
    sorts are counted by
    ``test_weak_probe_sorts_at_most_30_percent_of_its_rows`` and
    ``test_weak_probe_rules_out_rows_by_their_first_moment_at_p_1``.  The
    first degree whose largest ratio is NaN or inf ends the sweep: every
    entry from it on is that value, and ``_sweep_report`` refuses the report.
    """
    _check_exponent(p)
    if not restricted:
        raise SpecError("the weak-type probe takes indicator inputs only, so it needs restricted=True")
    # u^{-1} weights the input, so u is checked as v as well
    ns, w, uv, _, phi = _sweep_setup(basis, grid, u, u, N)
    sets = default_set_family(grid, np.random.default_rng(seed))
    denoms = _pnorms(w, sets.T.astype(float), p)  # ||chi_E||_p, one column per set
    live = np.flatnonzero(denoms != 0)
    if not len(live):
        raise SpecError("no set in the family has positive measure")
    coef = phi @ (w[:, None] * (sets[live].T / uv[:, None]))  # the inputs chi_E / u, one column per live set
    keep = w > 0  # a node of measure zero adds nothing to a distribution function
    phi_kept = phi if keep.all() else phi[:, keep]
    u_kept, w_kept, d_live = uv[keep], w[keep], denoms[live]
    weighted = None if u is None else np.empty((len(live), phi_kept.shape[1]))  # u S_n, one row per live set
    ratios, running = np.zeros((len(sets), len(phi))), np.zeros(len(phi))
    for n, S in _partial_sums(coef, phi_kept, range(len(phi))):
        rows = S if u is None else np.multiply(S, u_kept, out=weighted)
        best = running[n]  # the maximum over the degrees below n: each degree writes its own over the rest
        # a norm below this floor divides to a ratio below best; one whose ratio rounds to best is above it
        ratios[live, n] = _weak_norms(rows, w_kept, p, best * d_live * (1.0 - 1e-10)) / d_live
        running[n:] = np.maximum(best, ratios[:, n].max())  # NaN propagates, unlike Python's max
        if not math.isfinite(running[n]):  # so are the later entries, and the report is refused
            break
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    diagnostics = {"max_ratio": float(ratios.max()), "extremal_set": int(si), "extremal_n": int(n_star),
                   "n_sets": len(sets)}
    return _sweep_report("restricted-weak", p, ns, running, seed, grid, u, None, diagnostics)
