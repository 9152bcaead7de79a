"""Quadrature grids with atoms, L^p / Lorentz norms, BMO estimation, operator probes.

Operator norms for p != 2 are lower-bound estimates (random trials, indicator
functions, and a p-duality power iteration); verdicts concern growth trends in
the degree n, not absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NonFiniteWeight, SpecError
from .measure import MeasureSpec, PowerWeightSpec, validate
from .opoly import OrthoBasis, Recurrence, gauss_points, recurrence_for

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

    @property
    def continuous_idx(self):
        mask = np.ones(self.size, dtype=bool)
        mask[self.atom_idx] = False
        return np.flatnonzero(mask)

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
    if p < 1:
        raise SpecError(f"p must be >= 1, got {p}")
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
        if not (1 <= self.p < math.inf):
            raise SpecError(f"p must be in [1, inf), got {self.p}")
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


def lorentz_norm(f: GridFunction, idx: LorentzIndex) -> float:
    """Exact L^{p,r} norm of a grid function via its step rearrangement."""
    vals, meas = rearrangement(f)
    keep = meas > 0
    vals, meas = vals[keep], meas[keep]
    if len(vals) == 0:
        return 0.0
    cum = np.cumsum(meas)
    p, r = idx.p, idx.r
    if r == math.inf:
        return float(np.max(vals * cum ** (1.0 / p)))
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
    s, ws = np.polynomial.legendre.leggauss(npts)
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
# operator matrices


def partial_sum_matrix(basis: OrthoBasis, grid: Grid, n: int):
    """Matrix of S_n acting on node values (integration against d-nu)."""
    phi = basis.eval_all(grid.nodes, n)
    return phi.T @ (phi * grid.weights)


def commutator_matrix(basis: OrthoBasis, grid: Grid, n: int, b_vals):
    s = partial_sum_matrix(basis, grid, n)
    b_vals = np.asarray(b_vals, dtype=float)
    return b_vals[:, None] * s - s * b_vals[None, :]


# ----------------------------------------------------------------------
# operator-norm probes


def _weighted_matrix(op, u_vals, v_vals):
    u = np.asarray(u_vals, dtype=float)
    v = np.asarray(v_vals, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NonFiniteWeight("u has a non-finite node value")
    if not np.all(v > 0) or not np.all(np.isfinite(v)):
        raise NonFiniteWeight("v must be finite and positive at every node")
    # 0 * inf = 0 convention: a zero u row wipes the row regardless of op
    A = u[:, None] * op / v[None, :]
    A[u == 0.0, :] = 0.0
    return A


def _pnorm(w, x, p):
    return np.sum(w * np.abs(x) ** p) ** (1.0 / p)


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
    """Estimate sup_f ||u op(v^{-1} f)||_p / ||f||_p on the grid.

    Exact (spectral) at p = 2; for other p a lower bound from random trials,
    coordinate indicators and a p-duality power iteration restarted from the
    best starting points (``x0`` supplies a warm start).  Returns
    (estimate, maximizer values).
    """
    m = grid.size
    w = grid.weights
    if u_vals is None:
        u_vals = np.ones(m)
    if v_vals is None:
        v_vals = np.ones(m)
    A = _weighted_matrix(op, u_vals, v_vals)
    sw = np.sqrt(w)
    Aw = sw[:, None] * A / sw[None, :]
    try:
        U, S, Vt = scipy.linalg.svd(Aw, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but robust
        U, S, Vt = scipy.linalg.svd(Aw, full_matrices=False, lapack_driver="gesvd")
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


def default_degree_list(N, count=20, start=4):
    ns = np.unique(np.round(np.geomspace(start, N, count)).astype(int))
    return [int(n) for n in ns]


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

    Entries are deterministic lower bounds built from a fixed trial family
    (seeded random functions, atom indicators) together with the dual
    certificates of the top expansion coefficient: the test function
    |P_n|^{p'-1} sgn(P_n) and the projection-increment value
    ||u P_n||_p ||P_n / v||_{p'} = ||u (S_n - S_{n-1})(v^{-1} .)||_{p->p}.
    The certificates carry the blow-up signal; adaptive optimization is
    deliberately avoided because its estimates creep upward for bounded
    operators at these degree scales and would defeat the trend fit.
    """
    if N is None:
        N = basis.degree
    if ns is None:
        ns = default_degree_list(N)
    spec = basis.measure
    uv = weight_values(u, grid, spec)
    vv = weight_values(v, grid, spec)
    w = grid.weights
    m = grid.size
    rng = np.random.default_rng(seed)
    static = [rng.standard_normal(m) for _ in range(trials)]
    for i in list(grid.atom_idx) + [m // 2]:
        e = np.zeros(m)
        e[i] = 1.0
        static.append(e)
    phi = basis.eval_all(grid.nodes, max(ns))
    pp = p / (p - 1)
    entries = []
    for n in ns:
        op = partial_sum_matrix(basis, grid, n)
        if p == 2:
            est, _ = operator_norm_probe(op, grid, p, uv, vv)
            entries.append((n, est))
            continue
        A = _weighted_matrix(op, uv, vv)
        cands = list(static)
        for k in (n, n - 1):
            if k >= 0:
                pk = phi[k] / vv
                cands.append(vv * np.abs(pk) ** (pp - 1) * np.sign(pk))
        best = 0.0
        for f in cands:
            nf = _pnorm(w, f, p)
            if nf > 0:
                best = max(best, _pnorm(w, A @ f, p) / nf)
        cert = _pnorm(w, uv * phi[n], p) * _pnorm(w, phi[n] / vv, pp)
        entries.append((n, max(best, cert)))
    gamma, res = fit_growth(*zip(*entries), envelope=True)
    return ProbeReport(
        "strong", p, entries, gamma, res, _verdict(gamma), seed, grid.size,
        u={} if u is None else {"a": u.a, "b": u.b},
        v={} if v is None else {"a": v.a, "b": v.b},
    )


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
    if N is None:
        N = basis.degree
    if ns is None:
        ns = default_degree_list(N)
    b_vals = b(grid.nodes) if callable(b) else np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_vals[grid.atom_idx])):
        raise NonFiniteWeight("symbol b must be finite at every mass point")
    spec = basis.measure
    uv = weight_values(u, grid, spec)
    vv = weight_values(v, grid, spec)
    w = grid.weights
    m = grid.size
    rng = np.random.default_rng(seed)
    static = [rng.standard_normal(m) for _ in range(trials)]
    for i in list(grid.atom_idx) + [m // 2]:
        e = np.zeros(m)
        e[i] = 1.0
        static.append(e)
    phi = basis.eval_all(grid.nodes, max(ns))
    pp = p / (p - 1)
    entries = []
    for n in ns:
        # entries are fixed-family lower bounds plus increment certificates;
        # exact norms approach their (finite) sup so slowly in n that a trend
        # fit on them would misread every bounded commutator as growing
        op = commutator_matrix(basis, grid, n, b_vals)
        A = _weighted_matrix(op, uv, vv)
        # rank-two degree increment [M_b, S_n - S_{n-1}] as a certificate
        pn_vals = phi[n]
        R = np.outer(uv * b_vals * pn_vals, pn_vals * w / vv) - np.outer(
            uv * pn_vals, b_vals * pn_vals * w / vv
        )
        certs = []
        for pk in (pn_vals / vv, b_vals * pn_vals / vv):
            certs.append(vv * np.abs(pk) ** (pp - 1) * np.sign(pk))
        best = 0.0
        for f in static:
            nf = _pnorm(w, f, p)
            if nf > 0:
                best = max(best, _pnorm(w, A @ f, p) / nf)
        for f in certs:
            nf = _pnorm(w, f, p)
            if nf > 0:
                best = max(best, _pnorm(w, R @ f, p) / nf)
        entries.append((n, best))
    gamma, res = fit_growth(*zip(*entries), envelope=True)
    return ProbeReport(
        "commutator", p, entries, gamma, res, _verdict(gamma), seed, grid.size
    )


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
    if N is None:
        N = basis.degree
    if ns is None:
        ns = default_degree_list(N)
    spec = basis.measure
    uv = weight_values(u, grid, spec)
    vv = weight_values(v, grid, spec)
    rng = np.random.default_rng(seed)
    phi = basis.eval_all(grid.nodes, max(ns))
    m = grid.size
    fs = [rng.standard_normal(m) for _ in range(trials)]
    for i in list(grid.atom_idx) + [0, m - 1]:
        e = np.zeros(m)
        e[i] = 1.0
        fs.append(e)
    entries = []
    for n in ns:
        best = 0.0
        for f in fs:
            coef = phi[: n + 1] @ (grid.weights * f / vv)
            partials = np.cumsum(phi[: n + 1] * coef[:, None], axis=0)
            sup_vals = np.max(np.abs(partials), axis=0)
            gf = grid.fn(uv * sup_vals)
            denom = lp_norm(grid.fn(f), p)
            if denom > 0:
                best = max(best, lp_norm(gf, p) / denom)
        entries.append((n, best))
    gamma, res = fit_growth(*zip(*entries), envelope=True)
    return ProbeReport(
        "maximal", p, entries, gamma, res, _verdict(gamma), seed, grid.size
    )


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

    With ``restricted`` the input family is indicators (restricted weak type);
    the report entries give the running max ratio as the degree cap grows.
    """
    if N is None:
        N = basis.degree
    rng = np.random.default_rng(seed)
    if sets is None:
        sets = default_set_family(grid, rng)
    if not sets:
        raise SpecError("set family is empty")
    spec = basis.measure
    uv = weight_values(u, grid, spec)
    idx = LorentzIndex(p, math.inf)
    phi = basis.eval_all(grid.nodes, N)
    ratios = np.zeros((len(sets), N + 1))
    for si, mask in enumerate(sets):
        chi = mask.astype(float)
        denom = lp_norm(grid.fn(chi), p)
        if denom == 0:
            continue
        coef = phi @ (grid.weights * chi / uv)
        partials = np.cumsum(phi * coef[:, None], axis=0)
        for n in range(N + 1):
            ratios[si, n] = lorentz_norm(grid.fn(uv * partials[n]), idx) / denom
    best = float(ratios.max())
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    running = np.maximum.accumulate(ratios.max(axis=0))
    ns = default_degree_list(N)
    entries = [(n, float(running[n])) for n in ns]
    gamma, res = fit_growth(*zip(*entries))
    report = ProbeReport(
        "restricted-weak" if restricted else "weak",
        p, entries, gamma, res, _verdict(gamma), seed, grid.size,
        diagnostics={
            "max_ratio": best,
            "extremal_set": int(si),
            "extremal_n": int(n_star),
            "n_sets": len(sets),
        },
    )
    return report
