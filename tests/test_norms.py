import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from masspoly import norms
from masspoly import (
    GenJacobiSpec,
    Grid,
    GridFunction,
    GridTooSmall,
    LaguerreSpec,
    LorentzIndex,
    MassPoint,
    MeasureSpec,
    NonFiniteWeight,
    NumericalBreakdown,
    PowerWeightSpec,
    SpecError,
    legendre,
    lorentz_norm,
    lp_norm,
    make_grid,
)
from masspoly.norms import (
    ProbeReport,
    _verdict,
    _may_reach,
    _spectral_norms,
    _weak_norms,
    _weighted_matrix,
    bmo_norm_estimate,
    bmo_symbols,
    commutator_matrix,
    commutator_probe,
    default_degree_list,
    default_set_family,
    fit_growth,
    maximal_probe,
    operator_norm_probe,
    partial_sum_matrix,
    rearrangement,
    strong_probe,
    weak_type_probe,
    weight_values,
)
from masspoly.measure import weight_to_dict
from masspoly.opoly import basis_for, classical_recurrence, gauss_points
from masspoly.transforms import partial_sum


SPEC = legendre([MassPoint(0.3, 1.0)])


def test_make_grid_includes_atoms_and_total_mass():
    grid = make_grid(SPEC, 40)
    assert np.sum(grid.weights) == pytest.approx(3.0)
    for i in grid.atom_idx:
        assert grid.nodes[i] == pytest.approx(0.3)
        assert grid.weights[i] == pytest.approx(1.0)


def test_gauss_rule_matches_classical():
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), 6)
    xs, ws = gauss_points(rec, 3)
    # exact for degree <= 5
    assert np.sum(ws * xs**4) == pytest.approx(2.0 / 5.0)


def test_lp_norm_basics():
    grid = make_grid(legendre(), 40)
    one = grid.fn(lambda x: np.ones_like(x))
    assert lp_norm(one, 2.0) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(SpecError):
        lp_norm(one, 0.5)


def test_rearrangement_is_nonincreasing_and_mass_preserving():
    grid = make_grid(SPEC, 30)
    f = grid.fn(lambda x: np.sin(5 * x))
    vals, meas = rearrangement(f)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.sum(meas) == pytest.approx(np.sum(grid.weights))


def test_lorentz_p2r2_equals_l2():
    grid = make_grid(SPEC, 50)
    rng = np.random.default_rng(3)
    f = GridFunction(grid, rng.standard_normal(grid.size))
    assert lorentz_norm(f, LorentzIndex(2.0, 2.0)) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


def test_lorentz_characteristic_function_identity():
    grid = make_grid(SPEC, 60)
    rng = np.random.default_rng(11)
    for p, r in [(4.0, 1.0), (4.0, math.inf), (2.0, 2.0)]:
        for _ in range(5):
            mask = rng.random(grid.size) < 0.4
            if not mask.any():
                mask[0] = True
            nu_E = float(np.sum(grid.weights[mask]))
            val = lorentz_norm(GridFunction(grid, mask.astype(float)), LorentzIndex(p, r))
            assert val == pytest.approx(nu_E ** (1.0 / p), abs=1e-12)


def test_lorentz_nesting_in_r():
    grid = make_grid(SPEC, 60)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = GridFunction(grid, rng.standard_normal(grid.size) * (1 + 5 * rng.random(grid.size)))
        a = lorentz_norm(f, LorentzIndex(4.0, 1.0))
        b = lorentz_norm(f, LorentzIndex(4.0, 4.0))
        c = lorentz_norm(f, LorentzIndex(4.0, math.inf))
        assert c <= b * (1 + 1e-12)
        assert b <= a * (1 + 1e-12)


def _stable_weak_norm(values, weights, p):
    """max_i v_(i) C_i^{1/p} on a stable descending sort, zero-weight nodes dropped after sorting."""
    order = np.argsort(-np.abs(values), kind="stable")
    vals, meas = np.abs(values)[order], weights[order]
    keep = meas > 0
    return float(np.max(vals[keep] * np.cumsum(meas[keep]) ** (1.0 / p)))


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("zero_weight_node", [False, True])
def test_lorentz_weak_norm_ties_match_stable_sort(p, zero_weight_node):
    grid = _grid_with_left_endpoint(SPEC, 60) if zero_weight_node else make_grid(SPEC, 60)
    rng = np.random.default_rng(7)
    inputs = {
        "indicator": (rng.random(grid.size) < 0.4).astype(float),
        "constant": np.full(grid.size, -0.75),
        "repeated": rng.integers(-3, 4, grid.size) * 0.5,
        "distinct": rng.standard_normal(grid.size),
    }
    for name, values in inputs.items():
        if zero_weight_node:
            values[0] = 10.0  # the largest value sits on the node of measure zero
        val = lorentz_norm(GridFunction(grid, values), LorentzIndex(p, math.inf))
        assert val == _stable_weak_norm(values, grid.weights, p), name


def test_lorentz_index_conjugate():
    assert LorentzIndex(4.0, 1.0).conjugate == (4.0 / 3.0, math.inf)
    assert LorentzIndex(2.0, math.inf).conjugate == (2.0, 1.0)
    with pytest.raises(SpecError):
        LorentzIndex(0.5, 1.0)


def test_bmo_estimate_unbounded_symbols_exceed_smooth():
    syms = bmo_symbols()
    log_edge = bmo_norm_estimate(syms["log_edge"], 6)
    smooth = bmo_norm_estimate(lambda x: np.asarray(x) ** 2, 6)
    assert log_edge > smooth
    _, levels = bmo_norm_estimate(syms["log_interior"], 5, return_levels=True)
    assert all(b >= a - 1e-15 for a, b in zip(levels, levels[1:]))


def test_weight_values_defaults_to_ones():
    grid = make_grid(SPEC, 20)
    assert np.allclose(weight_values(None, grid, SPEC), 1.0)
    w = weight_values(PowerWeightSpec(a=1.0), grid, SPEC)
    cont = np.setdiff1d(np.arange(grid.size), grid.atom_idx)
    assert np.allclose(w[cont], 1.0 - grid.nodes[cont], atol=1e-12)
    assert np.allclose(w[grid.atom_idx], 1.0)  # default value at mass points


def test_partial_sum_matrix_agrees_with_transform():
    basis = basis_for(SPEC, 8)
    grid = make_grid(SPEC, 30)
    A = partial_sum_matrix(basis, grid, 5)
    f = grid.fn(lambda x: np.cos(3 * x))
    direct = partial_sum(basis, f, 5, grid.nodes)
    assert np.allclose(A @ f.values, direct, atol=1e-12)


def test_partial_sum_matrix_is_projection_on_polynomials():
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 40)
    A = partial_sum_matrix(basis, grid, 7)
    vals = grid.nodes**6 - 0.3 * grid.nodes
    assert np.allclose(A @ vals, vals, atol=1e-10)


def test_commutator_matrix_kills_constant_symbol():
    basis = basis_for(SPEC, 8)
    grid = make_grid(SPEC, 30)
    C = commutator_matrix(basis, grid, 5, np.ones(grid.size))
    assert np.abs(C).max() < 1e-12


def test_operator_norm_probe_p2_matches_svd():
    rng = np.random.default_rng(0)
    m = 25
    grid = make_grid(legendre(), m)
    A = rng.standard_normal((grid.size, grid.size))
    est, f = operator_norm_probe(A, grid, 2.0, rng=rng)
    W = np.diag(np.sqrt(grid.weights))
    exact = np.linalg.svd(W @ A @ np.linalg.inv(W), compute_uv=False)[0]
    assert est == pytest.approx(exact, rel=1e-10)
    assert f.shape == (grid.size,)


def test_operator_norm_probe_lower_bound_p3():
    rng = np.random.default_rng(1)
    grid = make_grid(legendre(), 20)
    A = rng.standard_normal((grid.size, grid.size))
    est, f = operator_norm_probe(A, grid, 3.0, rng=rng)
    ratio = lp_norm(grid.fn(A @ f), 3.0) / lp_norm(grid.fn(f), 3.0)
    assert est == pytest.approx(ratio, rel=1e-9)


@pytest.mark.parametrize("ns", [[4], [4, 5], [3, 5, 5], [4, 5, 6, 9, 9, 9], np.array([4.0, 7.0, 12.0, 12.0])])
def test_fit_growth_rejects_fewer_than_two_fitted_degrees(ns):
    with pytest.raises(SpecError, match="two distinct degrees in the top half"):
        fit_growth(ns, np.ones(len(ns)))


def test_default_degree_list_rejects_short_sweeps():
    with pytest.raises(SpecError):
        default_degree_list(3)
    assert default_degree_list(6) == [4, 5, 6]


def test_default_degree_list_matches_the_unique_of_the_rounded_geometric_spacing():
    # the list drops repeats with a set, not np.unique, which imports numpy.ma
    for count in (5, 20, 40):
        for N in range(4, 3001):
            ns = default_degree_list(N, count)
            assert ns == np.unique(np.round(np.geomspace(4, N, count)).astype(int)).tolist(), (N, count)
            assert all(type(n) is int for n in ns)


def test_fit_growth_recovers_exponent():
    ns = np.array([10, 20, 40, 80, 160, 320])
    vals = 2.1 * ns**0.37
    gamma, resid = fit_growth(ns, vals)
    assert gamma == pytest.approx(0.37, abs=1e-10)
    assert resid < 1e-12
    # envelope fit ignores downward dips entirely
    dipped = vals.copy()
    dipped[3] *= 0.5
    gamma_env, _ = fit_growth(ns, dipped, envelope=True)
    gamma_raw, _ = fit_growth(ns, dipped, envelope=False)
    assert abs(gamma_env - 0.37) < abs(gamma_raw - 0.37)


def test_strong_probe_report_structure_and_p2_bounded():
    basis = basis_for(SPEC, 40)
    grid = make_grid(SPEC, 120)
    rep = strong_probe(basis, grid, 2.0, N=40)
    assert rep.mode == "strong"
    assert rep.verdict == "bounded"
    d = rep.to_dict()
    assert d["p"] == 2.0
    assert len(d["entries"]) == len(rep.entries)


def test_strong_probe_growing_outside_window():
    # Legendre window is (4/3, 4); p = 6 must blow up
    basis = basis_for(legendre(), 60)
    grid = make_grid(legendre(), 180)
    rep = strong_probe(basis, grid, 6.0, N=60)
    assert rep.verdict == "growing"


def test_commutator_probe_smooth_symbol_bounded():
    basis = basis_for(SPEC, 40)
    grid = make_grid(SPEC, 120)
    b = bmo_symbols()["smooth_step"]
    rep = commutator_probe(basis, grid, b, 2.0, N=40)
    assert rep.verdict == "bounded"


def test_default_set_family_members_are_masks():
    grid = make_grid(SPEC, 50)
    fam = default_set_family(grid)
    assert len(fam) > 10
    for mask in fam:
        assert mask.dtype == bool and mask.shape == (grid.size,)
        assert mask.any()


def test_weak_type_probe_runs_and_reports():
    basis = basis_for(SPEC, 30)
    grid = make_grid(SPEC, 90)
    rep = weak_type_probe(basis, grid, 2.0, N=30, restricted=True)
    assert rep.mode == "restricted-weak"
    assert rep.verdict == "bounded"
    assert all(v >= 0 for _, v in rep.entries)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_weak_probe_rejects_a_family_without_a_set_of_positive_measure(count):
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = basis_for(spec, 20), make_grid(spec, 60)
    with pytest.raises(SpecError):
        weak_type_probe(basis, grid, 4.0, sets=[np.zeros(grid.size, bool)] * count, N=20)


# the factor path of the probes against the same sweeps on dense m x m matrices

TWO_MASSES = legendre([MassPoint(-1.0, 0.5), MassPoint(0.3, 1.0)])
U = PowerWeightSpec(a=0.3, b=-0.2, at_mass=(2.0, 0.5))
V = PowerWeightSpec(a=-0.25, b=0.4, at_mass=(0.7, 1.5))


def _dense_entries(mode, basis, grid, p, b_vals, ns, trials, seed=1):
    """Each probe's entries from its candidate family applied through dense matrices."""
    uv = U.values(grid.nodes, TWO_MASSES)
    vv = V.values(grid.nodes, TWO_MASSES)
    w, m = grid.weights, grid.size
    rng = np.random.default_rng(seed)
    spots = list(grid.atom_idx) + ([0, m - 1] if mode == "maximal" else [m // 2])
    static = [rng.standard_normal(m) for _ in range(trials)] + [np.eye(m)[i] for i in spots]
    phi = basis.eval_all(grid.nodes, max(ns))
    lp = lambda x: lp_norm(grid.fn(x), p)
    pp = p / (p - 1)
    dual = lambda g: vv * np.abs(g) ** (pp - 1) * np.sign(g)
    best = lambda A, fs: max(lp(A @ f) / lp(f) for f in fs)
    entries = []
    for n in ns:
        if mode == "maximal":
            sums = np.array([_weighted_matrix(partial_sum_matrix(basis, grid, k), np.ones(m), vv)
                             for k in range(n + 1)])
            entries.append(max(lp(uv * np.abs(sums @ f).max(axis=0)) / lp(f) for f in static))
        elif mode == "strong" and p == 2:
            entries.append(operator_norm_probe(partial_sum_matrix(basis, grid, n), grid, p, uv, vv)[0])
        elif mode == "strong":
            A = _weighted_matrix(partial_sum_matrix(basis, grid, n), uv, vv)
            certs = [dual(phi[k] / vv) for k in (n, n - 1)]
            increment = lp(uv * phi[n]) * np.sum(w * np.abs(phi[n] / vv) ** pp) ** (1 / pp)
            entries.append(max(best(A, static + certs), increment))
        else:
            A = _weighted_matrix(commutator_matrix(basis, grid, n, b_vals), uv, vv)
            pn = phi[n]
            R = np.outer(uv * b_vals * pn, pn * w / vv) - np.outer(uv * pn, b_vals * pn * w / vv)
            entries.append(max(best(A, static), best(R, [dual(pn / vv), dual(b_vals * pn / vv)])))
    return entries


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal"])
def test_probe_factor_path_matches_dense_reference(mode, p):
    N = 30
    basis = basis_for(TWO_MASSES, N)
    grid = make_grid(TWO_MASSES, 3 * N)
    b = bmo_symbols()["smooth_step"]
    ns = [2, 5, 9, 17, 30, 12]  # unsorted on purpose: entries follow the given order
    if mode == "strong":
        rep = strong_probe(basis, grid, p, U, V, ns=ns, trials=4, seed=1)
    elif mode == "commutator":
        rep = commutator_probe(basis, grid, b, p, U, V, ns=ns, trials=4, seed=1)
    else:
        rep = maximal_probe(basis, grid, p, U, V, ns=ns, trials=4, seed=1)
    assert [n for n, _ in rep.entries] == ns
    expected = _dense_entries(mode, basis, grid, p, b(grid.nodes), ns, trials=4)
    np.testing.assert_allclose([e for _, e in rep.entries], expected, rtol=1e-12, atol=0)


def test_spectral_norms_match_the_dense_svd_of_another_lapack():
    # the p = 2 norms factor on numpy's LAPACK; scipy's SVD of the dense weighted
    # partial-sum matrix is a reference that shares neither the method nor the runtime
    N = 30
    basis = basis_for(TWO_MASSES, N)
    grid = make_grid(TWO_MASSES, 3 * N)
    uv, vv = U.values(grid.nodes, TWO_MASSES), V.values(grid.nodes, TWO_MASSES)
    sw = np.sqrt(grid.weights)
    degrees = list(range(N + 1))
    norms_p2 = _spectral_norms(basis.eval_all(grid.nodes, N), grid.weights, uv, vv, degrees)
    for n in degrees:
        A = _weighted_matrix(partial_sum_matrix(basis, grid, n), uv, vv)
        exact = scipy.linalg.svd(sw[:, None] * A / sw[None, :], compute_uv=False)[0]
        assert norms_p2[n] == pytest.approx(exact, rel=1e-13, abs=0), n


def test_p2_probes_run_without_scipy_linalg(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("scipy.linalg called on the probe path")

    for name in ("qr", "svd"):
        monkeypatch.setattr(scipy.linalg, name, banned)
    basis = basis_for(TWO_MASSES, 20)
    grid = make_grid(TWO_MASSES, 60)
    rep = strong_probe(basis, grid, 2.0, U, V, N=20)
    assert all(np.isfinite(e) for _, e in rep.entries)
    est, _ = operator_norm_probe(partial_sum_matrix(basis, grid, 10), grid, 2.0)
    assert est == pytest.approx(1.0, rel=1e-12)


def test_spectral_norms_reject_a_non_finite_factor():
    # numpy's LAPACK does not check for inf or NaN, so an overflowed table must not reach it
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 30)
    phi = basis.eval_all(grid.nodes, 10).copy()  # the basis's tables are read-only
    phi[10, 3] = np.inf
    ones = np.ones(grid.size)
    with pytest.raises(NumericalBreakdown, match=r"degree 10 overflowed on the grid of 31 nodes"):
        _spectral_norms(phi, grid.weights, ones, ones, [4, 10])


@pytest.mark.parametrize("probe", [strong_probe, maximal_probe])
def test_probes_reject_power_weights_on_a_laguerre_base(probe):
    # u = 1 - x is negative at every node x > 1, so no growth rate can be read off it
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
    basis, grid = basis_for(spec, 20), make_grid(spec, 60)
    with pytest.raises(SpecError, match="apply to generalized Jacobi bases"):
        probe(basis, grid, 3.0, u=PowerWeightSpec(a=1.0), N=20)
    rep = probe(basis, grid, 3.0, u=PowerWeightSpec(at_mass=(2.0,)), N=20)
    assert all(math.isfinite(e) for _, e in rep.entries)


def test_strong_probe_never_reports_nan():
    # the Laguerre table is finite here, but w |S_n f|^p overflows at the nodes whose weight underflowed
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
    basis = basis_for(spec, 200)
    grid = make_grid(spec, 600)
    with warnings.catch_warnings(), pytest.raises(NumericalBreakdown, match=r"strong probe at p = 3 .* degree"):
        warnings.simplefilter("ignore", RuntimeWarning)
        strong_probe(basis, grid, 3.0, N=200)


def _grid_with_left_endpoint(spec, m):
    """A Gauss grid plus a zero-weight node at x = -1, where (1+x)^b is 0 or infinite."""
    grid = make_grid(spec, m)
    return Grid(np.concatenate([[-1.0], grid.nodes]), np.concatenate([[0.0], grid.weights]), grid.atom_idx + 1)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
@pytest.mark.parametrize("u, v", [
    (PowerWeightSpec(b=-1.0), None),  # u infinite at x = -1
    (None, PowerWeightSpec(b=1.0)),  # v zero at x = -1
])
def test_probes_reject_bad_weight_values(mode, p, u, v):
    basis = basis_for(SPEC, 10)
    grid = _grid_with_left_endpoint(SPEC, 30)
    with pytest.raises(NonFiniteWeight):
        if mode == "strong":
            strong_probe(basis, grid, p, u, v, N=10)
        elif mode == "commutator":
            commutator_probe(basis, grid, bmo_symbols()["smooth_step"], p, u, v, N=10)
        elif mode == "maximal":
            maximal_probe(basis, grid, p, u, v, N=10)
        else:
            # the weak probe has one weight: u, which also divides the input, so it plays v's part too
            weak_type_probe(basis, grid, p, u if u is not None else v, N=10)


@pytest.mark.parametrize("p, modes", [
    (0.5, ("strong", "commutator", "maximal", "weak")),
    (math.inf, ("strong", "commutator", "maximal", "weak")),
    (1.0, ("strong", "commutator")),  # their certificates need a finite p'
])
def test_probes_reject_bad_exponents(p, modes):
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 30)
    b = bmo_symbols()["smooth_step"]
    calls = {
        "strong": lambda: strong_probe(basis, grid, p, N=10),
        "commutator": lambda: commutator_probe(basis, grid, b, p, N=10),
        "maximal": lambda: maximal_probe(basis, grid, p, N=10),
        "weak": lambda: weak_type_probe(basis, grid, p, N=10),
    }
    for mode in modes:
        with pytest.raises(SpecError):
            calls[mode]()


def test_maximal_probe_accepts_p1():
    basis = basis_for(SPEC, 10)
    rep = maximal_probe(basis, make_grid(SPEC, 30), 1.0, N=10)
    assert all(np.isfinite(v) and v > 0 for _, v in rep.entries)


# the weak probe against one rearrangement per (set, degree)

def _weak_reference(basis, grid, p, u, sets, N, seed, restricted):
    """The weak probe's report, every ratio from ``rearrangement`` of one full prefix sum."""
    if sets is None:
        sets = default_set_family(grid, np.random.default_rng(seed))
    uv = weight_values(u, grid, basis.measure)
    phi = basis.eval_all(grid.nodes, N)
    ratios = np.zeros((len(sets), N + 1))
    for si, mask in enumerate(sets):
        chi = mask.astype(float)
        denom = lp_norm(grid.fn(chi), p)
        if denom == 0:
            continue
        partials = np.cumsum(phi * (phi @ (grid.weights * chi / uv))[:, None], axis=0)
        for n in range(N + 1):
            vals, meas = rearrangement(grid.fn(uv * partials[n]))
            keep = meas > 0
            ratios[si, n] = np.max(vals[keep] * np.cumsum(meas[keep]) ** (1.0 / p)) / denom
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    running = np.maximum.accumulate(ratios.max(axis=0))
    entries = [(n, float(running[n])) for n in default_degree_list(N)]
    gamma, res = fit_growth(*zip(*entries))
    diagnostics = {"max_ratio": float(ratios.max()), "extremal_set": int(si), "extremal_n": int(n_star),
                   "n_sets": len(sets)}
    mode = "restricted-weak" if restricted else "weak"
    u_fields = {} if u is None else weight_to_dict(u)
    return ProbeReport(mode, p, entries, gamma, res, _verdict(gamma), seed, grid.size, u=u_fields,
                       diagnostics=diagnostics).to_dict()


LEGENDRE_ONE = legendre([MassPoint(1.0, 1.0)])
LAGUERRE_ZERO = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))


def _explicit_sets(grid):
    """An empty mask, the full mask, an interval and the atom."""
    interval = (grid.nodes > -0.5) & (grid.nodes < 0.2)
    atom = np.zeros(grid.size, dtype=bool)
    atom[grid.atom_idx] = True
    return [np.zeros(grid.size, dtype=bool), np.ones(grid.size, dtype=bool), interval, atom]


def _grid_with_split_nodes(spec, m):
    """A Gauss grid with every node twice, its weight split 3:7, so every S_n has tied values of unequal measure."""
    grid = make_grid(spec, m)
    weights = np.stack([0.3 * grid.weights, 0.7 * grid.weights], axis=1).ravel()
    return Grid(np.repeat(grid.nodes, 2), weights, 2 * grid.atom_idx)


# (measure, N, grid size, u, sets from the grid or None for the default family, seed, restricted);
# N = 63, 64, 65, 130 straddle the reference's blocks of 64 degrees
WEAK_CASES = {
    "legendre_n63": (LEGENDRE_ONE, 63, 126, None, None, 0, True),
    "legendre_n64": (LEGENDRE_ONE, 64, 128, None, None, 1, True),
    "legendre_n65": (LEGENDRE_ONE, 65, 130, None, None, 2, True),
    "legendre_n130": (LEGENDRE_ONE, 130, 260, None, None, 0, True),
    "two_masses_u": (TWO_MASSES, 40, 120, U, None, 3, True),
    "laguerre_mass": (LAGUERRE_ZERO, 30, 90, None, None, 0, True),
    "explicit_sets": (LEGENDRE_ONE, 70, 140, None, _explicit_sets, 0, True),
    # hand-built grids
    "zero_weight_node": (SPEC, 20, 60, None, _explicit_sets, 0, True),
    "split_nodes": (TWO_MASSES, 30, 90, U, None, 0, True),
}
HAND_BUILT = {"zero_weight_node": _grid_with_left_endpoint, "split_nodes": _grid_with_split_nodes}


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("case", list(WEAK_CASES))
def test_weak_probe_matches_rearrangement_reference(case, p):
    spec, N, m, u, make_sets, seed, restricted = WEAK_CASES[case]
    grid = HAND_BUILT.get(case, make_grid)(spec, m)
    basis = basis_for(spec, N)
    sets = None if make_sets is None else make_sets(grid)
    rep = weak_type_probe(basis, grid, p, u, sets=sets, N=N, seed=seed, restricted=restricted)
    assert rep.to_dict() == _weak_reference(basis, grid, p, u, sets, N, seed, restricted)


# the weak probe's bound-and-skip loop against the set-major loop that sorted every row

_BLOCK = 64  # degrees per block of the reference


def _weak_type_probe_reference(basis, grid, p, u=None, sets=None, N=None, seed=0, restricted=True):
    """The weak probe as a set-major loop over blocks of degrees that sorts every (set, degree) row."""
    if N is None:
        N = basis.degree
    if sets is None:
        sets = default_set_family(grid, np.random.default_rng(seed))
    uv = weight_values(u, grid, basis.measure)
    phi = basis.eval_all(grid.nodes, N)
    keep = grid.weights > 0
    phi_kept, u_kept, w_kept = phi[:, keep], uv[keep], grid.weights[keep]
    ratios = np.zeros((len(sets), N + 1))
    for si, mask in enumerate(sets):
        chi = mask.astype(float)
        denom = lp_norm(grid.fn(chi), p)
        if denom == 0:
            continue
        coef = phi @ (grid.weights * chi / uv)
        carry = 0.0
        for k in range(0, N + 1, _BLOCK):
            blk = phi_kept[k : k + _BLOCK] * coef[k : k + _BLOCK, None]
            blk[0] += carry
            np.cumsum(blk, axis=0, out=blk)
            carry = blk[-1].copy()
            blk *= u_kept
            ratios[si, k : k + len(blk)] = norms._weak_norms(np.abs(blk, out=blk), w_kept, p) / denom
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    running = np.maximum.accumulate(ratios.max(axis=0))
    entries = [(n, float(running[n])) for n in default_degree_list(N)]
    gamma, res = fit_growth(*zip(*entries))
    diagnostics = {"max_ratio": float(ratios.max()), "extremal_set": int(si), "extremal_n": int(n_star),
                   "n_sets": len(sets)}
    return ProbeReport("restricted-weak" if restricted else "weak", p, entries, gamma, res, _verdict(gamma),
                       seed, grid.size, u={} if u is None else weight_to_dict(u), diagnostics=diagnostics)


def _weak_case(case):
    """(basis, grid, u, sets, N, seed, restricted) of a WEAK_CASES entry."""
    spec, N, m, u, make_sets, seed, restricted = WEAK_CASES[case]
    grid = HAND_BUILT.get(case, make_grid)(spec, m)
    return basis_for(spec, N), grid, u, None if make_sets is None else make_sets(grid), N, seed, restricted


@functools.lru_cache(maxsize=None)
def _basis_and_grid(spec, N):
    return basis_for(spec, N), make_grid(spec, 3 * N)


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 6.0])
@pytest.mark.parametrize("case", list(WEAK_CASES))
def test_weak_probe_matches_set_major_reference(case, p):
    basis, grid, u, sets, N, seed, restricted = _weak_case(case)
    rep = weak_type_probe(basis, grid, p, u, sets=sets, N=N, seed=seed, restricted=restricted)
    assert rep.to_dict() == _weak_type_probe_reference(basis, grid, p, u, sets, N, seed, restricted).to_dict()


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 6.0])
@pytest.mark.parametrize("N", [200, 400])
def test_weak_probe_matches_set_major_reference_at_scale(N, p):
    basis, grid = _basis_and_grid(LEGENDRE_ONE, N)
    rep = weak_type_probe(basis, grid, p, N=N)
    assert rep.to_dict() == _weak_type_probe_reference(basis, grid, p, N=N).to_dict()


def test_weak_probe_bound_overflow_is_silent_and_exact():
    # |S_n chi|^6 overflows at the far Laguerre nodes; an infinite bound keeps its row
    basis, grid = _basis_and_grid(LAGUERRE_ZERO, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = weak_type_probe(basis, grid, 6.0, N=60)
    assert rep.to_dict() == _weak_type_probe_reference(basis, grid, 6.0, N=60).to_dict()


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 6.0])
def test_weak_norm_within_slack_of_lp_bound_where_they_are_equal(p):
    # ||f||_{p,inf} = ||f||_p for a constant times an indicator: only rounding separates
    # the sorted cumulative sum from the bound, and the probe's 1e-10 slack must cover it;
    # where the power sum underflows the rounding is coarser, and the row must be kept anyway
    rng = np.random.default_rng(4)
    weights = [make_grid(SPEC, 12).weights, make_grid(SPEC, 600).weights, make_grid(LAGUERRE_ZERO, 300).weights,
               np.exp(rng.uniform(-30.0, 0.0, 10_000))]
    for case, w in enumerate(weights):
        rows = [np.full(len(w), c) for c in (1.0, 0.37, 3e5)]
        for c in (1.0, 7.5):
            for i in (0, len(w) // 3, len(w) - 1):
                rows.append(np.zeros(len(w)))
                rows[-1][i] = c
        rows += [c * (rng.random(len(w)) < q) for c in (1.0, 0.2) for q in (0.05, 0.5, 0.95)]
        # one node whose term w_i |f_i|^p is subnormal, where the power sum rounds coarsely
        for t in np.geomspace(1e-321, 1e-309, 15):
            rows.append(np.zeros(len(w)))
            rows[-1][len(w) // 2] = (t / w[len(w) // 2]) ** (1.0 / p)
        A = np.array(rows)
        power_sums = A**p @ w
        bound = power_sums ** (1.0 / p)
        weak = _weak_norms(A, w, p)
        assert np.all(_may_reach(A, w, p, 1.0, weak)), case
        # below the smallest normal float the power sum loses its relative precision,
        # so the probe keeps those rows whatever their bound says
        normal = power_sums >= np.finfo(float).tiny
        assert np.all(weak[normal] <= bound[normal] * (1.0 + 1e-10)), case
        np.testing.assert_allclose(weak[normal], bound[normal], rtol=1e-12)
        assert not np.any(_may_reach(A[normal], w, p, 1.0, weak[normal] * (1.0 + 1e-8))), case


def test_weak_probe_sorts_at_most_30_percent_of_its_rows(monkeypatch):
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 200)
    real, sorted_rows = norms._weak_norms, []

    def counting(A, w, p):
        sorted_rows.append(len(A))
        return real(A, w, p)

    monkeypatch.setattr(norms, "_weak_norms", counting)
    total = len(default_set_family(grid, np.random.default_rng(0))) * 201
    weak_type_probe(basis, grid, 4.0, N=200, seed=0)
    assert sum(sorted_rows) <= 0.3 * total  # 718 of 7437 when this was written
    sorted_rows.clear()
    _weak_type_probe_reference(basis, grid, 4.0, N=200, seed=0)
    assert sum(sorted_rows) == total


# a grid resolves the basis up to degree n only with at least n + 1 Gauss nodes

@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probes_reject_a_grid_too_coarse_for_the_top_degree(mode):
    basis = basis_for(SPEC, 40)
    b = bmo_symbols()["smooth_step"]
    calls = {
        "strong": lambda grid: strong_probe(basis, grid, 2.0, N=40),
        "commutator": lambda grid: commutator_probe(basis, grid, b, 2.0, N=40),
        "maximal": lambda grid: maximal_probe(basis, grid, 2.0, N=40),
        "weak": lambda grid: weak_type_probe(basis, grid, 2.0, N=40),
    }
    with pytest.raises(GridTooSmall, match="at least 41"):
        calls[mode](make_grid(SPEC, 40))  # 40 Gauss nodes plus the atom
    assert len(calls[mode](make_grid(SPEC, 41)).entries) == len(default_degree_list(40))


@pytest.mark.parametrize("m", [0, -5])
def test_make_grid_rejects_a_grid_without_nodes(m):
    with pytest.raises(SpecError, match=f"grid size {m}"):
        make_grid(SPEC, m)


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probe_reports_record_their_weights(mode):
    basis = basis_for(TWO_MASSES, 20)
    grid = make_grid(TWO_MASSES, 60)
    b = bmo_symbols()["smooth_step"]
    if mode == "strong":
        rep = strong_probe(basis, grid, 3.0, U, V, N=20)
    elif mode == "commutator":
        rep = commutator_probe(basis, grid, b, 3.0, U, V, N=20)
    elif mode == "maximal":
        rep = maximal_probe(basis, grid, 3.0, U, V, N=20)
    else:
        rep = weak_type_probe(basis, grid, 3.0, U, N=20)
    assert rep.u == {"a": 0.3, "b": -0.2, "g": [], "atMass": [2.0, 0.5]}
    assert rep.v == ({} if mode == "weak" else {"a": -0.25, "b": 0.4, "g": [], "atMass": [0.7, 1.5]})


def test_weak_probe_has_no_unrestricted_mode():
    basis = basis_for(SPEC, 20)
    with pytest.raises(SpecError, match="restricted=True"):
        weak_type_probe(basis, make_grid(SPEC, 60), 4.0, N=20, restricted=False)


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_every_probe_sums_through_the_shared_prefix_loop(monkeypatch, mode):
    basis = basis_for(SPEC, 20)
    grid = make_grid(SPEC, 60)
    real, calls = norms._partial_sums, []

    def counting(phi, coef, degrees):
        calls.append(coef.shape)
        return real(phi, coef, degrees)

    monkeypatch.setattr(norms, "_partial_sums", counting)
    if mode == "strong":
        rep = strong_probe(basis, grid, 3.0, N=20)
    elif mode == "commutator":
        rep = commutator_probe(basis, grid, bmo_symbols()["smooth_step"], 3.0, N=20)
    elif mode == "maximal":
        rep = maximal_probe(basis, grid, 3.0, N=20)
    else:
        rep = weak_type_probe(basis, grid, 3.0, N=20)
    assert len(calls) == 1 and calls[0][0] == 21  # one coefficient row per degree 0..20
    assert len(rep.entries) == len(default_degree_list(20))
