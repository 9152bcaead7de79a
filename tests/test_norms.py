import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from masspoly import norms
from masspoly import (
    DegreeOutOfRange,
    GenJacobiSpec,
    Grid,
    GridFunction,
    GridTooSmall,
    HermiteSpec,
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
    GROWTH_THRESHOLD,
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


def _stable_weak_norms(A, w, p):
    """L^{p,inf} norm of every row of A: max_i v_(i) C_i^{1/p} on a stable full sort of |row|, descending.

    Each row is sorted on its own, and every node is sorted; nodes of measure
    zero are dropped after sorting.  The tests' reference for ``_weak_norms``.
    """
    A = np.abs(A)
    order = np.argsort(-A, axis=1, kind="stable")
    vals, meas = np.take_along_axis(A, order, axis=1), w[order]
    with np.errstate(invalid="ignore"):  # inf or NaN on a node of measure zero, which is dropped
        terms = np.where(meas > 0, vals * np.cumsum(meas, axis=1) ** (1.0 / p), 0.0)
    return terms.max(axis=1, initial=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("zero_weight_node", [False, True])
def test_lorentz_weak_norm_ties_match_stable_sort(p, zero_weight_node):
    grid = _grid_with_left_endpoint(SPEC, 60) if zero_weight_node else make_grid(SPEC, 60)
    rng = np.random.default_rng(7)
    nodes = np.arange(grid.size)
    inputs = {
        "indicator": (rng.random(grid.size) < 0.4).astype(float),
        "constant": np.full(grid.size, -0.75),
        "repeated": rng.integers(-3, 4, grid.size) * 0.5,
        "distinct": rng.standard_normal(grid.size),
        "nan": np.where(nodes == 7, math.nan, 1.0),
        "inf": np.where(nodes % 20 == 7, -math.inf, 0.5),
        "inf_and_nan": np.select([nodes == 7, nodes == 9], [math.inf, math.nan], 0.0),
    }
    weightless = Grid(grid.nodes, np.zeros(grid.size), grid.atom_idx)
    for name, values in inputs.items():
        if zero_weight_node:
            values[0] = 10.0  # the largest value sits on the node of measure zero
        val = lorentz_norm(GridFunction(grid, values), LorentzIndex(p, math.inf))
        np.testing.assert_array_equal(val, _stable_weak_norms(values[None, :], grid.weights, p)[0], name)
        # no node of positive measure: the norm of every function is 0
        assert lorentz_norm(GridFunction(weightless, values), LorentzIndex(p, math.inf)) == 0.0, name
    if zero_weight_node:
        # NaN and inf on the node of measure zero only are dropped with it
        for special in (math.nan, math.inf):
            values = inputs["distinct"].copy()
            values[0] = special
            val = lorentz_norm(GridFunction(grid, values), LorentzIndex(p, math.inf))
            assert math.isfinite(val) and val == _stable_weak_norms(values[None, :], grid.weights, p)[0]


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


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_operator_norm_probe_meets_the_norm_of_a_rank_one_operator(p):
    # f -> g <h, f> (the integral against the grid's weights) has the norm ||g||_p ||h||_p' exactly
    grid = make_grid(legendre(), 40)
    x, w = grid.nodes, grid.weights
    g, h = x**2 + 0.1, 1 + 2 * x
    est, _ = operator_norm_probe(np.outer(g, h * w), grid, p)
    pp = p / (p - 1)
    exact = np.sum(w * np.abs(g) ** p) ** (1 / p) * np.sum(w * np.abs(h) ** pp) ** (1 / pp)
    assert est == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("t", [0.3, -0.5])
def test_bmo_symbols_are_their_closed_forms(t):
    points = [-0.95, t - 0.2, t - 0.01, t + 0.01, t + 0.2, 0.95]
    symbols = bmo_symbols(t)
    closed = {
        "log_edge": lambda s: math.log(1 - s),
        "log_interior": lambda s: math.log(abs(s - t)),
        "smooth_step": lambda s: math.tanh(50 * (s - t)),
    }
    assert set(symbols) == set(closed)
    for name, symbol in symbols.items():
        assert symbol(points) == pytest.approx([closed[name](s) for s in points], rel=1e-14, abs=0), name


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


@pytest.mark.parametrize("ns", [[0, 0, 0, 5], [5, 0, 0], [2, 0, 0, 0, 1, 0]])
def test_fit_growth_rejects_degree_0_in_the_top_half(ns):
    # log 0 would reach np.polyfit, whose SVD fails on it
    with pytest.raises(SpecError, match="cannot hold degree 0"):
        fit_growth(ns, np.arange(1.0, len(ns) + 1))


def test_fit_growth_fits_in_ascending_degree_order():
    # a report keeps its entries in the order given; the fit sorts the (n, value) pairs, so a
    # shuffled list fits as the sorted one, and degree 0 may be given anywhere in the list
    ns = np.array([0, 1, 3, 9, 17, 25, 40])
    vals = np.array([0.5, 1.0, 1.3, 1.2, 1.5, 1.45, 1.6])
    expected = fit_growth(ns, vals)
    assert expected[0] > GROWTH_THRESHOLD
    rng = np.random.default_rng(3)
    for order in [np.arange(7)[::-1], [4, 2, 6, 3, 0, 5, 1], *(rng.permutation(7) for _ in range(5))]:
        assert fit_growth(ns[order], vals[order]) == expected
        assert fit_growth(ns[order].tolist(), vals[order].tolist()) == expected


def test_fit_growth_recovers_exponent():
    ns = np.array([10, 20, 40, 80, 160, 320])
    vals = 2.1 * ns**0.37
    gamma, resid = fit_growth(ns, vals)
    assert gamma == pytest.approx(0.37, abs=1e-10)
    assert resid < 1e-12
    # the fit runs on the running maximum, so a downward dip counts as the value before it
    dipped = vals.copy()
    dipped[3] *= 0.5
    assert fit_growth(ns, dipped) == fit_growth(ns, np.maximum.accumulate(dipped))


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


def test_commutator_probe_names_the_mass_point_where_the_symbol_is_not_finite():
    spec = legendre([MassPoint(1.0, 1.0)])
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteWeight, match="-inf at the mass point 1"):
        commutator_probe(basis_for(spec, 10), make_grid(spec, 40), bmo_symbols()["log_edge"], 2.0, N=10)


@pytest.mark.parametrize("base", [HermiteSpec(), LaguerreSpec(0.0)], ids=["hermite", "laguerre"])
def test_commutator_probe_names_the_first_grid_node_where_the_symbol_is_not_finite(base):
    # log(1 - x) is NaN at every node x > 1; the mass point at 0 is checked first and is finite
    spec = MeasureSpec(base, (MassPoint(0.0, 1.0),))
    grid = make_grid(spec, 40)
    first = grid.nodes[grid.nodes > 1.0].min()
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteWeight, match=f"nan at the grid node {first:g};"):
        commutator_probe(basis_for(spec, 10), grid, bmo_symbols()["log_edge"], 3.0, N=10)


def test_commutator_probe_checks_the_mass_points_before_the_grid_nodes():
    # on Laguerre + delta_2, log(1 - x) is NaN at nodes from 1.1 on and at the mass point 2
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(2.0, 1.0),))
    grid = make_grid(spec, 40)
    assert grid.nodes[grid.nodes > 1.0].min() < 2.0
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteWeight, match="nan at the mass point 2;"):
        commutator_probe(basis_for(spec, 10), grid, bmo_symbols()["log_edge"], 3.0, N=10)


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
# the same atoms on a non-classical base, so U and V fit it too
GENJACOBI_TWO_MASSES = MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)), TWO_MASSES.masses)
LEGENDRE_ONE = legendre([MassPoint(1.0, 1.0)])
LAGUERRE_ZERO = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
U = PowerWeightSpec(a=0.3, b=-0.2, at_mass=(2.0, 0.5))
V = PowerWeightSpec(a=-0.25, b=0.4, at_mass=(0.7, 1.5))
TRIALS = {"strong": 8, "commutator": 12, "maximal": 40}  # random trial functions of each probe


def _dense_entries(mode, spec, basis, grid, p, b_vals, ns, seed=1):
    """Each probe's entries from its candidate family applied through dense matrices."""
    uv = U.values(grid.nodes, spec)
    vv = V.values(grid.nodes, spec)
    w, m = grid.weights, grid.size
    rng = np.random.default_rng(seed)
    spots = list(grid.atom_idx) + ([0, m - 1] if mode == "maximal" else [m // 2])
    static = [rng.standard_normal(m) for _ in range(TRIALS[mode])] + [np.eye(m)[i] for i in spots]
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


@pytest.mark.parametrize("spec", [TWO_MASSES, GENJACOBI_TWO_MASSES], ids=["legendre", "genjacobi"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal"])
def test_probe_factor_path_matches_dense_reference(mode, p, spec):
    N = 30
    basis = basis_for(spec, N)
    grid = make_grid(spec, 3 * N)
    b = bmo_symbols()["smooth_step"]
    ns = [2, 5, 9, 17, 30, 12]  # unsorted on purpose: entries follow the given order
    if mode == "strong":
        rep = strong_probe(basis, grid, p, U, V, ns=ns, seed=1)
    elif mode == "commutator":
        rep = commutator_probe(basis, grid, b, p, U, V, ns=ns, seed=1)
    else:
        rep = maximal_probe(basis, grid, p, U, V, ns=ns, seed=1)
    assert [n for n, _ in rep.entries] == ns
    expected = _dense_entries(mode, spec, basis, grid, p, b(grid.nodes), ns)
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


def _spectral_norms_reference(phi, w, uv, vv, degrees):
    """The p = 2 norms with both factors alive at once and fresh per-degree products."""
    sw = np.sqrt(w)
    factors = [(sw * uv)[:, None] * phi.T, (sw / vv)[:, None] * phi.T]
    scales = [int(np.frexp(max(f.max(), -f.min()))[1]) for f in factors]
    for f, e in zip(factors, scales):
        np.ldexp(f, -e, out=f)
    left, right = factors
    gram, t = left.T @ left, np.linalg.qr(right, mode="r")
    tops = [np.linalg.eigvalsh(t[: n + 1, : n + 1] @ gram[: n + 1, : n + 1] @ t[: n + 1, : n + 1].T)[-1]
            for n in degrees]
    return dict(zip(degrees, np.ldexp(np.sqrt(tops), sum(scales)).tolist()))


def _assert_p2_entries(rep, basis, grid, uv, vv):
    """Each entry equals the reference's and is within 1e-13 of scipy's SVD of the dense weighted matrix."""
    ns = [n for n, _ in rep.entries]
    reference = _spectral_norms_reference(basis.eval_all(grid.nodes, max(ns)), grid.weights, uv, vv, sorted(ns))
    sw = np.sqrt(grid.weights)
    for n, entry in rep.entries:
        assert entry == reference[n], n
        A = _weighted_matrix(partial_sum_matrix(basis, grid, n), uv, vv)
        exact = scipy.linalg.svd(sw[:, None] * A / sw[None, :], compute_uv=False)[0]
        assert entry == pytest.approx(exact, rel=1e-13, abs=0), n


# u = v pairs, then a pair whose two Gram matrices both fail Cholesky at N = 120
P2_WEIGHTS = {
    "unit": (None, None),
    **{f"a={a:g}": (PowerWeightSpec(a=a), PowerWeightSpec(a=a)) for a in (0.45, -0.45, 2.0, -2.0, 5.0)},
    "mixed": (PowerWeightSpec(a=2.0, b=-1.0), PowerWeightSpec(a=-1.0, b=2.0)),
}


@pytest.mark.parametrize("weights", P2_WEIGHTS)
@pytest.mark.parametrize("N", [30, 120])
@pytest.mark.parametrize("spec", [LEGENDRE_ONE, TWO_MASSES], ids=["delta1", "two_masses"])
def test_p2_entries_match_the_dense_svd_of_another_lapack_across_weights(spec, N, weights):
    # one QR, a Gram matrix and an eigvalsh per degree against scipy's SVD of the dense
    # weighted partial-sum matrix, where the Gram matrix is least accurate (u = v = (1-x)^5),
    # and bit for bit against the same arithmetic with both factors alive at once
    u, v = P2_WEIGHTS[weights]
    basis, grid = _basis_and_grid(spec, N)
    ns = default_degree_list(N) if N <= 30 else [4, 14, 29, 70, N]  # each degree costs a dense SVD
    rep = strong_probe(basis, grid, 2.0, u, v, ns=ns)
    _assert_p2_entries(rep, basis, grid, weight_values(u, grid, spec), weight_values(v, grid, spec))


def test_p2_entries_do_not_overflow_where_the_factors_are_finite():
    # u = 1e200 at the atom: the factors are finite, their Gram matrix would overflow unscaled
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 30)
    u = PowerWeightSpec(at_mass=(1e200,))
    rep = strong_probe(basis, grid, 2.0, u, ns=[4, 17, 30])
    _assert_p2_entries(rep, basis, grid, weight_values(u, grid, LEGENDRE_ONE), np.ones(grid.size))


# Per-degree references for the strong, commutator and maximal sweeps: one ratio pass per degree,
# on u S_n Y with Y's columns picked out (so column-major, each column summed pairwise), and the
# increment certificate's norms one scalar root at a time.


def _pnorms_loop(w, X, p):
    return np.sum(w[:, None] * np.abs(X) ** p, axis=0) ** (1.0 / p)


def _pnorm_loop(w, x, p):
    return np.sum(w * np.abs(x) ** p) ** (1.0 / p)


def _best_ratio_loop(w, u, Y, nf, p):
    keep = nf > 0
    return float(np.max(_pnorms_loop(w, norms._weighted_rows(u, Y[:, keep]), p) / nf[keep], initial=0.0))


def _strong_loop(basis, grid, p, u, v, N, ns, seed=0):
    ns, w, uv, vv, phi = norms._sweep_setup(basis, grid, u, v, N, ns)
    G, nG = norms._family(grid, p, vv, seed, 8, [*grid.atom_idx, grid.size // 2])
    vals = {}
    for n, SG in norms._partial_sums(phi, phi @ (w[:, None] * G), sorted(set(ns))):
        D = norms._dual(phi[[k for k in (n, n - 1) if k >= 0]] / vv, p)
        head = phi[: n + 1]
        SD = head.T @ (head @ (w[:, None] * D))
        family = _best_ratio_loop(w, uv, SG, nG, p)
        certs = _best_ratio_loop(w, uv, SD, _pnorms_loop(w, vv[:, None] * D, p), p)
        increment = _pnorm_loop(w, uv * phi[n], p) * _pnorm_loop(w, phi[n] / vv, p / (p - 1))
        vals[n] = float(np.max([family, certs, increment]))  # NaN if any part is
    return vals


def _commutator_loop(basis, grid, b, p, u, v, N, ns, seed=0):
    b_vals = b(grid.nodes)
    ns, w, uv, vv, phi = norms._sweep_setup(basis, grid, u, v, N, ns)
    G, nG = norms._family(grid, p, vv, seed, 12, [*grid.atom_idx, grid.size // 2])
    K = G.shape[1]
    vals = {}
    coef = phi @ (w[:, None] * np.hstack([G, b_vals[:, None] * G]))
    for n, S in norms._partial_sums(phi, coef, sorted(set(ns))):
        best = _best_ratio_loop(w, uv, b_vals[:, None] * S[:, :K] - S[:, K:], nG, p)
        pn = phi[n]
        D = norms._dual(np.stack([pn / vv, b_vals * pn / vv]), p)
        R = np.outer(b_vals * pn, pn @ (w[:, None] * D)) - np.outer(pn, pn @ ((w * b_vals)[:, None] * D))
        vals[n] = float(np.max([best, _best_ratio_loop(w, uv, R, _pnorms_loop(w, vv[:, None] * D, p), p)]))
    return vals


def _maximal_loop(basis, grid, p, u, v, N, ns, seed=0):
    ns, w, uv, vv, phi = norms._sweep_setup(basis, grid, u, v, N, ns)
    G, nG = norms._family(grid, p, vv, seed, 40, [*grid.atom_idx, 0, grid.size - 1])
    sup, vals = np.zeros_like(G), {}
    for k, S in norms._partial_sums(phi, phi @ (w[:, None] * G), range(max(ns) + 1)):
        sup = np.maximum(sup, np.abs(S))
        if k in ns:
            vals[k] = _best_ratio_loop(w, uv, sup, nG, p)
    return vals


def _within_ulps(got, expected, ulps):
    """The same degrees, and values equal (NaN to NaN) or within ``ulps`` units in the last place."""
    assert list(got) == list(expected)
    for n, a in got.items():
        b = expected[n]
        assert (math.isnan(a) and math.isnan(b)) or a == b or abs(a - b) <= ulps * np.spacing(abs(b)), (n, a, b)


LOOP_CASES = {
    "delta1": (LEGENDRE_ONE, None, None),
    "two_masses_uv": (TWO_MASSES, U, V),
    "genjacobi_delta1": (MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)), LEGENDRE_ONE.masses), None, None),
    "laguerre_delta0": (LAGUERRE_ZERO, None, None),
}


@pytest.mark.parametrize("sweep", ["N40", "N200", "N40-unsorted"])
@pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 4.5, 6.0])
@pytest.mark.parametrize("case", LOOP_CASES)
def test_batched_sweeps_match_their_per_degree_loops(monkeypatch, case, p, sweep):
    # each sweep forms its dual certificates at once and takes every ratio in one pass after its
    # degree loop; only the strong increment norms, whose roots it takes over an array, may differ
    spec, u, v = LOOP_CASES[case]
    N = 200 if sweep == "N200" else 40
    ns = [17, 3, 40, 9, 0, 25, 1] if sweep.endswith("unsorted") else None
    basis, grid = _basis_and_grid(spec, N)
    b = bmo_symbols()["smooth_step"]
    seen = []
    monkeypatch.setattr(norms, "_sweep_report", lambda mode, p, ns, vals, *args: seen.append(dict(vals)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Laguerre sums overflow at N = 200, in both
        strong_probe(basis, grid, p, u, v, N=N, ns=ns)
        commutator_probe(basis, grid, b, p, u, v, N=N, ns=ns)
        _within_ulps(seen[0], _strong_loop(basis, grid, p, u, v, N, ns), ulps=4)
        _within_ulps(seen[1], _commutator_loop(basis, grid, b, p, u, v, N, ns), ulps=0)
        if N == 40:
            maximal_probe(basis, grid, p, u, v, N=N, ns=ns)
            _within_ulps(seen[2], _maximal_loop(basis, grid, p, u, v, N, ns), ulps=0)


@pytest.mark.parametrize("spec, mode", [(LEGENDRE_ONE, "maximal"), (legendre([MassPoint(0.0, 1.0)]), "strong")],
                         ids=["atom_at_the_end_node", "atom_at_the_middle_node"])
def test_family_takes_each_spot_once_and_keeps_every_entry(monkeypatch, spec, mode):
    # an atom at 1 is the maximal probe's end node, and an atom at 0 the strong probe's middle node
    basis, grid = basis_for(spec, 30), make_grid(spec, 40)
    spots = [*grid.atom_idx, 0, grid.size - 1] if mode == "maximal" else [*grid.atom_idx, grid.size // 2]
    assert len(set(spots)) == len(spots) - 1
    G, nG = norms._family(grid, 3.0, np.ones(grid.size), 0, 8, spots)
    assert G.shape == (grid.size, 8 + len(spots) - 1) == (grid.size, len(nG))
    np.testing.assert_array_equal(G[:, 8:], np.eye(grid.size)[:, list(dict.fromkeys(spots))])
    probe = maximal_probe if mode == "maximal" else strong_probe
    report = probe(basis, grid, 3.0, N=30).to_dict()
    # each column is summed on its own, so the family with the repeated indicator gives the same entries
    real = norms._family

    def repeated(*args):
        G, nG = real(*args)
        return np.hstack([G, G[:, -1:]]), np.append(nG, nG[-1])

    monkeypatch.setattr(norms, "_family", repeated)
    assert probe(basis, grid, 3.0, N=30).to_dict() == report


@pytest.mark.parametrize("count", [1, 4, 5, 21])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("case", ["delta1", "two_masses_uv"])
def test_blocked_ratio_passes_match_one_stacked_pass(monkeypatch, case, p, count):
    # each column's norm is summed on its own, so blocks of degrees give the floats of one stack of
    # every degree's outputs and of one degree per pass.  At 48 rows a block holds 4 or 3 strong,
    # 3 or 2 commutator and 1 maximal degrees; the lists start at degree 0, whose second strong
    # certificate is zero
    spec, u, v = LOOP_CASES[case]
    ns = list(range(0, 2 * count, 2))
    basis, grid = _basis_and_grid(spec, 40)
    b = bmo_symbols()["smooth_step"]
    seen = []
    monkeypatch.setattr(norms, "_sweep_report", lambda mode, p, ns, vals, *args: seen.append(dict(vals)))
    for rows in (norms._ROWS, 10**9, 1):
        monkeypatch.setattr(norms, "_ROWS", rows)
        strong_probe(basis, grid, p, u, v, ns=ns)
        commutator_probe(basis, grid, b, p, u, v, ns=ns)
        maximal_probe(basis, grid, p, u, v, ns=ns)
    assert len(seen) == 9 and len(seen[0]) == count
    assert seen[:3] == seen[3:6] == seen[6:]


@pytest.mark.parametrize("spec, N, weights", [(LEGENDRE_ONE, 200, False), (LEGENDRE_ONE, 500, False),
                                              (TWO_MASSES, 60, True), (LAGUERRE_ZERO, 200, False)],
                         ids=["delta1-200", "delta1-500", "two_masses_uv", "laguerre_delta0"])
def test_qr_triangle_in_place_is_numpy_qr(spec, N, weights):
    # the sweeps' own v-side factors; on Laguerre + delta_0 the far Gauss weights underflow to 0,
    # so the factor has zero rows
    basis, grid = _basis_and_grid(spec, N)
    vv = V.values(grid.nodes, spec) if weights else np.ones(grid.size)
    f, _ = norms._scaled_factor(basis.eval_all(grid.nodes, N), np.sqrt(grid.weights) / vv)
    if spec is LAGUERRE_ZERO:
        assert not f.any(axis=1).all()
    expected = np.linalg.qr(f, mode="r")
    t = norms._qr_triangle(f)
    assert t.shape == expected.shape and (t == expected).all()


@pytest.mark.parametrize("mode, p, bound", [("strong", 2.0, 2.0), ("strong", 3.0, 1.0), ("commutator", 3.0, 1.5),
                                            ("maximal", 3.0, 1.6)])
def test_probe_sweeps_hold_few_arrays_the_size_of_a_factor(mode, p, bound):
    # the unit is one m x (N+1) factor; on Legendre + delta_1 at N = 200 the sweeps peak at 1.69 (strong,
    # p = 2), 0.72 (strong, p = 3), 1.06 (commutator) and 1.48 (maximal) units, and each of the first three
    # bounds fails a sweep that runs its QR on copies of the factor or stacks every degree's outputs
    # (2.46, 1.67 and 2.41 units); the maximal bound fails a block of 4 of its degrees (2.15 units)
    N = 200
    basis, grid = _basis_and_grid(LEGENDRE_ONE, N)
    b = bmo_symbols()["smooth_step"]
    probe = {
        "strong": lambda: strong_probe(basis, grid, p, N=N),
        "commutator": lambda: commutator_probe(basis, grid, b, p, N=N),
        "maximal": lambda: maximal_probe(basis, grid, p, N=N),
    }[mode]
    probe()  # builds and keeps the basis table, which is not counted
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * grid.size * (N + 1)) <= bound


def test_p2_probes_run_without_scipy_linalg(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("scipy.linalg called on the probe path")

    for name in ("qr", "svd", "eigh", "eigvalsh", "cholesky"):
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
    """The weak probe as a set-major loop over blocks of degrees that sorts every (set, degree) row in full."""
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
            ratios[si, k : k + len(blk)] = _stable_weak_norms(blk, w_kept, p) / denom
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
        weak = _stable_weak_norms(A, w, p)
        assert np.all(_may_reach(A, w, p, 1.0, weak)), case
        # below the smallest normal float the power sum loses its relative precision,
        # so the probe keeps those rows whatever their bound says
        normal = power_sums >= np.finfo(float).tiny
        assert np.all(weak[normal] <= bound[normal] * (1.0 + 1e-10)), case
        np.testing.assert_allclose(weak[normal], bound[normal], rtol=1e-12)
        assert not np.any(_may_reach(A[normal], w, p, 1.0, weak[normal] * (1.0 + 1e-8))), case


def _special_rows(rng, m):
    """Non-negative rows with ties, zeros, subnormals, inf and NaN, plus plain random ones."""
    tiny = np.finfo(float).tiny
    halves = np.arange(m) % 2 == 0  # two levels of tied values, each past insertion sort's 16 at m = 40
    rows = [rng.random(m), rng.integers(0, 4, m) * 0.5, np.zeros(m), np.full(m, 0.3),
            (rng.random(m) < 0.2) * 2.0, rng.random(m) * tiny * 1e-3, np.exp(rng.uniform(-700.0, 700.0, m)),
            np.where(halves, 1.0, 0.5), np.where(halves, 0.5, 1.0)]
    for special in (math.inf, math.nan):
        for row in list(rows[:3]):
            row = row.copy()
            row[rng.integers(0, m, 2)] = special
            rows.append(row)
    both = rows[0].copy()
    both[[1, m - 2]] = math.inf, math.nan
    return np.array(rows + [both])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 6.0])
def test_weak_norms_cut_at_a_floor_are_exact_where_they_reach_it(p):
    rng = np.random.default_rng(9)
    # node 0 has measure 1, the rest 1e-16: summed in node order every 1e-16 after the 1 rounds away,
    # and in any other order some sum before it, so an unstable sort of the ties moves the norms
    ties = np.where(np.arange(40) == 0, 1.0, 1e-16)
    for w in [np.array([0.5, 1.5]), make_grid(SPEC, 59).weights, make_grid(LAGUERRE_ZERO, 300).weights, ties]:
        w = w[w > 0]
        A = _special_rows(rng, len(w))
        exact = _stable_weak_norms(A, w, p)
        has_nan = np.isnan(A).any(axis=1)
        has_inf = np.isinf(A).any(axis=1) & ~has_nan
        # as with the full sort of every row: NaN wins, then inf
        assert np.isnan(exact[has_nan]).all() and (exact[has_inf] == math.inf).all()
        plain = ~has_nan & ~has_inf
        for scale in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0):
            floor = np.where(plain, exact, 1.0) * scale
            cut = _weak_norms(A, w, p, floor)
            assert np.isnan(cut[has_nan]).all() and (cut[has_inf] == math.inf).all()
            reach = plain & (exact >= floor)
            assert (cut[reach] == exact[reach]).all(), (len(w), scale)
            assert (cut[plain & ~reach] < floor[plain & ~reach]).all(), (len(w), scale)
        for floor in (math.inf, math.nan):
            cut = _weak_norms(A, w, p, np.full(len(A), floor))
            assert np.isnan(cut[has_nan]).all() and (cut[has_inf] == math.inf).all()
            assert (cut[plain] == exact[plain]).all() if math.isnan(floor) else (cut[plain] < math.inf).all()


def _exact_lp_norms(A, w, p):
    """(sum_i w_i A_i^p)^{1/p} of every row, summed in logarithms so that nothing overflows or underflows."""
    with np.errstate(divide="ignore"):
        logs = np.log(w) + p * np.log(A)
    top = logs.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp((top[:, 0] + np.log(np.exp(logs - top).sum(axis=1))) / p)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0])
def test_may_reach_bound_never_rules_out_a_row_the_exact_lp_bound_keeps(p):
    # the exact bound keeps a row while its floor is at most ||f||_p (1 + 1e-10); the moment
    # bound must keep it too, also on rows whose squares or fourth powers overflow or underflow
    rng = np.random.default_rng(12)
    for w in [make_grid(SPEC, 300).weights, make_grid(LAGUERRE_ZERO, 200).weights, rng.uniform(0.1, 2.0, 50)]:
        w = w[w > 0]
        m = len(w)
        rows = [scale * rng.random(m) for scale in (1.0, 1e-80, 1e-160, 1e-250, 1e80, 1e160, 1e300)]
        rows += [scale * (rng.random(m) < 0.1) for scale in (1.0, 3e-40, 1e-300, 1e200)]
        rows += [np.exp(rng.uniform(-300.0, 300.0, m)), np.exp(rng.uniform(-700.0, 0.0, m)), np.zeros(m)]
        spike = np.full(m, 1e-200)
        spike[m // 2] = 1e100
        rows.append(spike)
        A = np.array(rows)
        exact = _exact_lp_norms(A, w, p)
        denom = rng.uniform(0.5, 2.0, len(A))
        for scale in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-11):
            floor = exact * scale
            assert _may_reach(A, w, p, denom, floor / denom).all(), scale
        if p in (1.0, 2.0, 4.0):
            # there the bound is the L^p norm itself: rows whose moments are normal floats
            # are ruled out as soon as the floor clears the norm by more than the slack
            with np.errstate(over="ignore"):
                normal = np.all([(A**q @ w >= np.finfo(float).tiny) & np.isfinite(A**q @ w)
                                 for q in ((1, 2) if p <= 2 else (2, 4))], axis=0)
            assert normal.sum() >= 3
            assert not _may_reach(A[normal], w, p, 1.0, exact[normal] * (1.0 + 1e-8)).any()


def test_weak_probe_sorts_at_most_30_percent_of_its_rows(monkeypatch):
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 200)
    probe_rows, reference_rows = [], []

    def counting(norm_pass, rows):
        def count(A, *args):
            rows.append(len(A))
            return norm_pass(A, *args)

        return count

    monkeypatch.setattr(norms, "_weak_norms", counting(norms._weak_norms, probe_rows))
    monkeypatch.setitem(globals(), "_stable_weak_norms", counting(_stable_weak_norms, reference_rows))
    total = len(default_set_family(grid, np.random.default_rng(0))) * 201
    weak_type_probe(basis, grid, 4.0, N=200, seed=0)
    assert total == 7437 and sum(probe_rows) == 718
    _weak_type_probe_reference(basis, grid, 4.0, N=200, seed=0)
    assert sum(reference_rows) == total


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


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal"])
def test_probes_check_their_degree_list(mode):
    # a degree -1 used to read phi[-1], the top row, or raise a bare KeyError
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = basis_for(spec, 10), make_grid(spec, 40)
    b = bmo_symbols()["smooth_step"]
    calls = {
        "strong": lambda ns: strong_probe(basis, grid, 3.0, ns=ns),
        "commutator": lambda ns: commutator_probe(basis, grid, b, 3.0, ns=ns),
        "maximal": lambda ns: maximal_probe(basis, grid, 3.0, ns=ns),
    }
    with pytest.raises(DegreeOutOfRange, match=r"degree -1 is below 0"):
        calls[mode]([-1, 4, 6, 8, 10])
    with pytest.raises(SpecError, match="at least one degree"):
        calls[mode]([])


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
