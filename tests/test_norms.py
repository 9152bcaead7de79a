import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from masspoly import norms
from masspoly import (
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
    ProbeReport,
    _verdict,
    _pnorms,
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
            # so they are at r < inf, where the norm is that of the grid without the node
            rest = Grid(grid.nodes[1:], grid.weights[1:], grid.atom_idx - 1)
            val = lorentz_norm(GridFunction(grid, values), LorentzIndex(p, 2.0))
            assert math.isfinite(val) and val == lorentz_norm(GridFunction(rest, values[1:]), LorentzIndex(p, 2.0))


def test_lorentz_index_rejects_p_or_r_below_1():
    with pytest.raises(SpecError, match="p must be in"):
        LorentzIndex(0.5, 1.0)
    with pytest.raises(SpecError, match="r must be in"):
        LorentzIndex(4.0, 0.5)


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
    # the list drops repeats with a set, not np.unique, which imports numpy.ma; it ends at N
    for N in range(4, 3001):
        ns = default_degree_list(N)
        assert ns == np.unique(np.round(np.geomspace(4, N, 20)).astype(int)).tolist(), N
        assert all(type(n) is int for n in ns) and ns[-1] == N


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
    fam = default_set_family(grid, np.random.default_rng(0))
    assert len(fam) > 10
    for mask in fam:
        assert mask.dtype == bool and mask.shape == (grid.size,)
        assert mask.any()


def test_default_set_family_takes_closed_intervals():
    # on nodes spaced 1/8 the dyadic ends -1 + 2^-j and 1 - 2^-j fall on nodes, and so do the ends of
    # the unions drawn below; each interval holds its end nodes, and a repeated mask is dropped
    nodes = np.linspace(-1.0, 1.0, 17)
    grid = Grid(nodes, np.full(17, 2.0 / 17), np.array([], dtype=int))

    class NodeDraws:  # each union is one interval, from node i to node i + 3, i = 1..12 in turn
        i = 0

        def integers(self, lo, hi):
            return 1

        def uniform(self, lo, hi, size):
            self.i = self.i % 12 + 1
            return nodes[[self.i + 3, self.i]]

    k = np.arange(17)
    dyadic = [k <= 8, k <= 4, k <= 2, k <= 1, k == 0, k >= 8, k >= 12, k >= 14, k >= 15, k == 16]
    unions = [(k >= i) & (k <= i + 3) for i in range(1, 13)]
    family = default_set_family(grid, NodeDraws())
    assert [mask.tolist() for mask in family] == [mask.tolist() for mask in dyadic + unions]


def test_weak_type_probe_runs_and_reports():
    basis = basis_for(SPEC, 30)
    grid = make_grid(SPEC, 90)
    rep = weak_type_probe(basis, grid, 2.0, N=30, restricted=True)
    assert rep.mode == "restricted-weak"
    assert rep.verdict == "bounded"
    assert all(v >= 0 for _, v in rep.entries)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_weak_probe_rejects_a_family_without_a_set_of_positive_measure(monkeypatch, count):
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = basis_for(spec, 20), make_grid(spec, 60)
    monkeypatch.setattr(norms, "default_set_family", lambda grid, rng: np.zeros((count, grid.size), bool))
    with pytest.raises(SpecError, match="no set in the family has positive measure"):
        weak_type_probe(basis, grid, 4.0, N=20)


@pytest.mark.parametrize("u", [None, PowerWeightSpec(a=0.25)])
def test_weak_probe_inputs_match_the_per_set_norms_and_products(monkeypatch, u):
    # one _pnorms pass and one product give every set's ||chi_E||_p and coefficients phi (w chi_E / u):
    # the norms within 2 ulps of lp_norm, the coefficients within a few ulps of the scale of their sums
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = basis_for(spec, 200), make_grid(spec, 600)
    seen = {}
    pnorms, partial_sums = norms._pnorms, norms._partial_sums
    monkeypatch.setattr(norms, "_pnorms", lambda w, X, p: seen.setdefault("norms", pnorms(w, X, p)))
    monkeypatch.setattr(norms, "_partial_sums", lambda coef, phi, degrees: partial_sums(
        seen.setdefault("coef", coef), phi, degrees))
    weak_type_probe(basis, grid, 4.0, u, N=200)
    sets = default_set_family(grid, np.random.default_rng(0))
    uv, phi, w = weight_values(u, grid, spec), basis.eval_all(grid.nodes, 200), grid.weights
    per_set = np.array([lp_norm(grid.fn(mask), 4.0) for mask in sets])
    np.testing.assert_allclose(seen["norms"], per_set, rtol=4.5e-16, atol=0)
    inputs = [w * mask / uv for mask in sets]
    coef = np.stack([phi @ x for x in inputs], axis=1)
    scale = np.stack([np.abs(phi) @ np.abs(x) for x in inputs], axis=1)
    assert seen["coef"].shape == coef.shape
    assert np.all(np.abs(seen["coef"] - coef) <= 8 * np.finfo(float).eps * scale)


# the factor path of the probes against the same sweeps on dense m x m matrices

TWO_MASSES = legendre([MassPoint(-1.0, 0.5), MassPoint(0.3, 1.0)])
# the same atoms on a non-classical base, so U and V fit it too
GENJACOBI_TWO_MASSES = MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)), TWO_MASSES.masses)
LEGENDRE_ONE = legendre([MassPoint(1.0, 1.0)])
LAGUERRE_ZERO = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
U = PowerWeightSpec(a=0.3, b=-0.2, at_mass=(2.0, 0.5))
V = PowerWeightSpec(a=-0.25, b=0.4, at_mass=(0.7, 1.5))
TRIALS = {"strong": 8, "commutator": 12, "maximal": 40}  # random trial functions of each probe
SMOOTH_STEP = bmo_symbols()["smooth_step"]
# probe mode -> its call (basis, grid, p, u, v, N, seed); the commutator probe takes SMOOTH_STEP as its
# symbol, and the weak probe takes u alone.  Only those two are wrapped, so an omitted argument still
# reaches each probe's own default.
PROBES = {
    "strong": strong_probe,
    "commutator": lambda basis, grid, p, *a, **k: commutator_probe(basis, grid, SMOOTH_STEP, p, *a, **k),
    "maximal": maximal_probe,
    "weak": lambda basis, grid, p, u=None, v=None, **k: weak_type_probe(basis, grid, p, u, **k),
}


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
    ns = default_degree_list(N)
    rep = PROBES[mode](basis, grid, p, U, V, N=N, seed=1)
    assert [n for n, _ in rep.entries] == ns
    expected = _dense_entries(mode, spec, basis, grid, p, SMOOTH_STEP(grid.nodes), ns)
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


def _assert_p2_entries(rep, basis, grid, uv, vv, svd_degrees=None):
    """The entries at ``svd_degrees`` (all by default) are within 1e-13 of scipy's SVD.

    The SVD is of the dense weighted partial-sum matrix.
    """
    sw = np.sqrt(grid.weights)
    for n, entry in rep.entries:
        if svd_degrees is not None and n not in svd_degrees:
            continue
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
    # weighted partial-sum matrix, also where the Gram matrix is least accurate (u = v = (1-x)^5)
    u, v = P2_WEIGHTS[weights]
    basis, grid = _basis_and_grid(spec, N)
    rep = strong_probe(basis, grid, 2.0, u, v, N=N)
    assert [n for n, _ in rep.entries] == default_degree_list(N)
    svd_degrees = None if N <= 30 else [4, 14, 29, 70, N]  # each degree costs a dense SVD
    _assert_p2_entries(rep, basis, grid, weight_values(u, grid, spec), weight_values(v, grid, spec), svd_degrees)


def test_p2_entries_do_not_overflow_where_the_factors_are_finite():
    # u = 1e200 at the atom: the factors are finite, their Gram matrix would overflow unscaled
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 30)
    u = PowerWeightSpec(at_mass=(1e200,))
    rep = strong_probe(basis, grid, 2.0, u, N=30)
    _assert_p2_entries(rep, basis, grid, weight_values(u, grid, LEGENDRE_ONE), np.ones(grid.size))


def test_ratios_of_an_input_of_norm_0_read_0():
    # on Laguerre + delta_0 with 601 nodes the far Gauss weights underflow to 0, so the indicator of the
    # last node, a member of the maximal probe's family, has norm 0: its ratio reads 0, not inf or NaN
    grid = make_grid(LAGUERRE_ZERO, 600)
    m = grid.size
    rng = np.random.default_rng(2)
    nf = _pnorms(grid.weights, np.column_stack([rng.standard_normal(m), np.eye(m)[:, [-1, 0]]]), 3.0)
    Y = rng.standard_normal((m, 3))
    got = norms._ratios(grid.weights, np.ones(m), np.asfortranarray(Y), nf, 3.0)
    assert nf[1] == 0.0 and got[1] == 0.0
    np.testing.assert_allclose(got[[0, 2]], [lp_norm(grid.fn(Y[:, j]), 3.0) / nf[j] for j in (0, 2)], rtol=1e-13)


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
    probe = PROBES[mode]
    report = probe(basis, grid, 3.0, N=30).to_dict()
    # each column is summed on its own, so the family with the repeated indicator gives the same entries
    real = norms._family

    def repeated(*args):
        G, nG = real(*args)
        return np.hstack([G, G[:, -1:]]), np.append(nG, nG[-1])

    monkeypatch.setattr(norms, "_family", repeated)
    assert probe(basis, grid, 3.0, N=30).to_dict() == report


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal"])
def test_probe_families_have_their_documented_members(monkeypatch, mode):
    # 8, 12 and 40 seeded trials, then the indicators of the atoms and of the middle node (of the two
    # end nodes for the maximal probe)
    basis, grid = basis_for(TWO_MASSES, 20), make_grid(TWO_MASSES, 60)
    m, atoms = grid.size, list(grid.atom_idx)
    expected = {"strong": (8, [*atoms, m // 2]), "commutator": (12, [*atoms, m // 2]),
                "maximal": (40, [*atoms, 0, m - 1])}
    real, calls = norms._family, []

    def recording(grid, p, vv, seed, trials, spots):
        calls.append((seed, trials, list(spots)))
        return real(grid, p, vv, seed, trials, spots)

    monkeypatch.setattr(norms, "_family", recording)
    PROBES[mode](basis, grid, 3.0, N=20, seed=5)
    PROBES[mode](basis, grid, 3.0, N=20)  # the seed defaults to 0
    assert calls == [(5, *expected[mode]), (0, *expected[mode])]


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
                                            ("maximal", 3.0, 1.6), ("weak", 4.0, 0.85), ("weak_u", 4.0, 0.96)])
def test_probe_sweeps_hold_few_arrays_the_size_of_a_factor(mode, p, bound):
    # the unit is one m x (N+1) factor; on Legendre + delta_1 at N = 200 the sweeps peak at 1.69 (strong,
    # p = 2), 0.54 (strong, p = 3), 0.90 (commutator) and 1.34 (maximal) units, and each of the first three
    # bounds fails a sweep that runs its QR on copies of the factor or stacks every degree's outputs
    # (2.46, 1.67 and 2.41 units); the maximal bound fails a scratch of 4 of its degrees (2.15 units).  The
    # restricted-weak probe peaks at 0.76 units, and at 0.94 with u given; its bounds fail a loop that
    # keeps |u S_n| in a buffer of its own without u (0.94 units) or takes a fresh one per degree with u (0.98)
    N = 200
    basis, grid = _basis_and_grid(LEGENDRE_ONE, N)
    mode, u = ("weak", PowerWeightSpec(a=0.25)) if mode == "weak_u" else (mode, None)
    probe = functools.partial(PROBES[mode], basis, grid, p, u, N=N)
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


@pytest.mark.parametrize("mode", ["strong", "maximal"])
def test_probes_reject_power_weights_on_a_laguerre_base(mode):
    # u = 1 - x is negative at every node x > 1, so no growth rate can be read off it
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
    basis, grid = basis_for(spec, 20), make_grid(spec, 60)
    with pytest.raises(SpecError, match="apply to generalized Jacobi bases"):
        PROBES[mode](basis, grid, 3.0, u=PowerWeightSpec(a=1.0), N=20)
    rep = PROBES[mode](basis, grid, 3.0, u=PowerWeightSpec(at_mass=(2.0,)), N=20)
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
    if mode == "weak":  # its one weight u also divides the input, so it plays v's part too
        u, v = u or v, None
    with pytest.raises(NonFiniteWeight):
        PROBES[mode](basis, grid, p, u, v, N=10)


@pytest.mark.parametrize("p, modes", [
    (0.5, ("strong", "commutator", "maximal", "weak")),
    (math.inf, ("strong", "commutator", "maximal", "weak")),
    (1.0, ("strong", "commutator")),  # their certificates need a finite p'
])
def test_probes_reject_bad_exponents(p, modes):
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 30)
    for mode in modes:
        with pytest.raises(SpecError):
            PROBES[mode](basis, grid, p, N=10)


def test_maximal_probe_accepts_p1():
    basis = basis_for(SPEC, 10)
    rep = maximal_probe(basis, make_grid(SPEC, 30), 1.0, N=10)
    assert all(np.isfinite(v) and v > 0 for _, v in rep.entries)


# the weak probe against a full stable sort of every (set, degree) row

def _weak_reference(basis, grid, p, u, sets, N, seed):
    """The weak probe's report, every ratio from ``_stable_weak_norms`` of one full prefix sum.

    The inputs chi_E / u are the columns of one array, their norms come from
    one ``_pnorms`` pass, and the coefficients of the sets of positive
    measure from one product, as in the probe, so the reference reads the
    same floats.  Each set's (N+1) x m partial sums are sorted in full, row by
    row; a node of measure zero adds +0.0 to the cumulative sums, so they are
    those of ``rearrangement`` with that node dropped.  ``sets`` None takes
    the default family.
    """
    if sets is None:
        sets = default_set_family(grid, np.random.default_rng(seed))
    uv, phi = weight_values(u, grid, basis.measure), basis.eval_all(grid.nodes, N)
    denoms = _pnorms(grid.weights, sets.T.astype(float), p)
    live = denoms != 0
    coefs = np.zeros((N + 1, len(sets)))
    coefs[:, live] = phi @ (grid.weights[:, None] * (sets[live].T / uv[:, None]))
    ratios = np.zeros((len(sets), N + 1))
    for si in np.flatnonzero(live):
        partials = np.cumsum(phi * coefs[:, si, None], axis=0)
        ratios[si] = _stable_weak_norms(uv * partials, grid.weights, p) / denoms[si]
    si, n_star = np.unravel_index(np.argmax(ratios), ratios.shape)
    running = np.maximum.accumulate(ratios.max(axis=0))
    entries = [(n, float(running[n])) for n in default_degree_list(N)]
    gamma, res = fit_growth(*zip(*entries))
    diagnostics = {"max_ratio": float(ratios.max()), "extremal_set": int(si), "extremal_n": int(n_star),
                   "n_sets": len(sets)}
    return ProbeReport("restricted-weak", p, entries, gamma, res, _verdict(gamma), seed, grid.size,
                       u={} if u is None else weight_to_dict(u), diagnostics=diagnostics).to_dict()


def _explicit_sets(grid):
    """An empty mask, the full mask, an interval and the atom."""
    interval = (grid.nodes > -0.5) & (grid.nodes < 0.2)
    atom = np.zeros(grid.size, dtype=bool)
    atom[grid.atom_idx] = True
    return np.array([np.zeros(grid.size, dtype=bool), np.ones(grid.size, dtype=bool), interval, atom])


def _grid_with_split_nodes(spec, m):
    """A Gauss grid with every node twice, its weight split 3:7, so every S_n has tied values of unequal measure."""
    grid = make_grid(spec, m)
    weights = np.stack([0.3 * grid.weights, 0.7 * grid.weights], axis=1).ravel()
    return Grid(np.repeat(grid.nodes, 2), weights, 2 * grid.atom_idx)


# (measure, N, grid size, u, sets from the grid or None for the default family, seed)
WEAK_CASES = {
    "legendre_n63": (LEGENDRE_ONE, 63, 126, None, None, 0),
    "legendre_n64": (LEGENDRE_ONE, 64, 128, None, None, 1),
    "legendre_n65": (LEGENDRE_ONE, 65, 130, None, None, 2),
    "legendre_n130": (LEGENDRE_ONE, 130, 260, None, None, 0),
    "two_masses_u": (TWO_MASSES, 40, 120, U, None, 3),
    "laguerre_mass": (LAGUERRE_ZERO, 30, 90, None, None, 0),
    "explicit_sets": (LEGENDRE_ONE, 70, 140, None, _explicit_sets, 0),
    # hand-built grids
    "zero_weight_node": (SPEC, 20, 60, None, _explicit_sets, 0),
    "split_nodes": (TWO_MASSES, 30, 90, U, None, 0),
}
HAND_BUILT = {"zero_weight_node": _grid_with_left_endpoint, "split_nodes": _grid_with_split_nodes}


def _use_sets(monkeypatch, sets):
    """Make the weak probe run on ``sets`` in place of its default family, unless they are None."""
    if sets is not None:
        monkeypatch.setattr(norms, "default_set_family", lambda grid, rng: sets)


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 6.0])
@pytest.mark.parametrize("case", list(WEAK_CASES))
def test_weak_probe_matches_rearrangement_reference(monkeypatch, case, p):
    spec, N, m, u, make_sets, seed = WEAK_CASES[case]
    grid = HAND_BUILT.get(case, make_grid)(spec, m)
    basis = basis_for(spec, N)
    sets = None if make_sets is None else make_sets(grid)
    _use_sets(monkeypatch, sets)
    rep = weak_type_probe(basis, grid, p, u, N=N, seed=seed)
    assert rep.to_dict() == _weak_reference(basis, grid, p, u, sets, N, seed)


@functools.lru_cache(maxsize=None)
def _basis_and_grid(spec, N):
    return basis_for(spec, N), make_grid(spec, 3 * N)


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("N", [200, 400])
def test_weak_probe_matches_rearrangement_reference_at_scale(N, p):
    basis, grid = _basis_and_grid(LEGENDRE_ONE, N)
    rep = weak_type_probe(basis, grid, p, N=N)
    assert rep.to_dict() == _weak_reference(basis, grid, p, None, None, N, 0)


def test_weak_probe_bound_overflow_is_silent_and_exact():
    # |S_n chi|^6 overflows at the far Laguerre nodes; an infinite bound keeps its row
    basis, grid = _basis_and_grid(LAGUERRE_ZERO, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = weak_type_probe(basis, grid, 6.0, N=60)
    assert rep.to_dict() == _weak_reference(basis, grid, 6.0, None, None, 60, 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_weak_probe_ends_its_sweep_at_the_first_nan_ratio(monkeypatch):
    # on Laguerre + delta_0 at N = 400 the basis table is inf or NaN from degree 164 on, at nodes whose
    # Gauss weight underflowed to 0, and the coefficient product takes 0 * inf = NaN there: degree 164's
    # ratios are NaN, no later degree is computed, and the report is refused at the next listed degree
    basis, grid = _basis_and_grid(LAGUERRE_ZERO, 400)
    calls = []

    def counting(A, *args):
        calls.append(len(A))
        return _weak_norms(A, *args)

    monkeypatch.setattr(norms, "_weak_norms", counting)
    with pytest.raises(NumericalBreakdown, match="non-finite entry at degree 193 on a grid of 1201 nodes"):
        weak_type_probe(basis, grid, 4.0, N=400)
    assert len(calls) == 165  # degrees 0 to 164


def _sorted_rows(A, w, p, floor):
    """``_weak_norms(A, w, p, floor)`` and the indices of the rows it copies out of A to sort: those its bound keeps."""
    taken = []

    class Rows(np.ndarray):
        def __getitem__(self, key):
            if self.ndim == 2 and isinstance(key, np.ndarray):  # not the rows a loop takes one by one
                taken.append(key.tolist())
            return super().__getitem__(key)

    out = _weak_norms(A.view(Rows), w, p, floor)
    assert len(taken) == 1
    return out, taken[0]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 6.0])
def test_weak_norm_within_slack_of_lp_bound_where_they_are_equal(p):
    # ||f||_{p,inf} = ||f||_p for a constant times an indicator: only rounding separates
    # the sorted cumulative sum from the bound, and the pass's 1e-10 slack must cover it;
    # where the power sum underflows the rounding is coarser, and the row must be kept anyway.
    # The pass takes signed rows (random signs on the same magnitudes); at p = 1, 2 and 4 its
    # bound forms one moment alone
    rng, signs = np.random.default_rng(4), np.random.default_rng(5)
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
        signed = A * signs.choice([-1.0, 1.0], A.shape)
        power_sums = A**p @ w
        bound = power_sums ** (1.0 / p)
        weak = _stable_weak_norms(A, w, p)
        # every row reaches a floor of its own norm, so none is ruled out and each reads it exactly
        out, kept = _sorted_rows(signed, w, p, weak)
        assert kept == list(range(len(A))) and (out == weak).all(), case
        # below the smallest normal float the power sum loses its relative precision,
        # so the pass keeps those rows whatever their bound says
        normal = power_sums >= np.finfo(float).tiny
        assert np.all(weak[normal] <= bound[normal] * (1.0 + 1e-10)), case
        np.testing.assert_allclose(weak[normal], bound[normal], rtol=1e-12)
        # a floor 1e-8 above the norm clears the bound by more than the slack: every row is ruled out and reads 0
        out, kept = _sorted_rows(signed[normal], w, p, weak[normal] * (1.0 + 1e-8))
        assert kept == [] and (out == 0.0).all(), case


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
    # and in any other order some sum before it, so an unstable sort of the ties moves the norms.
    # One measure has total mass 3/8, below 1, where the cut's root w.sum()^{1/p} is not w.sum()^p
    ties = np.where(np.arange(40) == 0, 1.0, 1e-16)
    for w in [np.array([0.5, 1.5]), make_grid(SPEC, 59).weights, make_grid(LAGUERRE_ZERO, 300).weights, ties,
              make_grid(SPEC, 59).weights / 8]:
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


def _log_moments(A, w, q):
    """log sum_i w_i A_i^q of every row, summed in logarithms so that nothing overflows or underflows."""
    with np.errstate(divide="ignore"):
        logs = np.log(w) + q * np.log(A)
    top = logs.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        return top[:, 0] + np.log(np.exp(logs - top).sum(axis=1))


def _exact_lp_norms(A, w, p):
    """(sum_i w_i A_i^p)^{1/p} of every row, summed in logarithms so that nothing overflows or underflows."""
    with np.errstate(over="ignore"):
        return np.exp(_log_moments(A, w, p) / p)


def _log_moment_bound(A, w, p):
    """log of the moment bound that ``_weak_norms`` documents, and the rows whose moments in it are normal floats.

    M_1^{2/p-1} M_2^{1-1/p} for p <= 2, M_2^{2/p-1/2} M_4^{1/2-1/p} for p <= 4 and
    max|f|^{1-4/p} M_4^{1/p} above, in logarithms; a moment whose power is 0 is left out.
    """
    if p <= 2:
        terms = ((1, 2.0 / p - 1.0), (2, 1.0 - 1.0 / p))
    elif p <= 4:
        terms = ((2, 2.0 / p - 0.5), (4, 0.5 - 1.0 / p))
    else:
        terms = ((math.inf, 1.0 - 4.0 / p), (4, 1.0 / p))
    log_bound, normal = np.zeros(len(A)), np.ones(len(A), dtype=bool)
    for q, power in terms:
        if power == 0:
            continue
        if q == math.inf:
            with np.errstate(divide="ignore"):
                log_bound += power * np.log(A.max(axis=1))
            continue
        log_bound += power * _log_moments(A, w, q)
        with np.errstate(over="ignore"):
            moment = A**q @ w
        normal &= (moment >= np.finfo(float).tiny) & np.isfinite(moment)
    return log_bound, normal


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0])
def test_weak_norms_bound_never_rules_out_a_row_the_exact_lp_bound_keeps(p):
    # the exact bound keeps a row while its floor is at most ||f||_p (1 + 1e-10); the moment
    # bound of ``_weak_norms`` must keep it too, also on rows whose squares or fourth powers
    # overflow or underflow.  The pass takes signed rows: random signs on the same magnitudes.
    # Two spikes sit on the node of least measure, subnormal in the last measure, where a moment
    # the bound does not use underflows while those it uses are normal floats
    rng, signs = np.random.default_rng(12), np.random.default_rng(13)
    for w in [make_grid(SPEC, 300).weights, make_grid(LAGUERRE_ZERO, 200).weights, rng.uniform(0.1, 2.0, 50),
              np.array([1e-320, 0.5, 1.0, 2.0])]:
        w = w[w > 0]
        m = len(w)
        rows = [scale * rng.random(m) for scale in (1.0, 1e-80, 1e-160, 1e-250, 1e80, 1e160, 1e300)]
        rows += [scale * (rng.random(m) < 0.1) for scale in (1.0, 3e-40, 1e-300, 1e200)]
        rows += [np.exp(rng.uniform(-300.0, 300.0, m)), np.exp(rng.uniform(-700.0, 0.0, m)), np.zeros(m)]
        spike = np.full(m, 1e-200)
        spike[m // 2] = 1e100
        rows.append(spike)
        for top in (1e5, 1e10):
            rows.append(np.where(np.arange(m) == np.argmin(w), top, 0.0))
        A = np.array(rows)
        signed = A * signs.choice([-1.0, 1.0], A.shape)
        exact, weak = _exact_lp_norms(A, w, p), _stable_weak_norms(A, w, p)
        for scale in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-11):
            floor = exact * scale
            out, kept = _sorted_rows(signed, w, p, floor)
            assert kept == list(range(len(A))), scale
            # a row that reaches its floor reads its norm exactly, and any other row reads below it;
            # the zero row's floor is NaN (its log moment is -inf - -inf), which cuts no node
            reach = ~(weak < floor)
            assert (out[reach] == weak[reach]).all() and (out[~reach] < floor[~reach]).all(), scale
        # rows whose moments in the bound are normal floats are ruled out as soon as the floor
        # clears the bound by more than the slack, and read 0; at p = 1, 2 and 4 the bound is ||f||_p itself
        log_bound, normal = _log_moment_bound(A, w, p)
        with np.errstate(over="ignore"):
            bound = np.exp(log_bound)
        normal &= np.isfinite(bound)
        assert normal.sum() >= 3
        out, kept = _sorted_rows(signed[normal], w, p, bound[normal] * (1.0 + 1e-8))
        assert kept == [] and (out == 0.0).all()
        if p in (1.0, 2.0, 4.0):
            np.testing.assert_allclose(bound[normal], exact[normal], rtol=1e-12)


def _rows_the_weak_probe_sorts(monkeypatch, basis, grid, p):
    """How many rows the weak probe's norm passes sort, not merely take in, up to degree 200 at seed 0."""
    kept_rows = []

    def sorting(A, w, p, floor):
        out, kept = _sorted_rows(A, w, p, floor)
        kept_rows.append(len(kept))
        return out

    monkeypatch.setattr(norms, "_weak_norms", sorting)
    weak_type_probe(basis, grid, p, N=200, seed=0)
    return sum(kept_rows)


def test_weak_probe_sorts_at_most_30_percent_of_its_rows(monkeypatch):
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 200)
    total = len(default_set_family(grid, np.random.default_rng(0))) * 201
    assert total == 7437 and _rows_the_weak_probe_sorts(monkeypatch, basis, grid, 4.0) == 718


def test_weak_probe_rules_out_rows_by_their_first_moment_at_p_1(monkeypatch):
    # at p = 1 the moment bound is M_1 alone, the L^1 norm itself, so it sorts fewer rows than at p = 4
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 200)
    assert _rows_the_weak_probe_sorts(monkeypatch, basis, grid, 1.0) == 557


def test_weak_probe_sorts_almost_every_row_at_p_1_5(monkeypatch):
    # for 1 < p < 2 the moment bound rules out only 90 of the 7437 rows; a tighter bound there must update this
    basis, grid = _basis_and_grid(LEGENDRE_ONE, 200)
    assert _rows_the_weak_probe_sorts(monkeypatch, basis, grid, 1.5) == 7347


class _Table:
    """A basis stand-in for the weak probe, which reads only a table of rows, its degree and its measure."""

    def __init__(self, rows):
        self.rows, self.degree, self.measure = rows, len(rows) - 1, SPEC

    def eval_all(self, x, n):
        return self.rows[: n + 1]


def test_weak_probe_keeps_a_later_degree_that_ties_the_running_maximum(monkeypatch):
    # set 1 reaches 4.000000000000001 at degree 1, the rounded norm / measure of its row; set 0
    # ties it exactly at degree 2, so the first-occurrence argmax is (set 0, degree 2).  Set 0's
    # row peaks at its heavy node 2, whose cumulative measure in the row's sorted order is the
    # row's whole measure, 2 + 1 ulp, one ulp above w.sum() = 2: the floor's slack alone keeps
    # that node above the cut of ``_weak_norms``, and with it turned to (1 + 1e-10) the row reads
    # below the tie and the argmax falls back to (set 1, degree 1)
    t = 1.2e-16
    grid = Grid(np.linspace(-1.0, 1.0, 7), np.array([t, t, 1.0, 1.0, t, t, t]), np.array([], dtype=int))
    rows = np.zeros((7, 7))
    rows[:3] = [[2, 1, 0, -2, 0, 0, 0], [0, 2, 1, 0, 0, 2, 1], [0, 0, -1, 2, -2, -2, 2]]
    sets = np.array([np.isin(np.arange(7), [1, 4]), np.isin(np.arange(7), [1])])
    _use_sets(monkeypatch, sets)
    rep = weak_type_probe(_Table(rows), grid, 1.0, N=6).to_dict()
    assert rep["diagnostics"] == {"max_ratio": 4.000000000000001, "extremal_set": 0, "extremal_n": 2, "n_sets": 2}
    assert rep == _weak_reference(_Table(rows), grid, 1.0, None, sets, 6, 0)


# a grid resolves the basis up to degree n only with at least n + 1 Gauss nodes

@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probes_reject_a_grid_too_coarse_for_the_top_degree(mode):
    basis = basis_for(SPEC, 40)
    with pytest.raises(GridTooSmall, match="at least 41"):
        PROBES[mode](basis, make_grid(SPEC, 40), 2.0, N=40)  # 40 Gauss nodes plus the atom
    assert len(PROBES[mode](basis, make_grid(SPEC, 41), 2.0, N=40).entries) == len(default_degree_list(40))


def _small_sweep(mode, N):
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = basis_for(spec, 10), make_grid(spec, 40)
    return PROBES[mode](basis, grid, 3.0, N=N)


@pytest.mark.parametrize("N, message", [
    *((N, f"a degree sweep starts at n = 4; N = {N} is too small") for N in (-1, 0, 3)),
    # the top half of a sweep to N = 4 or 5 holds one degree, too few for the growth fit
    (4, "two distinct degrees in the top half of the sweep, got 4$"),
    (5, "two distinct degrees in the top half of the sweep, got 4, 5$"),
])
@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probes_reject_a_sweep_below_degree_6(mode, N, message):
    # a sweep's degrees run from 4 to N, so N < 4 is refused before any basis row is read
    with pytest.raises(SpecError, match=message):
        _small_sweep(mode, N)


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probes_fit_a_sweep_to_degree_6(mode):
    # the top half of 4, 5, 6 holds two degrees, the fewest the growth fit takes
    rep = _small_sweep(mode, 6)
    assert [n for n, _ in rep.entries] == [4, 5, 6]
    assert np.isfinite(rep.gamma)


@pytest.mark.parametrize("m", [0, -5])
def test_make_grid_rejects_a_grid_without_nodes(m):
    with pytest.raises(SpecError, match=f"grid size {m}"):
        make_grid(SPEC, m)


@pytest.mark.parametrize("mode", ["strong", "commutator", "maximal", "weak"])
def test_probe_reports_record_their_weights(mode):
    basis = basis_for(TWO_MASSES, 20)
    grid = make_grid(TWO_MASSES, 60)
    rep = PROBES[mode](basis, grid, 3.0, U, V, N=20)
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

    def counting(coef, phi, degrees):
        calls.append(phi.shape)
        return real(coef, phi, degrees)

    monkeypatch.setattr(norms, "_partial_sums", counting)
    rep = PROBES[mode](basis, grid, 3.0, N=20)
    assert len(calls) == 1 and calls[0][0] == 21  # one coefficient row per degree 0..20
    assert len(rep.entries) == len(default_degree_list(20))


# one step of 121 rows, as a sweep to a large N takes, in a process whose OpenBLAS thread count is set
_STEP_SUMS = """
import hashlib
import numpy as np
from masspoly.norms import _partial_sums
rng = np.random.default_rng(0)
phi, coef = rng.standard_normal((121, 601)), rng.standard_normal((121, 40))
((_, sums),) = _partial_sums(coef, phi, [120])
print(hashlib.sha1(sums.tobytes()).hexdigest())
"""


def test_partial_sums_are_the_same_floats_at_one_and_two_threads():
    # the transpose of phi_rows^T coef_rows; coef_rows^T phi_rows moves in the last place between the two
    src = str(Path(norms.__file__).resolve().parents[1])
    digests = [subprocess.run([sys.executable, "-c", _STEP_SUMS], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}).stdout
               for threads in (1, 2)]
    assert digests[0] == digests[1] != ""
