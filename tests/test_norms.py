import math

import numpy as np
import pytest

from masspoly import (
    GenJacobiSpec,
    Grid,
    GridFunction,
    LorentzIndex,
    MassPoint,
    MeasureSpec,
    PowerWeightSpec,
    SpecError,
    legendre,
    lorentz_norm,
    lp_norm,
    make_grid,
)
from masspoly.norms import (
    bmo_norm_estimate,
    bmo_symbols,
    commutator_matrix,
    commutator_probe,
    default_set_family,
    fit_growth,
    operator_norm_probe,
    partial_sum_matrix,
    rearrangement,
    strong_probe,
    weak_type_probe,
    weight_values,
)
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
