import math
import sys

import mpmath
import numpy as np
import pytest

from masspoly import (
    DegreeOutOfRange,
    GenJacobiSpec,
    GridMismatch,
    IllConditionedFit,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    NonFiniteWeight,
    PointOnBoundary,
    SpecError,
    legendre,
    make_grid,
    opoly,
    transforms,
)
from masspoly.norms import Grid
from masspoly.opoly import basis_for, cd_kernel, gauss_points, recurrence_for
from masspoly.transforms import (
    commutator,
    commutator_psi_parts,
    fit_pollard_coefficients,
    hilbert_transform,
    laguerre_mass_kernel,
    laguerre_mass_table,
    laguerre_q_at_zero,
    laguerre_q_values,
    lebesgue_rule_for,
    maximal_op,
    partial_sum,
    pollard_coefficients,
    pollard_parts,
    q_basis_for,
    q_measure,
)


SPEC = legendre([MassPoint(0.3, 1.0)])


def test_partial_sum_reproduces_polynomials():
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 40)
    f = grid.fn(lambda x: x**6 - 0.2 * x**2 + 1.0)
    x = np.linspace(-0.9, 0.9, 9)
    vals = partial_sum(basis, f, 8, x)
    assert np.allclose(vals, x**6 - 0.2 * x**2 + 1.0, atol=1e-11)


def test_split_identity():
    # S_n f = T_n f + sum_i M_i L_n(x, a_i) f(a_i) pointwise
    basis = basis_for(SPEC, 12)
    grid = make_grid(SPEC, 48)
    rng = np.random.default_rng(2)
    f = grid.fn(np.polynomial.Polynomial(rng.standard_normal(14)))
    # f restricted to its atoms; T_n f integrates f against d-mu only, so it is S_n of the rest
    on_atoms = np.zeros(grid.size)
    on_atoms[grid.atom_idx] = f.values[grid.atom_idx]
    x = np.linspace(-0.95, 0.95, 21)
    for n in (3, 7, 12):
        s_n = partial_sum(basis, f, n, x)
        t_n = partial_sum(basis, grid.fn(f.values - on_atoms), n, x)
        mass_terms = partial_sum(basis, grid.fn(on_atoms), n, x)
        atom_part = np.zeros_like(x)
        for mp in SPEC.masses:
            fa = float(f.values[grid.atom_idx[0]])
            atom_part += mp.mass * cd_kernel(basis, n, x, mp.location) * fa
        tol = 1e-12 * max(1, np.abs(s_n).max())
        assert np.max(np.abs(mass_terms - atom_part)) < tol
        assert np.max(np.abs(s_n - t_n - atom_part)) < tol


def test_maximal_dominates_each_partial_sum():
    basis = basis_for(SPEC, 10)
    grid = make_grid(SPEC, 40)
    f = grid.fn(lambda x: np.sign(x - 0.1))
    x = np.linspace(-0.9, 0.9, 11)
    star = maximal_op(basis, f, 10, x)
    for n in range(11):
        assert np.all(star >= np.abs(partial_sum(basis, f, n, x)) - 1e-12)


def test_commutator_vanishes_for_constant_symbol():
    basis = basis_for(SPEC, 8)
    grid = make_grid(SPEC, 32)
    f = grid.fn(lambda x: np.exp(x))
    x = np.linspace(-0.8, 0.8, 7)
    vals = commutator(basis, lambda t: np.full_like(np.asarray(t, dtype=float), 2.5), f, 6, x)
    assert np.max(np.abs(vals)) < 1e-12


def test_hilbert_transform_oracles():
    # H(1)(x) = log((1+x)/(1-x)); H(y)(x) = x log((1+x)/(1-x)) - 2
    rule = opoly.gauss_jacobi_rule(400)
    assert hilbert_transform(lambda y: np.ones_like(y), 0.5, rule) == pytest.approx(np.log(3.0), abs=1e-10)
    assert hilbert_transform(lambda y: y, 0.0, rule) == pytest.approx(-2.0, abs=1e-10)


def test_hilbert_transform_quadratic_antiderivative():
    # g(y) = 1 - y^2: H(g)(x) = 2x + (1 - x^2) log((1+x)/(1-x))
    xs = np.linspace(-0.9, 0.9, 13)
    exact = 2 * xs + (1 - xs**2) * np.log((1 + xs) / (1 - xs))
    got = np.array([hilbert_transform(lambda y: 1.0 - y**2, float(x), opoly.gauss_jacobi_rule(400)) for x in xs])
    assert np.max(np.abs(got - exact)) < 1e-8


def test_hilbert_transform_rejects_boundary():
    with pytest.raises(PointOnBoundary):
        hilbert_transform(lambda y: np.ones_like(y), 1.0, opoly.gauss_jacobi_rule(400))


def test_pollard_parts_take_their_hilbert_transforms_from_hilbert_transform(monkeypatch):
    # W2 and W3 are principal values; a profile attributes their time to hilbert_transform
    calls = []

    def counted(g, x, rule):
        calls.append(len(x))
        return hilbert_transform(g, x, rule)

    monkeypatch.setattr(transforms, "hilbert_transform", counted)
    nu_basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 17)
    parts = pollard_parts(nu_basis, q_basis_for(nu_basis), lambda y: 1.0 + y, 16, np.linspace(-0.8, 0.8, 7))
    assert calls == [7, 7]
    assert parts.residual < 1e-8


def test_q_measure_bumps_exponents_and_masses():
    spec = legendre([MassPoint(1.0, 1.0), MassPoint(0.5, 2.0)])
    q = q_measure(spec)
    assert q.base.alpha == pytest.approx(1.0)
    assert q.base.beta == pytest.approx(1.0)
    # the +-1 atoms are annihilated by the (1 - x^2) factor
    assert q.mass_locations == (0.5,)
    assert q.masses[0].mass == pytest.approx(2.0 * (1 - 0.25))


@pytest.mark.parametrize("spec", [
    legendre([MassPoint(1.0, 1.0), MassPoint(-0.5, 2.0)]),
    MeasureSpec(GenJacobiSpec(0.5, -0.5), (MassPoint(0.2, 0.5),)),
    MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),))),
])
def test_q_basis_from_cholesky_steps_matches_the_q_measure_built_directly(spec):
    # the reference builds (1-x^2) d-mu as its own base: Jacobi(a+1, b+1) in
    # closed form, or a discretization of the bumped weight
    nu_basis = basis_for(spec, 100)
    ref = basis_for(q_measure(spec), 100).nu_rec
    rec = q_basis_for(nu_basis).nu_rec
    assert len(rec) == len(ref)
    assert np.max(np.abs(rec.alphas - ref.alphas)) < 1e-13
    assert np.max(np.abs(rec.betas / ref.betas - 1.0)) < 1e-13


def test_pollard_reconstruction_and_limits():
    spec = legendre([MassPoint(1.0, 1.0)])
    nu_basis = basis_for(spec, 22)
    q_basis = q_basis_for(nu_basis)
    r, s, cond = fit_pollard_coefficients(nu_basis, q_basis, 20)
    assert cond < 1e10
    f = np.polynomial.Polynomial([0.3, -1.0, 0.0, 0.4])
    parts = pollard_parts(nu_basis, q_basis, f, 20, np.linspace(-0.8, 0.8, 9))
    assert parts.residual < 1e-8
    assert np.allclose(parts.reconstruction, parts.t_n, atol=1e-8)
    # the asymptotic values are -1/2 and 1/2
    assert abs(parts.r + 0.5) < 0.1
    assert abs(parts.s - 0.5) < 0.1


@pytest.mark.parametrize("n", [3, 20])
def test_pollard_fit_reports_the_condition_number_of_its_documented_matrix(n):
    # the fit's rows are the Pollard parts W1, W2, W3 of three polynomials (seed 7) with n + 2 coefficients,
    # at most 9 low ones and a leading one shifted by 2, on 31 points off the nodes; cond is the matrix's
    # largest over smallest singular value, here from numpy's SVD rather than the least-squares solver's
    nu_basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 22)
    q_basis = q_basis_for(nu_basis)
    x = np.linspace(-0.87, 0.87, 31) + 1.3e-4
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(3):
        c = np.zeros(n + 2)
        low = rng.standard_normal(min(n, 8) + 1)
        c[: len(low)] = low
        c[n + 1] = rng.standard_normal() + 2.0
        parts = pollard_parts(nu_basis, q_basis, np.polynomial.Polynomial(c), n, x)
        rows.append(np.column_stack([parts.w1, parts.w2, parts.w3]))
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    assert fit_pollard_coefficients(nu_basis, q_basis, n)[2] == pytest.approx(sv[0] / sv[-1], rel=1e-9)


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_pollard_fit_refuses_a_rank_deficient_or_ill_conditioned_matrix(monkeypatch, eps):
    # W3 replaced by W2 + eps W3: rank 2 at eps = 0, and at 1e-13 rank 3 with a condition number above 1e13
    pollard_w = transforms._pollard_w

    def collinear(*args):
        w1, w2, w3 = pollard_w(*args)
        return w1, w2, w2 + eps * w3

    monkeypatch.setattr(transforms, "_pollard_w", collinear)
    nu_basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 22)
    with pytest.raises(IllConditionedFit, match="Pollard fit ill-conditioned"):
        fit_pollard_coefficients(nu_basis, q_basis_for(nu_basis), 20)


@pytest.mark.parametrize("masses", [[(1.0, 1.0)], [(0.3, 1.0), (1.0, 1.0)]])
def test_pollard_coefficients_match_the_fit(masses):
    nu_basis = basis_for(legendre([MassPoint(a, m) for a, m in masses]), 130)
    q_basis = q_basis_for(nu_basis)
    for n in (4, 16, 40, 128):
        r, s = pollard_coefficients(nu_basis, q_basis, n)
        r_fit, s_fit, _ = fit_pollard_coefficients(nu_basis, q_basis, n)
        assert r == pytest.approx(r_fit, abs=1e-10)
        assert s == pytest.approx(s_fit, abs=1e-10)


def test_pollard_coefficients_tend_to_their_limits_without_underflow():
    # each product of betas alone underflows near n = 540
    nu_basis = basis_for(MeasureSpec(GenJacobiSpec(0.5, -0.5), (MassPoint(-1.0, 0.5),)), 1001)
    r, s = pollard_coefficients(nu_basis, q_basis_for(nu_basis), 1000)
    assert abs(r + 0.5) < 1e-5 and abs(s - 0.5) < 1e-10


@pytest.mark.parametrize("n", [4, 16, 32, 64])
def test_pollard_parts_reconstruct_on_a_jacobi_endpoint_measure(n):
    nu_basis = basis_for(MeasureSpec(GenJacobiSpec(0.5, -0.5), (MassPoint(-1.0, 0.5),)), n + 1)
    f = np.polynomial.Polynomial([1.0, 1.0])
    parts = pollard_parts(nu_basis, q_basis_for(nu_basis), f, n, np.linspace(-0.8, 0.8, 7))
    assert parts.residual < 1e-12


@pytest.mark.parametrize("n", [16, 64])
def test_pollard_parts_reconstruct_f_nonzero_at_the_singular_endpoint(n):
    # f = 1 leaves (1+y)^(-1/2) in the Hilbert-transform integrands, which only the
    # Gauss-Jacobi end panel of the Lebesgue rule integrates exactly
    nu_basis = basis_for(MeasureSpec(GenJacobiSpec(0.5, -0.5), (MassPoint(-1.0, 0.5),)), n + 1)
    f = np.polynomial.Polynomial([1.0])
    parts = pollard_parts(nu_basis, q_basis_for(nu_basis), f, n, np.linspace(-0.8, 0.8, 7))
    assert parts.residual < 1e-12


@pytest.mark.parametrize("order", [12, 24, 40, 72])
def test_graded_rule_nodes_stay_inside_the_interval(order):
    # (1+x)^(-1/2) is infinite at x = -1, so a node there spoils every integral
    spec = MeasureSpec(GenJacobiSpec(0.5, -0.5))
    xs, ws = lebesgue_rule_for(spec, order=order)
    assert np.all((-1.0 < xs) & (xs < 1.0))
    # integral of (1-x)^(1/2) (1+x)^(-1/2) over [-1, 1]; the end panels absorb both factors
    assert np.sum(ws * spec.base.density(xs)) == pytest.approx(np.pi, rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (-0.7, 0.3), (0.25, 1.5), (2.5, -0.9)])
@pytest.mark.parametrize("order", [12, 24])
def test_lebesgue_rule_integrates_jacobi_weights(alpha, beta, order):
    spec = MeasureSpec(GenJacobiSpec(alpha, beta))
    xs, ws = lebesgue_rule_for(spec, order=order)
    exact = 2 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(alpha + beta + 2)
    assert np.sum(ws * spec.base.density(xs)) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 2.0), (3.0, 0.0)])
def test_lebesgue_rule_without_singular_ends_is_the_graded_rule(alpha, beta):
    # non-negative integer exponents leave nothing to absorb: the plain graded rule, bit for bit
    spec = MeasureSpec(GenJacobiSpec(alpha, beta))
    for order in (12, 40):
        xs, ws = lebesgue_rule_for(spec, extra_singular=(-0.6,), order=order)
        gx, gw = lebesgue_rule_for(legendre(), extra_singular=(-0.6,), order=order)
        assert xs.tobytes() == gx.tobytes() and ws.tobytes() == gw.tobytes()


@pytest.mark.parametrize("t, g", [(0.3, -0.5), (-0.2, -0.9), (0.5, 0.7)])
@pytest.mark.parametrize("order", [12, 24])
def test_lebesgue_rule_integrates_interior_singularities(t, g, order):
    # the panels next to t absorb |x - t|^g, corrected for the node rounding next to t
    spec = MeasureSpec(GenJacobiSpec(0.0, 0.0, ((t, g),)))
    xs, ws = lebesgue_rule_for(spec, order=order)
    exact = ((1 - t) ** (g + 1) + (1 + t) ** (g + 1)) / (g + 1)
    assert np.sum(ws * spec.base.density(xs)) == pytest.approx(exact, rel=1e-13)


def test_graded_rule_keeps_every_level_where_no_node_collapses():
    # one cell, each half graded by 45 levels plus its middle panel.  At order 24
    # the finest panel's nodes next to -1 round onto -1, so that level goes; next
    # to 1 they stay inside and every level is kept
    xs, _ = lebesgue_rule_for(MeasureSpec(GenJacobiSpec(0.5, -0.5)), order=24)
    assert np.count_nonzero(xs > 0.0) == 24 * (45 + 1)
    assert np.count_nonzero(xs < 0.0) == 24 * 45
    assert np.all((-1.0 < xs) & (xs < 1.0))


@pytest.mark.parametrize("base, extra, panels", [
    (GenJacobiSpec(), (), 2),  # one cell, each half ungraded: one panel
    (GenJacobiSpec(), (0.3,), 2 * (46 + 1)),  # two cells graded at 0.3 only: 45 levels and the middle panel
    (GenJacobiSpec(0.5, -0.5), (), 2 * 46),
    (GenJacobiSpec(0.5, -0.5, ((0.2, 1.0),)), (), 4 * 46),
    (GenJacobiSpec(1.0, 2.0, ((0.2, 2.0),)), (), 2),  # factors that are polynomials are not graded
    (GenJacobiSpec(1.0, 2.5, ((-0.4, 4.0), (0.2, 3.0))), (), 3 * 46 + 1),
], ids=str)
def test_lebesgue_rule_for_grades_each_factor_that_is_not_a_polynomial(base, extra, panels):
    xs, ws = lebesgue_rule_for(MeasureSpec(base), extra)
    assert len(xs) == len(ws) == 12 * panels  # the default order is 12


@pytest.mark.parametrize("points", [(1.5,), (-0.2, -1.0 - 1e-9)])
def test_graded_rule_rejects_points_outside_the_interval(points):
    with pytest.raises(SpecError, match=r"lies outside the interval \(-1\.0, 1\.0\)"):
        lebesgue_rule_for(legendre(), points)


def test_graded_rule_grades_toward_a_point_on_an_end():
    xs, ws = lebesgue_rule_for(legendre(), (1.0,))
    assert np.all((-1.0 < xs) & (xs < 1.0)) and 1.0 - xs.max() < 1e-15
    assert np.sum(ws * np.log(1.0 - xs)) == pytest.approx(2 * math.log(2.0) - 2, rel=1e-13)


@pytest.mark.parametrize("direct, expect", [([2.0, -4.0, 1.0], 0.5 / 4.0), ([0.0, -0.0, 0.0], 0.5)])
def test_split_residuals_are_relative_to_the_largest_direct_value(direct, expect):
    # reconstruction minus direct is at most 0.5 in size, over max |direct|, or over 1 where direct is all zeros
    x, zero, direct = np.zeros(3), np.zeros(3), np.array(direct)
    recon = direct + np.array([0.25, -0.5, 0.125])
    pollard = transforms.PollardParts(3, 1.0, 0.5, x, recon, zero, zero, direct)
    psi = transforms.CommutatorParts(3, 1.0, 0.5, x, recon, zero, zero, zero, direct)
    assert pollard.residual == psi.residual == expect


def test_commutator_psi_split_residual():
    # f has a degree-(n+1) component and one symbol is not a polynomial, so
    # [M_b, S_n] f is O(1) and every Psi part counts in the residual
    spec = legendre([MassPoint(1.0, 1.0)])
    mu_basis = basis_for(legendre(), 22)
    q_basis = q_basis_for(basis_for(spec, 22))
    f = np.polynomial.Legendre([1.0, 0.5, -0.25, 0.0, 0.1] + [0.0] * 16 + [1.0])
    x = np.linspace(-0.8, 0.8, 9)
    for b, singular in ((lambda t: t, ()), (lambda t: np.abs(t - 0.2), (0.2,))):
        parts = commutator_psi_parts(mu_basis, q_basis, b, f, 20, x, b_singularities=singular)
        assert parts.n == 20
        assert np.max(np.abs(parts.direct)) > 0.05
        assert parts.residual < 1e-10
    # b_I is the Lebesgue mean of b: for b = 2 it is 2, so Psi_1 = (b - b_I) W1 and Psi_2 = (b W)_1 - b_I W1 vanish
    parts = commutator_psi_parts(mu_basis, q_basis, lambda t: 2.0 + 0.0 * t, f, 20, x)
    assert np.max(np.abs(parts.psi1)) < 1e-12 and np.max(np.abs(parts.psi2)) < 1e-12


def test_each_operator_call_evaluates_each_basis_once(monkeypatch):
    calls = []
    table = opoly.recurrence_table

    def counted(*args, **kwargs):
        # a basis table comes from Recurrence.table; gauss_points' blocks build a Gauss rule
        if sys._getframe(1).f_code is opoly.Recurrence.table.__code__:
            calls.append(1)
        return table(*args, **kwargs)

    monkeypatch.setattr(opoly, "recurrence_table", counted)
    spec = legendre([MassPoint(0.3, 1.0), MassPoint(1.0, 1.0)])
    nu_basis, mu_basis = basis_for(spec, 22), basis_for(legendre(), 22)
    q_nu, q_mu = q_basis_for(nu_basis), q_basis_for(mu_basis)
    f = make_grid(spec, 80).fn(np.cos)
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.0, 0.4])
    x = np.linspace(-0.8, 0.8, 9)
    # one table per basis: the Pollard parts read nu and q at (rule nodes, x), and
    # the independent T_n reads nu at (Gauss nodes of mu, x)
    for run, tables in [
        (lambda: partial_sum(nu_basis, f, 20, x), 1),
        (lambda: commutator(nu_basis, np.sin, f, 20, x), 1),
        (lambda: maximal_op(nu_basis, f, 20, x), 1),
        (lambda: pollard_parts(nu_basis, q_nu, poly, 20, x), 3),
        (lambda: fit_pollard_coefficients(nu_basis, q_nu, 20), 3),
        (lambda: commutator_psi_parts(mu_basis, q_mu, np.sin, poly, 20, x), 2),
    ]:
        for basis in (nu_basis, mu_basis, q_nu, q_mu):
            object.__setattr__(basis.nu_rec, "_kept", None)  # forget the kept table
        calls.clear()
        run()
        assert len(calls) == tables


def test_a_sampled_f_off_its_nodes_raises_grid_mismatch():
    # interpolated linearly at the rule nodes, a sampled f would leave a residual of 3.9e-5
    spec = legendre([MassPoint(1.0, 1.0)])
    nu_basis = basis_for(spec, 22)
    mu_basis = basis_for(legendre(), 22)
    grid = make_grid(spec, 80)
    f = np.polynomial.Polynomial([0.3, -1.0, 0.0, 0.4, 0.0, -0.2])
    x = np.linspace(-0.8, 0.8, 9)
    assert pollard_parts(nu_basis, q_basis_for(nu_basis), f, 20, x).residual < 1e-12
    with pytest.raises(GridMismatch):
        pollard_parts(nu_basis, q_basis_for(nu_basis), grid.fn(f), 20, x)
    with pytest.raises(GridMismatch):
        commutator_psi_parts(mu_basis, q_basis_for(mu_basis), np.sin, grid.fn(f), 20, x)
    with pytest.raises(GridMismatch):
        hilbert_transform(grid.fn(np.cos), 0.3, lebesgue_rule_for(legendre(), (0.3,)))
    with pytest.raises(GridMismatch):
        commutator(basis_for(spec, 8), make_grid(spec, 33).fn(np.sin), make_grid(spec, 32).fn(f), 6, x)


def test_grid_functions_are_read_on_their_own_nodes():
    rule = lebesgue_rule_for(legendre(), (0.2,))
    x = np.array([-0.3, 0.6])
    nodes = np.concatenate([rule[0], x])
    g = Grid(nodes, np.ones_like(nodes), np.array([], dtype=int)).fn(np.cos)
    assert np.array_equal(hilbert_transform(g, x, rule=rule), hilbert_transform(np.cos, x, rule=rule))
    # the commutator reads a b sampled on the grid of f at the points x, exactly at its nodes
    basis = basis_for(SPEC, 8)
    grid = make_grid(SPEC, 32)
    f = grid.fn(np.exp)
    at_nodes = grid.nodes[5:9]
    sampled = commutator(basis, grid.fn(np.sin), f, 6, at_nodes)
    assert np.allclose(sampled, commutator(basis, np.sin, f, 6, at_nodes), rtol=0, atol=1e-15)


def test_commutator_names_the_mass_point_where_the_symbol_is_not_finite():
    spec = legendre([MassPoint(1.0, 1.0)])
    f = make_grid(spec, 32).fn(np.exp)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteWeight, match="-inf at the mass point 1"):
        commutator(basis_for(spec, 8), lambda t: np.log(1.0 - t), f, 6, np.array([0.1]))


def test_commutator_names_the_grid_node_where_the_symbol_is_not_finite():
    # log(1 - x) is NaN at every Laguerre node x > 1; the mass point at 0 is checked first and is finite
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
    grid = make_grid(spec, 32)
    first = grid.nodes[grid.nodes > 1.0].min()
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteWeight, match=f"nan at the grid node {first:g};"):
        commutator(basis_for(spec, 8), lambda t: np.log(1.0 - t), grid.fn(np.exp), 6, np.array([0.1]))


def test_laguerre_q_at_zero_formula():
    # Q_n(0) = Gamma(n+alpha+2)^{1/2} / (Gamma(alpha+2) n!^{1/2})
    assert laguerre_q_at_zero(0.0, np.array([1]))[0] == pytest.approx(np.sqrt(2.0))
    vals = laguerre_q_values(0.0, 10, 0.0)[:, 0]
    assert np.allclose(vals, laguerre_q_at_zero(0.0, np.arange(11)), rtol=1e-12)
    assert np.all(vals > 0)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_laguerre_q_at_zero_against_mpmath(alpha):
    ns = np.append(np.arange(0, 1000, 37), 1000)
    exact = [mpmath.sqrt(mpmath.gamma(n + alpha + 2) / mpmath.factorial(n)) / mpmath.gamma(alpha + 2) for n in ns]
    assert np.max(np.abs(laguerre_q_at_zero(alpha, ns) / np.array(exact, dtype=float) - 1.0)) < 1e-14


def test_operators_and_pollard_coefficients_reject_a_negative_degree():
    nu_basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 10)
    q_basis = q_basis_for(nu_basis)
    f = make_grid(nu_basis.measure, 30).fn(np.cos)
    x = np.linspace(-0.5, 0.5, 3)
    for call in (
        lambda: partial_sum(nu_basis, f, -1, x),
        lambda: maximal_op(nu_basis, f, -1, x),
        lambda: commutator(nu_basis, np.sin, f, -1, x),
        lambda: pollard_coefficients(nu_basis, q_basis, -1),
        lambda: fit_pollard_coefficients(nu_basis, q_basis, -1),
        lambda: pollard_parts(nu_basis, q_basis, np.cos, -1, x),
    ):
        with pytest.raises(DegreeOutOfRange, match=r"degree -1 is below 0|0 <= n .* got n = -1"):
            call()


def test_pollard_coefficients_take_every_degree_both_bases_reach():
    # on Lebesgue measure b_0 = 2, b_1 = 1/3 and (1-x^2) dx has mass 4/3, so at n = 0
    # t^2 = (1/3) 2 / (4/3) = 1/2, r_0 = -t^2 / (1 + t^2) = -1/3 and s_0 = t / (1 + t^2) = sqrt(2) / 3
    nu_basis = basis_for(legendre(), 10)
    q_basis = q_basis_for(nu_basis)
    r, s = pollard_coefficients(nu_basis, q_basis, 0)
    assert r == pytest.approx(-1 / 3, rel=1e-15) and s == pytest.approx(math.sqrt(2) / 3, rel=1e-15)
    assert np.all(np.isfinite(pollard_coefficients(nu_basis, q_basis, 9)))
    short_q = q_basis_for(basis_for(legendre(), 5))
    assert np.all(np.isfinite(pollard_coefficients(nu_basis, short_q, 5)))
    for q, n in ((q_basis, 10), (short_q, 6)):  # p_{n+1} of nu, or q_n, is past its basis
        for fn in (pollard_coefficients, fit_pollard_coefficients):
            with pytest.raises(DegreeOutOfRange, match=rf"got n = {n}$"):
                fn(nu_basis, q, n)


@pytest.mark.parametrize("n", [0, 8, 9])
def test_pollard_rule_takes_order_max_16_n_plus_8(n):
    # both ends of Jacobi(0.5, -0.5) are graded: one cell of 2 * 46 panels, each of the rule's order (up to
    # order 17; from 18 on the finest level next to -1 would round onto it and goes)
    nu_basis = basis_for(MeasureSpec(GenJacobiSpec(0.5, -0.5)), 48)
    rule, x, z, _ = transforms._pollard_setup(nu_basis, q_basis_for(nu_basis), n, 0.25)
    assert len(rule[0]) == 92 * max(16, n + 8)
    assert x.tolist() == [0.25] and z.tolist() == [*rule[0], 0.25]


def test_laguerre_mass_kernel_rejects_a_negative_degree():
    with pytest.raises(DegreeOutOfRange, match=r"degree -1 is below 0"):
        laguerre_mass_kernel(0.0, 1.0, -1, np.array([0.7]))


def test_laguerre_mass_kernel_small_n():
    vals, r0 = laguerre_mass_kernel(0.0, 1.0, 0, np.array([0.7]))
    assert r0 == pytest.approx(0.5)
    assert vals[0] == pytest.approx(0.5)


def test_laguerre_mass_kernel_consistency():
    spec = MeasureSpec(LaguerreSpec(1.0), (MassPoint(0.0, 1.0),))
    nu_basis = basis_for(spec, 16)
    x = np.linspace(0.1, 8.0, 9)
    vals, r_n = laguerre_mass_kernel(1.0, 1.0, 12, x)
    direct = cd_kernel(nu_basis, 12, x, 0.0)
    assert np.max(np.abs(vals - direct) / np.abs(direct).max()) < 1e-8


def test_laguerre_mass_kernel_orthogonality():
    # int L_n(x,0) x R(x) dnu = 0 for deg R <= n-1
    alpha, n = 0.0, 8
    spec = MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, 1.0),))
    nu_basis = basis_for(spec, n + 2)
    rec = recurrence_for(LaguerreSpec(alpha), 60)
    xs, ws = gauss_points(rec, 60)
    kern = cd_kernel(nu_basis, n, xs, 0.0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        R = np.polynomial.Polynomial(rng.standard_normal(n))
        integral = np.sum(ws * kern * xs * R(xs))  # atom contributes x=0 -> nothing
        assert abs(integral) < 1e-9


def test_laguerre_mass_table_shapes_and_trend():
    ns, l_diag, q0, r, scaled = laguerre_mass_table(0.0, 1.0, 30)
    assert list(ns) == list(range(31))
    assert np.all(np.diff(l_diag) >= -1e-12)  # L_n(0,0) nondecreasing
    assert np.allclose(r, l_diag / q0, rtol=1e-12)


def test_lebesgue_rule_integrates_smooth_functions():
    xs, ws = lebesgue_rule_for(legendre())
    assert np.sum(ws * np.cos(xs)) == pytest.approx(2 * np.sin(1.0), abs=1e-12)
