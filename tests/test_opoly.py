import dataclasses
import operator
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special

from masspoly import (
    DegreeOutOfRange,
    EigenFailure,
    GenJacobiSpec,
    GridTooSmall,
    HermiteSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    NumericalBreakdown,
    SpecError,
    legendre,
)
from masspoly import opoly
from masspoly.opoly import (
    _dd_div,
    _dd_mul,
    _stieltjes,
    _stieltjes_mp,
    _two_prod,
    _two_sum,
    basis_for,
    cd_kernel,
    classical_recurrence,
    gauss_jacobi_rule,
    gauss_points,
    genjacobi_discretization,
    kernel_decomposition,
    kernel_envelope,
    kernel_envelope_ratio,
    kernel_sequence,
    linear_step,
    mass_subsets,
    modified_bases,
    monomial_coefficients,
    quadratic_step,
    recurrence_for,
    stieltjes_recurrence,
)


def quad_with_atoms(spec, basis, m):
    """Quadrature for nu: Gauss rule of the continuous part plus the atoms."""
    rec = recurrence_for(spec.base, m)
    xs, ws = gauss_points(rec, m)
    if spec.masses:
        xs = np.concatenate([xs, [mp.location for mp in spec.masses]])
        ws = np.concatenate([ws, [mp.mass for mp in spec.masses]])
    return xs, ws


def scipy_rule(base, m):
    """Gauss rule of a Laguerre or Hermite weight from scipy, independent of opoly."""
    if isinstance(base, LaguerreSpec):
        return scipy.special.roots_genlaguerre(m, base.alpha)
    return scipy.special.roots_hermite(m)


def gram(spec, basis, N, m=None):
    xs, ws = quad_with_atoms(spec, basis, m or (2 * N + 10))
    phi = basis.eval_all(xs, N)
    return (phi * ws) @ phi.T


def test_classical_recurrence_legendre():
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), 5)
    assert np.allclose(rec.alphas, 0.0)
    assert rec.betas[0] == pytest.approx(2.0)
    ks = np.arange(1, len(rec.betas))
    assert np.allclose(rec.betas[1:], ks**2 / (4.0 * ks**2 - 1.0))


def test_classical_recurrence_laguerre_hermite():
    rec = classical_recurrence(LaguerreSpec(1.0), 4)
    ks = np.arange(len(rec.alphas))
    assert np.allclose(rec.alphas, 2 * ks + 2.0)  # 2k + alpha + 1
    assert rec.betas[0] == pytest.approx(1.0)  # Gamma(alpha+1)
    rec_h = classical_recurrence(HermiteSpec(), 4)
    assert np.allclose(rec_h.alphas, 0.0)
    assert rec_h.betas[0] == pytest.approx(np.sqrt(np.pi))
    assert np.allclose(rec_h.betas[1:], np.arange(1, len(rec_h.betas)) / 2.0)


def test_stieltjes_matches_classical():
    base = GenJacobiSpec(0.5, -0.5)
    rec_c = classical_recurrence(base, 20)
    rec_s = recurrence_for(GenJacobiSpec(0.5, -0.5, ((0.0, 0.0),)), 20)
    assert np.allclose(rec_c.alphas, rec_s.alphas, atol=1e-11)
    assert np.allclose(rec_c.betas, rec_s.betas, rtol=1e-11)


@pytest.mark.parametrize("a, b", [(0.5, -0.5), (1.5, 0.25), (-0.3, 2.0)])
@pytest.mark.parametrize("split", [(), ((0.3, 0.0),)])  # one cell, or two cells split at x = 0.3
def test_stieltjes_recurrence_of_a_classical_spec_matches_classical(a, b, split):
    rec_s = stieltjes_recurrence(GenJacobiSpec(a, b, split), 30)
    rec_c = classical_recurrence(GenJacobiSpec(a, b), 30)
    np.testing.assert_allclose(rec_s.alphas, rec_c.alphas, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rec_s.betas, rec_c.betas, rtol=1e-13, atol=0)


def test_stieltjes_recurrence_rejects_degree_0_and_other_bases():
    spec = GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),))
    for high_precision in (False, True):
        with pytest.raises(SpecError, match=r"N must be >= 1"):
            recurrence_for(spec, 0, high_precision=high_precision)
    with pytest.raises(SpecError, match=r"N must be >= 1"):
        stieltjes_recurrence(spec, -1)
    with pytest.raises(SpecError, match=r"generalized Jacobi weights, not LaguerreSpec"):
        stieltjes_recurrence(LaguerreSpec(0.5), 5)


@pytest.mark.parametrize("a, b", [(2.5, -0.9), (-0.9, -0.9), (-0.7, 0.3)])
def test_genjacobi_discretization_mass_is_exact(a, b):
    # the end panels read the density at their stored nodes, where the weights
    # carry the rounding of each node's offset from the end
    _, w = genjacobi_discretization(GenJacobiSpec(a, b), 4000)
    exact = 2 ** (a + b + 1) * scipy.special.beta(a + 1, b + 1)
    assert abs(w.sum() / exact - 1) <= 2e-15


@pytest.mark.parametrize("spec", [
    GenJacobiSpec(0.5, -0.5),
    GenJacobiSpec(0.5, -0.5, ((0.2, 1.0),)),
    GenJacobiSpec(0.0, 0.0, ((-0.5, 2.0), (0.3, -0.5))),
], ids=str)
def test_genjacobi_discretization_spreads_m_nodes_over_its_cells(spec):
    # one cell between each two neighbouring factor locations, 2 * 12 + 2 panels a cell (12 graded levels at each
    # edge and two central panels), each of one order: ceil(m / (cells * (2 * 12 + 1))), within 24..80
    cells = len(spec.factors) - 1
    for m in (10, 600, 1000, 2000, 4000, 5000, 8000, 10**6):
        order = min(80, max(24, -(-m // (cells * 25))))
        x, w = genjacobi_discretization(spec, m)
        assert len(x) == len(w) == cells * 26 * order, m


def test_gauss_points_two_point_legendre():
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), 4)
    xs, ws = gauss_points(rec, 2)
    assert np.allclose(sorted(xs), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(ws, [1.0, 1.0])
    for m in (10, 0, -1):
        with pytest.raises(GridTooSmall, match=r"outside 1\.\.4"):
            gauss_points(rec, m)


@pytest.mark.parametrize("coefficient, k, value, m", [
    # dsterf did not converge on a NaN at m // 2 in gauss_points, which raised EigenFailure
    ("alphas", 1, np.nan, 3), ("alphas", 750, np.nan, 1501), ("betas", 1, np.nan, 3), ("betas", 750, np.nan, 1501),
    # each of these gave gauss_points a rule of NaNs, or a finite wrong one, and no error
    ("alphas", 0, np.inf, 2), ("alphas", 0, np.inf, 3), ("alphas", 0, np.inf, 1501),
    ("betas", 1, np.inf, 3), ("betas", 1, np.inf, 1501),
    ("alphas", 0, np.nan, 2), ("alphas", 1, np.nan, 2),
])
def test_recurrence_rejects_a_non_finite_coefficient(coefficient, k, value, m):
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), m)
    coefficients = {"alphas": rec.alphas.copy(), "betas": rec.betas.copy()}
    coefficients[coefficient][k] = value
    with pytest.raises(NumericalBreakdown, match=rf"^recurrence {coefficient}\[{k}\] is {value}, not finite$"):
        opoly.Recurrence(**coefficients)


def test_recurrence_names_its_first_non_finite_coefficient():
    alphas, betas = np.zeros(5), np.ones(5)
    alphas[[1, 3]] = np.nan, np.inf
    betas[2] = -np.inf
    with pytest.raises(NumericalBreakdown, match=r"^recurrence alphas\[1\] is nan, not finite$"):
        opoly.Recurrence(alphas, betas)
    with pytest.raises(NumericalBreakdown, match=r"^recurrence betas\[2\] is -inf, not finite$"):
        opoly.Recurrence(np.zeros(5), betas)


def test_gauss_points_raise_eigen_failure_when_dsterf_does_not_converge(monkeypatch):
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), 5)
    monkeypatch.setattr(opoly, "_dsterf", lambda: lambda d, e: (np.array(d), 2))
    with pytest.raises(EigenFailure, match="order 5 did not converge: LAPACK's dsterf left 2 off-diagonal"):
        gauss_points(rec, 5)


def test_gauss_points_hold_no_array_of_order_squared():
    # the nodes take O(m) memory: a dense Jacobi matrix alone would be m floats per node
    m = 1500
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), m)
    gauss_points(rec, m)  # binds dsterf
    tracemalloc.start()
    try:
        gauss_points(rec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * m * 8


@pytest.mark.parametrize("m, nan", [(1, False), (2, False), (300, False), (3, True)])
def test_scipy_binding_of_dsterf_matches_numpys(m, nan):
    # the binding of a numpy whose LAPACK exports no dsterf: no symbol name is found
    rec = classical_recurrence(LaguerreSpec(0.0), m)
    d, e = rec.alphas[:m].copy(), np.sqrt(rec.betas[1:m])
    if nan:
        d[1] = np.nan
    given = d.copy(), e.copy()
    (x, info), (y, scipy_info) = opoly._dsterf()(d, e), opoly._dsterf(())(d, e)
    assert info == scipy_info and (info > 0) == nan
    assert nan or x.tobytes() == y.tobytes()
    assert np.array_equal(d, given[0], equal_nan=True) and np.array_equal(e, given[1])  # neither writes to them


def test_gauss_weights_sum_to_total_mass():
    rec = classical_recurrence(GenJacobiSpec(0.5, 0.5), 12)
    _, ws = gauss_points(rec, 8)
    assert np.sum(ws) == pytest.approx(rec.betas[0])


@pytest.mark.parametrize("base, m", [(LaguerreSpec(0.0), 100), (LaguerreSpec(1.0), 150), (HermiteSpec(), 120)])
def test_gauss_weights_relative_accuracy_unbounded(base, m):
    # far nodes carry weights down to ~1e-245; each must keep its relative accuracy
    xs, ws = gauss_points(recurrence_for(base, m), m)
    x_ref, w_ref = scipy_rule(base, m)
    np.testing.assert_allclose(xs, x_ref, rtol=1e-12)
    np.testing.assert_allclose(ws, w_ref, rtol=1e-9, atol=0)


@pytest.mark.parametrize("order", [24, 60, 80])
@pytest.mark.parametrize("a, b", [(0.0, -0.9), (0.0, -0.5), (0.0, 0.25), (0.0, 1.0), (0.0, 2.5), (0.5, -0.5)])
def test_gauss_jacobi_rule_against_scipy(a, b, order):
    # Golub-Welsch on the closed-form recurrence, checked against scipy's Newton-polished rule
    xs, ws = gauss_jacobi_rule(order, a, b)
    x_ref, w_ref = scipy.special.roots_jacobi(order, a, b)
    assert np.max(np.abs(xs - x_ref)) <= 4e-15
    rec = classical_recurrence(GenJacobiSpec(a, b), order)
    assert abs(ws.sum() / rec.betas[0] - 1) <= 2e-15

    def gram_residual(x, w):
        phi = rec.table(x, order - 1)
        return np.max(np.abs((phi * w) @ phi.T - np.eye(order)))

    # no larger than on scipy's rule, unless both sit at the rounding level of
    # the Gram sums (4.9e-15 against 4.8e-15 at a = 0, b = 2.5, order 24)
    residual = gram_residual(xs, ws)
    assert residual <= 1e-12
    assert residual <= max(gram_residual(x_ref, w_ref), 1e-14)


def test_mass_basis_hand_example():
    # Lebesgue on [-1,1] plus delta_1: P_1 = (sqrt(3)/2)(x - 1/3)
    basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 3)
    assert basis.eval_all(0.0, 1)[1] == pytest.approx(-np.sqrt(3.0) / 6.0)
    assert basis.eval_all(1.0 / 3.0, 1)[1] == pytest.approx(0.0, abs=1e-14)
    assert basis.eval_all(0.5, 0)[0] == pytest.approx(1.0 / np.sqrt(3.0))  # total mass 3


def test_orthonormality_with_masses():
    spec = MeasureSpec(
        GenJacobiSpec(-0.5, 0.5, ((0.0, 1.0),)),
        (MassPoint(-1.0, 0.5), MassPoint(0.3, 0.25), MassPoint(1.0, 0.5)),
    )
    basis = basis_for(spec, 20)
    G = gram(spec, basis, 20, 60)
    assert np.abs(G - np.eye(21)).max() < 1e-11


@pytest.mark.parametrize("N", [60, 150])
@pytest.mark.parametrize("spec", [
    MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),)),
    MeasureSpec(LaguerreSpec(1.0)),
    MeasureSpec(HermiteSpec(), (MassPoint(0.5, 1.0),)),
])
def test_unbounded_support_gram_on_independent_rule(spec, N):
    # scipy's Gauss rule with N + 20 nodes plus the atoms integrates nu exactly to degree 2N
    xs, ws = scipy_rule(spec.base, N + 20)
    xs = np.concatenate([xs, [mp.location for mp in spec.masses]])
    ws = np.concatenate([ws, [mp.mass for mp in spec.masses]])
    phi = basis_for(spec, N).eval_all(xs, N)
    assert np.abs((phi * ws) @ phi.T - np.eye(N + 1)).max() <= 1e-12


def test_degree_cap_raises():
    basis = basis_for(legendre(), 5)
    with pytest.raises(DegreeOutOfRange):
        basis.eval_all(np.array([0.0]), 6)
    with pytest.raises(DegreeOutOfRange):
        cd_kernel(basis, 6, 0.0, 0.0)
    with pytest.raises(DegreeOutOfRange, match=r"degree 6 exceeds cap 5"):
        kernel_envelope_ratio(basis, 1.0, 6)


@pytest.mark.parametrize("spec", [
    legendre([MassPoint(0.3, 1.0)]),
    MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),))),
], ids=str)
def test_a_negative_degree_is_out_of_range(spec):
    for build in (basis_for, modified_bases):
        with pytest.raises(DegreeOutOfRange, match=r"degree -1 is below 0"):
            build(spec, -1)
    assert basis_for(spec, 0).degree == 0
    assert all(len(rec) == 1 for rec in modified_bases(spec, 0).values())


def test_a_negative_degree_fails_typed_on_every_basis_call():
    basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 10)
    x = np.linspace(-0.9, 0.9, 5)
    for call in (
        lambda: basis.eval_all(x, -1),
        lambda: cd_kernel(basis, -1, x, x),
        lambda: kernel_sequence(basis, x, 1.0, -1),
        lambda: kernel_envelope_ratio(basis, 1.0, -1),
    ):
        with pytest.raises(DegreeOutOfRange, match=r"degree -1 is below 0, the lowest degree a basis reaches"):
            call()


def test_the_degree_cap_is_the_length_of_nu_rec():
    basis = basis_for(legendre([MassPoint(0.3, 1.0)]), 7)
    assert basis.degree == len(basis.nu_rec) - 1 == len(basis.rec) - 1 == 7
    assert "degree" not in {f.name for f in dataclasses.fields(basis)}


def test_cd_kernel_reproducing_property():
    spec = legendre([MassPoint(0.3, 1.0)])
    basis = basis_for(spec, 10)
    xs, ws = quad_with_atoms(spec, basis, 30)
    y = 0.42
    K = cd_kernel(basis, 6, xs, y)
    for k in range(7):
        pk = basis.eval_all(xs, k)[k]
        integral = np.sum(ws * K * pk)
        assert integral == pytest.approx(basis.eval_all(y, k)[k], abs=1e-12)


def test_kernel_sequence_matches_cd_kernel():
    basis = basis_for(legendre([MassPoint(0.3, 1.0)]), 12)
    x = np.linspace(-0.9, 0.9, 5)
    seq = kernel_sequence(basis, x, 0.3, 12)
    for n in (0, 5, 12):
        assert np.allclose(seq[n], cd_kernel(basis, n, x, 0.3))


def test_kernel_envelope_shapes():
    spec = legendre([MassPoint(1.0, 1.0)])
    x = np.linspace(-0.95, 0.95, 11)
    env_edge = kernel_envelope(spec, 1.0, x, 10)
    env_int = kernel_envelope(legendre([MassPoint(0.3, 1.0)]), 0.3, x, 10)
    # Legendre alpha=beta=0: interior envelope carries both edge factors
    expect = (1.0 - x + 0.01) ** -0.25 * (1.0 + x + 0.01) ** -0.25
    assert np.allclose(env_int, expect)
    # mass at +1 drops the (1-x) factor
    assert np.allclose(env_edge, (1.0 + x + 0.01) ** -0.25)


@pytest.mark.parametrize("a", [1.0, 0.5, 0.2])
def test_kernel_envelope_matches_its_closed_form(a):
    # (1-x)^{1/2} (1+x)^{-1/2} |x - 0.2|: the end 1 gives (1 - x + n^-2)^{-1/2}, the end -1 the power 0,
    # and the singularity (|x - 0.2| + n^-1)^{-1/2}; the factor at the atom a drops out
    spec = MeasureSpec(GenJacobiSpec(0.5, -0.5, ((0.2, 1.0),)), (MassPoint(a, 1.0),))
    x = np.linspace(-0.95, 0.95, 41)
    n = np.array([1, 2, 7, 30, 400])[:, None]
    edge = (1.0 - x + 1.0 / n**2) ** -0.5
    inner = (np.abs(x - 0.2) + 1.0 / n) ** -0.5
    expect = {1.0: inner * np.ones_like(edge), 0.5: edge * inner, 0.2: edge}[a]
    np.testing.assert_allclose(kernel_envelope(spec, a, x, n), expect, rtol=1e-14, atol=0)
    np.testing.assert_allclose(kernel_envelope(spec, a, x, 7), expect[2], rtol=1e-14, atol=0)


def test_kernel_envelope_ratio_is_bounded_and_monotone():
    basis = basis_for(legendre([MassPoint(0.3, 1.0)]), 60)
    sups = kernel_envelope_ratio(basis, 0.3, 60)
    assert np.all(np.diff(sups) >= 0)
    assert np.isfinite(sups[-1])
    assert sups[-1] < 50.0


def test_eval_all_keeps_one_read_only_table_equal_to_a_fresh_one():
    # seeded requests: one point set with the degree going up and down, alternating
    # point sets, scalars, and two bases on the same points
    rng = np.random.default_rng(11)
    bases = [basis_for(legendre([MassPoint(0.3, 1.0)]), 40), basis_for(legendre(), 40)]
    points = [np.linspace(-1.0, 1.0, 17), np.cos(np.arange(9.0)), np.array([-0.0, 0.0, 0.5]),
              np.array([0.0, 0.0, 0.5]), 0.3, -1.0]
    for _ in range(400):
        basis = bases[rng.integers(len(bases))]
        x = points[rng.integers(len(points))]
        x = x.copy() if isinstance(x, np.ndarray) else x  # equal floats, a new array
        n = int(rng.integers(41))
        out = basis.eval_all(x, n)
        fresh = basis.nu_rec.table(np.atleast_1d(x), n)
        assert np.array_equal(out, fresh) and out.tobytes() == fresh.tobytes()
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0


def test_eval_all_sees_points_changed_after_the_call():
    basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 12)
    x = np.linspace(-0.9, 0.9, 7)
    basis.eval_all(x, 5)
    x[2] = 0.123
    assert np.array_equal(basis.eval_all(x, 9), basis.nu_rec.table(x, 9))


def _count_table_cells(monkeypatch):
    cells = []
    table = opoly.recurrence_table

    def counted(*args, **kwargs):
        out = table(*args, **kwargs)
        cells.append(out.size)
        return out

    monkeypatch.setattr(opoly, "recurrence_table", counted)
    return cells


def test_kernel_decomposition_over_n_computes_each_modified_row_once(monkeypatch):
    cells = _count_table_cells(monkeypatch)
    spec = legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 1.0)])
    basis, mods = basis_for(spec, 30), modified_bases(spec, 30)
    for n in range(2, 31):
        kernel_decomposition(basis, mods, n)
    # 48 identity-grid points: nu's table and one per subset A, rows 0..30 - |A|;
    # mu's table at the two mass points, rows 0..30
    assert sum(cells) == 48 * (31 + 31 + 30 + 30 + 29) + 2 * 31


def test_kernel_decomposition_without_masses_keeps_the_grid_table(monkeypatch):
    # rec is nu_rec here: the kernel of mu at the (no) mass points must not replace its grid table
    cells = _count_table_cells(monkeypatch)
    spec = legendre()
    basis, mods = basis_for(spec, 30), modified_bases(spec, 30)
    assert basis.rec is basis.nu_rec
    for n in range(1, 31):
        assert kernel_decomposition(basis, mods, n).coefficients == {(): 1.0}
    assert sum(cells) == 48 * (31 + 31)


@pytest.mark.parametrize("base, a", [
    (GenJacobiSpec(0.0, 0.0), 1.0),
    (GenJacobiSpec(0.5, -0.5), -1.0),
    (GenJacobiSpec(-0.3, 0.7, ((0.3, 1.0), (-0.6, -0.5))), 0.3),
    (GenJacobiSpec(1.5, 0.0, ((0.2, 0.5),)), 0.8),
])
def test_kernel_envelope_over_an_array_of_degrees_is_bit_identical_to_scalar_calls(base, a):
    spec = MeasureSpec(base, (MassPoint(a, 1.0),))
    x = np.cos(np.pi * (2 * np.arange(400) + 1) / 800)
    ns = np.arange(1001)
    env = kernel_envelope(spec, a, x, ns[:, None])
    assert env.shape == (len(ns), len(x))
    for n in ns:
        assert env[n].tobytes() == kernel_envelope(spec, a, x, int(n)).tobytes()


@pytest.mark.parametrize("a", [0.3, -1.0])
def test_kernel_envelope_ratio_is_the_running_max_of_per_degree_ratios(a):
    # the per-degree loop the array form replaced, kept as the reference; at a = -1 the sup of the
    # top degrees sits at the Chebyshev node nearest -1, so the reference pins the whole grid
    spec = MeasureSpec(GenJacobiSpec(0.5, 0.0, ((0.3, 1.0),)), (MassPoint(-1.0, 0.5), MassPoint(0.3, 1.0)))
    basis = basis_for(spec, 60)
    x = np.cos(np.pi * (2 * np.arange(400) + 1) / 800)
    seq = kernel_sequence(basis, x, a, 60)
    loop = [np.max(np.abs(seq[n]) / kernel_envelope(spec, a, x, n)) for n in range(61)]
    assert kernel_envelope_ratio(basis, a, 60).tobytes() == np.maximum.accumulate(loop).tobytes()


def test_mass_subsets_ordering():
    assert mass_subsets([0.5, -1.0]) == [(), (-1.0,), (0.5,), (-1.0, 0.5)]


def test_kernel_decomposition_single_mass():
    spec = legendre([MassPoint(1.0, 1.0)])
    N = 16
    basis = basis_for(spec, N)
    mods = modified_bases(spec, N)
    for n in (1, 5, 12):
        dec = kernel_decomposition(basis, mods, n)
        assert dec.residual < 1e-8
        assert dec.total == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 < c < 1.0 for c in dec.coefficients.values())


def test_kernel_decomposition_degree_zero_weights():
    # at n = 0 only the empty subset enters and its coefficient is
    # nu-mass / mu-mass = 2/3 for Lebesgue plus a unit mass
    spec = legendre([MassPoint(1.0, 1.0)])
    basis = basis_for(spec, 4)
    mods = modified_bases(spec, 4)
    dec = kernel_decomposition(basis, mods, 0)
    assert dec.coefficients[()] == pytest.approx(2.0 / 3.0, abs=1e-10)


def _fitted_decomposition(nu_basis, mod_bases, n, grid_size=48):
    """Reference: the coefficients of L_n fitted by least squares over the candidate kernels.

    L_n(x, y) is matched on a tensor grid of Chebyshev points against
    prod_{a in A}(x-a)(y-a) K_{n-|A|}^A(x, y), one column per subset A.
    """
    subsets = [A for A in mass_subsets(nu_basis.measure.mass_locations) if len(A) <= n]
    xs = np.cos(np.pi * (2 * np.arange(grid_size) + 1) / (2 * grid_size))
    cols = []
    for A in subsets:
        fac = np.prod([xs - a for a in A], axis=0) if A else np.ones_like(xs)
        P = mod_bases[A].table(xs, n - len(A))
        cols.append((np.outer(fac, fac) * (P.T @ P)).ravel())
    coef, _, rank, _ = np.linalg.lstsq(np.column_stack(cols), cd_kernel(nu_basis, n, xs, xs).ravel(), rcond=None)
    assert rank == len(subsets)
    return dict(zip(subsets, coef))


@pytest.mark.parametrize("masses", [
    [(1.0, 1.0)],
    [(-1.0, 0.5), (1.0, 1.0)],
    [(0.3, 1.0), (1.0, 1.0)],
    [(1.0, 1.0), (-0.5, 2.0)],  # unsorted, so n = 1 leaves out a subset with a kernel
])
def test_kernel_decomposition_closed_form_matches_the_fit(masses):
    spec = legendre([MassPoint(a, m) for a, m in masses])
    basis, mods = basis_for(spec, 30), modified_bases(spec, 30)
    for n in range(31):
        dec = kernel_decomposition(basis, mods, n)
        fitted = _fitted_decomposition(basis, mods, n)
        assert dec.coefficients.keys() == fitted.keys()
        for A, c in fitted.items():
            assert dec.coefficients[A] == pytest.approx(c, abs=1e-10), (n, A)


@pytest.mark.parametrize("M", [0.5, 1.0])
def test_kernel_decomposition_single_endpoint_mass_closed_form(M):
    # K_n(1, 1) = sum_{k<=n} (2k+1)/2 = (n+1)^2/2 for orthonormal Legendre
    spec = legendre([MassPoint(1.0, M)])
    basis, mods = basis_for(spec, 400), modified_bases(spec, 400)
    for n in (10, 30, 400):
        dec = kernel_decomposition(basis, mods, n)
        c_empty = 1.0 / (1.0 + M * (n + 1) ** 2 / 2.0)
        assert dec.coefficients[()] == pytest.approx(c_empty, rel=1e-12)
        assert dec.coefficients[(1.0,)] == pytest.approx(1.0 - c_empty, rel=1e-12)


@pytest.mark.parametrize("spec", [
    MeasureSpec(HermiteSpec(), (MassPoint(0.5, 1.0), MassPoint(-1.2, 1.0))),
    MeasureSpec(LaguerreSpec(0.5), (MassPoint(0.0, 1.0), MassPoint(1.5, 1.0))),
])
def test_kernel_decomposition_on_unbounded_bases_at_any_location(spec):
    basis, mods = basis_for(spec, 40), modified_bases(spec, 40)
    for n in range(2, 41):
        dec = kernel_decomposition(basis, mods, n)
        assert dec.residual < 1e-8, n
        assert dec.total == pytest.approx(1.0, abs=1e-12), n
        assert all(0.0 < c < 1.0 for c in dec.coefficients.values()), n


def _recurrence_error(rec, ref):
    """Largest error of rec against the reference recurrence over the reference's length:
    alphas relative to max(1, |alpha|), betas relative."""
    n = len(ref)
    da = np.abs(rec.alphas[:n] - ref.alphas) / np.maximum(1.0, np.abs(ref.alphas))
    return max(np.max(da), np.max(np.abs(rec.betas[:n] / ref.betas - 1.0)))


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (2.5, 1.5)])
def test_christoffel_steps_match_closed_form_jacobi(alpha, beta):
    N = 800
    mu = classical_recurrence(GenJacobiSpec(alpha, beta), N + 2)
    jacobi = lambda a, b: classical_recurrence(GenJacobiSpec(a, b), N)
    assert _recurrence_error(quadratic_step(mu, 1.0), jacobi(alpha + 2, beta)) < 1e-13
    assert _recurrence_error(quadratic_step(mu, -1.0), jacobi(alpha, beta + 2)) < 1e-13
    assert _recurrence_error(linear_step(mu, 1.0), jacobi(alpha + 1, beta)) < 1e-13
    assert _recurrence_error(linear_step(mu, -1.0), jacobi(alpha, beta + 1)) < 1e-13
    assert _recurrence_error(linear_step(linear_step(mu, 1.0), -1.0), jacobi(alpha + 1, beta + 1)) < 1e-13


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.5])
def test_quadratic_step_at_zero_matches_closed_form_laguerre(alpha):
    mu = classical_recurrence(LaguerreSpec(alpha), 801)
    assert _recurrence_error(quadratic_step(mu, 0.0), classical_recurrence(LaguerreSpec(alpha + 2), 800)) < 1e-13


def test_quadratic_step_inside_the_support_against_stieltjes():
    # the 1200-node Gauss-Legendre rule times (x - 0.3)^2 is exact for every
    # integrand of a degree-420 Stieltjes step
    x, w = np.polynomial.legendre.leggauss(1200)
    alphas, betas = _stieltjes(x, w * (x - 0.3) ** 2, 420)
    rec = quadratic_step(classical_recurrence(GenJacobiSpec(), 421), 0.3)
    assert len(rec) == 420
    assert np.max(np.abs(rec.alphas - alphas)) < 1e-12
    assert np.max(np.abs(rec.betas / betas - 1.0)) < 1e-12


@pytest.mark.parametrize("a, b, t", [(0, 0, 0), (0, 0, 0.5), (1, 0, 0.25), (0.5, -0.5, -0.3), (0, 0, 0.9)])
def test_stieltjes_recurrence_of_an_even_interior_exponent_matches_quadratic_step(a, b, t):
    # (x - t)^2 times a Jacobi weight, with no discretization on the quadratic_step side
    N = 100
    rec = quadratic_step(classical_recurrence(GenJacobiSpec(a, b), N + 2), t)
    assert _recurrence_error(rec, stieltjes_recurrence(GenJacobiSpec(a, b, ((t, 2.0),)), N)) < 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the discretization caps its panel order at 80, "
                          "so an off-centre zero leaves quadratic_step before degree 200")
@pytest.mark.parametrize("t", [0.5, 0.9])
def test_stieltjes_recurrence_of_an_off_centre_zero_matches_quadratic_step_at_degree_200(t):
    # the gate of ROADMAP item 2: 1.5e-6 off at t = 0.5 and 7.9e-2 at t = 0.9 before its fix
    N = 200
    rec = quadratic_step(classical_recurrence(GenJacobiSpec(0, 0), N + 2), t)
    assert _recurrence_error(rec, stieltjes_recurrence(GenJacobiSpec(0, 0, ((t, 2.0),)), N)) < 1e-12


def test_kernel_decomposition_raises_when_the_identity_fails():
    spec = legendre([MassPoint(1.0, 1.0)])
    basis = basis_for(spec, 10)
    # the kernel of (1-x)^2 dx belongs under (1.0,), not Lebesgue's
    lebesgue = classical_recurrence(GenJacobiSpec(), 11)
    wrong = {(): lebesgue, (1.0,): lebesgue}
    with pytest.raises(NumericalBreakdown, match="residual"):
        kernel_decomposition(basis, wrong, 10)


@pytest.mark.parametrize("basis_cap, mods_cap, n", [(10, 10, 11), (10, 10, -1), (10, 6, 7), (6, 10, 7)])
def test_kernel_decomposition_rejects_a_degree_outside_its_inputs(basis_cap, mods_cap, n):
    spec = legendre([MassPoint(0.3, 1.0), MassPoint(1.0, 1.0)])
    basis, mods = basis_for(spec, basis_cap), modified_bases(spec, mods_cap)
    with pytest.raises(DegreeOutOfRange, match=f"degree {n} is outside 0..{min(basis_cap, mods_cap)}"):
        kernel_decomposition(basis, mods, n)
    assert kernel_decomposition(basis, mods, min(basis_cap, mods_cap)).residual < 1e-8


def test_monomial_coefficients_match_eval():
    basis = basis_for(legendre([MassPoint(0.3, 1.0)]), 6)
    C = monomial_coefficients(basis)
    x = np.linspace(-0.8, 0.8, 7)
    for n in range(7):
        direct = basis.eval_all(x, n)[n]
        via_poly = sum(C[n, i] * x**i for i in range(7))
        assert np.allclose(direct, via_poly, atol=1e-12)


def test_high_precision_path_agrees():
    base = GenJacobiSpec(-0.5, 0.5, ((0.2, 1.0),))
    rec = recurrence_for(base, 8)
    rec_hp = recurrence_for(base, 8, high_precision=True)
    assert np.allclose(rec.alphas, rec_hp.alphas, atol=1e-12)
    assert np.allclose(rec.betas, rec_hp.betas, rtol=1e-12)


# ----------------------------------------------------------------------
# double-double arithmetic and the high-precision Stieltjes step


def _random_pairs(rng, n, span=500):
    """Normalized double-double pairs with random signs and magnitudes in 2^[-span, span)."""
    hi = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-span, span, n)) * rng.choice([-1.0, 1.0], n)
    return _two_sum(hi, hi * rng.uniform(-1.0, 1.0, n) * 2.0**-53)


def _exact(pair):
    return [Fraction(h) + Fraction(l) for h, l in zip(*pair)]


def test_two_sum_and_two_prod_are_exact():
    rng = np.random.default_rng(0)
    x, y = _random_pairs(rng, 1000)[0], _random_pairs(rng, 1000)[0]
    s, e = _two_sum(x, y)
    assert np.array_equal(s, x + y)
    assert _exact((s, e)) == [Fraction(a) + Fraction(b) for a, b in zip(x, y)]
    keep = np.abs(x * y) >= 2.0**-900  # below that the error term of a product is subnormal
    x, y = x[keep], y[keep]
    p, e = _two_prod(x, y)
    assert np.array_equal(p, x * y)
    assert _exact((p, e)) == [Fraction(a) * Fraction(b) for a, b in zip(x, y)]


@pytest.mark.parametrize("op, exact, bound", [
    (_dd_mul, operator.mul, 2.0**-104),
    (_dd_div, operator.truediv, 2.0**-103),
], ids=["mul", "div"])
def test_pair_mul_and_div_within_their_error_bound(op, exact, bound):
    rng = np.random.default_rng(1)
    a, b = _random_pairs(rng, 1000), _random_pairs(rng, 1000)
    size = np.abs(exact(a[0], b[0]))
    keep = (size >= 2.0**-900) & (size <= 2.0**900)
    a, b = (a[0][keep], a[1][keep]), (b[0][keep], b[1][keep])
    hi, lo = op(a, b)
    assert np.array_equal(hi, hi + lo)
    for got, want in zip(_exact((hi, lo)), [exact(u, v) for u, v in zip(_exact(a), _exact(b))]):
        assert abs(got - want) <= bound * abs(want)


def _stieltjes_mpmath(x, w, N, extra_bits=40):
    """Stieltjes procedure in mpmath at 53 + extra_bits bits: the library's former high-precision step."""
    import mpmath

    with mpmath.workprec(53 + extra_bits):
        xs = [mpmath.mpf(float(t)) for t in x]
        ws = [mpmath.mpf(float(t)) for t in w]
        alphas = [mpmath.mpf(0)] * N
        betas = [mpmath.mpf(0)] * N
        betas[0] = mpmath.fsum(ws)
        p_prev = [mpmath.mpf(0)] * len(xs)
        p = [1 / mpmath.sqrt(betas[0])] * len(xs)
        for kk in range(N):
            alphas[kk] = mpmath.fsum(wj * xj * pj * pj for wj, xj, pj in zip(ws, xs, p))
            if kk == N - 1:
                break
            sb = mpmath.sqrt(betas[kk]) if kk > 0 else mpmath.mpf(0)
            q = [(xj - alphas[kk]) * pj - sb * qj for xj, pj, qj in zip(xs, p, p_prev)]
            betas[kk + 1] = mpmath.fsum(wj * qj * qj for wj, qj in zip(ws, q))
            sb = mpmath.sqrt(betas[kk + 1])
            p_prev = p
            p = [qj / sb for qj in q]
        return np.array([float(a) for a in alphas]), np.array([float(b) for b in betas])


@pytest.mark.parametrize("N", [8, 13])
@pytest.mark.parametrize("spec", [
    GenJacobiSpec(0.0, 0.0, ((0.0, 2.0),)),  # the benchmark's high-precision oracle measure
    GenJacobiSpec(-0.5, 0.5, ((0.2, 1.0),)),
    GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)),
    GenJacobiSpec(0.3, -0.2, ((-0.4, 0.5),)),
], ids=str)
def test_double_double_stieltjes_matches_mpmath(spec, N):
    x, w = genjacobi_discretization(spec, 40 * N)
    alphas, betas = _stieltjes_mp(x, w, N)
    ref_alphas, ref_betas = _stieltjes_mpmath(x, w, N)
    assert betas.tolist() == ref_betas.tolist()
    # the symmetric measure's alphas are 0 up to the references' own rounding
    assert np.all((alphas == ref_alphas) | (np.abs(alphas - ref_alphas) <= 1e-50))


@pytest.mark.parametrize("spec", [
    GenJacobiSpec(0.0, 0.0, ((0.0, 2.0),)),
    GenJacobiSpec(-0.5, 0.5, ((0.2, 1.0),)),
    GenJacobiSpec(0.5, -0.5, ((0.0, 1.0),)),
    GenJacobiSpec(2.5, -0.9, ((0.3, -0.5), (-0.6, 0.7))),
], ids=str)
def test_recurrence_for_is_stieltjes_on_the_40n_discretization(spec):
    # the degree alone sizes a generalized Jacobi discretization: 40N nodes, bit for bit
    for N, high_precision in ((13, False), (51, False), (201, False), (13, True)):
        x, w = genjacobi_discretization(spec, 40 * N)
        alphas, betas = (_stieltjes_mp if high_precision else _stieltjes)(x, w, N)
        for rec in (recurrence_for(spec, N, high_precision=high_precision),
                    stieltjes_recurrence(spec, N, high_precision)):
            assert rec.alphas.tobytes() == alphas.tobytes() and rec.betas.tobytes() == betas.tobytes()


def test_double_double_stieltjes_resolves_cancelling_alphas():
    # Symmetric weight, mirror-image cells whose Gauss-Jacobi panels are not exact
    # mirrors: the alphas are ~1e-18 sums of O(1) terms.  93-bit mpmath is off by
    # ~1e-28 there; double-double must agree with 253-bit mpmath to its ~2^-106.
    x, w = genjacobi_discretization(GenJacobiSpec(0.3, 0.3, ((0.0, -0.4),)), 320)
    alphas, betas = _stieltjes_mp(x, w, 8)
    ref_alphas, ref_betas = _stieltjes_mpmath(x, w, 8, extra_bits=200)
    assert betas.tolist() == ref_betas.tolist()
    assert np.max(np.abs(alphas - ref_alphas)) <= 1e-31


# ----------------------------------------------------------------------
# RKPW mass update


def _householder_mass_update(rec, N, masses):
    """Recurrence of mu's order-(N+1) Gauss rule plus the atoms, by dense Householder reduction.

    Lanczos in its orthogonal-reduction form: blockdiag(J, a_1, .., a_k), bordered by
    the start vector (sqrt(b_0), sqrt(M_1), ..), reduced to tridiagonal form.
    """
    diag = np.concatenate([[0.0], rec.alphas[: N + 1], [mp.location for mp in masses]])
    off = np.concatenate([np.sqrt(rec.betas[: N + 1]), np.zeros(len(masses))])
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    A[0, N + 2 :] = A[N + 2 :, 0] = np.sqrt([mp.mass for mp in masses])
    T = scipy.linalg.hessenberg(A)
    total = rec.betas[0] + sum(mp.mass for mp in masses)
    return np.diag(T)[1 : N + 2], np.concatenate([[total], np.diag(T, -1)[1 : N + 1] ** 2])


@pytest.mark.parametrize("masses, N", [
    ((MassPoint(-1.0, 0.5), MassPoint(1.0, 0.5)), 400),
    ((MassPoint(-1.0, 0.5), MassPoint(0.3, 2.0), MassPoint(1.0, 0.5)), 400),
    ((MassPoint(1.0, 1e-8), MassPoint(-0.2, 1e6)), 300),
], ids=["two", "three", "disparate"])
def test_mass_update_gram_on_an_independent_rule(masses, N):
    basis = basis_for(legendre(list(masses)), N)
    xs, ws = np.polynomial.legendre.leggauss(N + 20)
    xs = np.concatenate([xs, [mp.location for mp in masses]])
    ws = np.concatenate([ws, [mp.mass for mp in masses]])
    phi = basis.eval_all(xs)
    assert np.max(np.abs((phi * ws) @ phi.T - np.eye(N + 1))) <= 1e-10


@pytest.mark.parametrize("base, masses, N", [
    (GenJacobiSpec(0.0, 0.0), (MassPoint(1.0, 1.0),), 100),
    (GenJacobiSpec(0.5, -0.5), (MassPoint(-1.0, 0.5), MassPoint(0.3, 2.0), MassPoint(1.0, 0.5)), 200),
    (LaguerreSpec(0.0), (MassPoint(0.0, 1.0),), 60),
    (HermiteSpec(), (MassPoint(0.5, 1.0),), 60),
], ids=["legendre", "jacobi", "laguerre", "hermite"])
def test_mass_update_matches_householder_reference(base, masses, N):
    basis = basis_for(MeasureSpec(base, masses), N)
    rec = classical_recurrence(base, N + 1)
    alphas, betas = _householder_mass_update(rec, N, masses)
    scale = np.max(np.abs(rec.alphas)) + np.max(np.sqrt(rec.betas[1:]))
    assert np.max(np.abs(basis.nu_rec.alphas - alphas)) <= 1e-13 * scale
    np.testing.assert_allclose(basis.nu_rec.betas, betas, rtol=1e-13, atol=0)


@pytest.mark.parametrize("alpha, M", [(0.0, 1.0), (0.5, 2.0), (2.5, 1e-3), (-0.5, 10.0)])
def test_laguerre_mass_betas_against_uvarov_closed_form(alpha, M):
    # Laguerre(alpha) + M delta_0: monic norms H_n = n! Gamma(n+alpha+1) r_n / r_{n-1} with
    # r_n = 1 + M K_n(0,0), K_n(0,0) = Gamma(n+alpha+2) / (n! (alpha+1) Gamma(alpha+1)^2), r_{-1} = 1;
    # b_0 = H_0 and b_n = H_n / H_{n-1}
    N = 1000
    betas = basis_for(MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, M),)), N).nu_rec.betas
    with mpmath.workdps(40):
        a, m = mpmath.mpf(alpha), mpmath.mpf(M)

        def r(n):
            return 1 + m * mpmath.gamma(n + a + 2) / (mpmath.factorial(n) * (a + 1) * mpmath.gamma(a + 1) ** 2)

        H = [mpmath.factorial(n) * mpmath.gamma(n + a + 1) * r(n) / (r(n - 1) if n else 1) for n in range(N + 1)]
        exact = np.array([float(H[0])] + [float(H[n] / H[n - 1]) for n in range(1, N + 1)])
    assert np.max(np.abs(betas / exact - 1)) <= 2e-15
