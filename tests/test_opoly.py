import numpy as np
import pytest
import scipy.special

from masspoly import (
    DegreeOutOfRange,
    GenJacobiSpec,
    GridTooSmall,
    HermiteSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    legendre,
)
from masspoly.opoly import (
    basis_for,
    cd_kernel,
    classical_recurrence,
    gauss_points,
    kernel_decomposition,
    kernel_envelope,
    kernel_envelope_ratio,
    kernel_sequence,
    mass_subsets,
    modified_bases,
    monomial_coefficients,
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
def test_stieltjes_recurrence_of_callable_matches_classical(a, b, split):
    def jacobi_weight(x):
        return (1.0 - x) ** a * (1.0 + x) ** b

    rec_s = stieltjes_recurrence(jacobi_weight, 30, edge_exponents=(a, b), interior_singularities=split)
    rec_c = classical_recurrence(GenJacobiSpec(a, b), 30)
    np.testing.assert_allclose(rec_s.alphas, rec_c.alphas, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rec_s.betas, rec_c.betas, rtol=1e-13, atol=0)


def test_gauss_points_two_point_legendre():
    rec = classical_recurrence(GenJacobiSpec(0.0, 0.0), 4)
    xs, ws = gauss_points(rec, 2)
    assert np.allclose(sorted(xs), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(ws, [1.0, 1.0])
    with pytest.raises(GridTooSmall):
        gauss_points(rec, 10)


def test_gauss_weights_sum_to_total_mass():
    rec = classical_recurrence(GenJacobiSpec(0.5, 0.5), 12)
    _, ws = gauss_points(rec, 8)
    assert np.sum(ws) == pytest.approx(rec.total_mass)


@pytest.mark.parametrize("base, m", [(LaguerreSpec(0.0), 100), (LaguerreSpec(1.0), 150), (HermiteSpec(), 120)])
def test_gauss_weights_relative_accuracy_unbounded(base, m):
    # far nodes carry weights down to ~1e-245; each must keep its relative accuracy
    xs, ws = gauss_points(recurrence_for(base, m), m)
    x_ref, w_ref = scipy_rule(base, m)
    np.testing.assert_allclose(xs, x_ref, rtol=1e-12)
    np.testing.assert_allclose(ws, w_ref, rtol=1e-9, atol=0)


def test_mass_basis_hand_example():
    # Lebesgue on [-1,1] plus delta_1: P_1 = (sqrt(3)/2)(x - 1/3)
    basis = basis_for(legendre([MassPoint(1.0, 1.0)]), 3)
    assert basis.eval(1, 0.0) == pytest.approx(-np.sqrt(3.0) / 6.0)
    assert basis.eval(1, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
    assert basis.eval(0, 0.5) == pytest.approx(1.0 / np.sqrt(3.0))  # total mass 3


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


def test_cd_kernel_reproducing_property():
    spec = legendre([MassPoint(0.3, 1.0)])
    basis = basis_for(spec, 10)
    xs, ws = quad_with_atoms(spec, basis, 30)
    y = 0.42
    K = cd_kernel(basis, 6, xs, y)
    for k in range(7):
        pk = basis.eval_all(xs, k)[k]
        integral = np.sum(ws * K * pk)
        assert integral == pytest.approx(basis.eval(k, y), abs=1e-12)


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


def test_kernel_envelope_ratio_is_bounded_and_monotone():
    basis = basis_for(legendre([MassPoint(0.3, 1.0)]), 60)
    sups = kernel_envelope_ratio(basis, 0.3, 60)
    assert np.all(np.diff(sups) >= 0)
    assert np.isfinite(sups[-1])
    assert sups[-1] < 50.0


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
