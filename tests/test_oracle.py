from fractions import Fraction

import numpy as np
import pytest

from masspoly import (
    DegreeOutOfRange,
    GenJacobiSpec,
    HankelSingular,
    HermiteSpec,
    Irrational,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    legendre,
)
from masspoly.opoly import basis_for, monomial_coefficients
from masspoly.oracle import (
    MAX_ORACLE_DEGREE,
    check_hankel,
    exact_monic_orthogonal,
    oracle_orthonormal_coefficients,
    oracle_recurrence,
    rational_moments,
)


def test_legendre_moments():
    m = rational_moments(legendre(), 4)
    assert m == [Fraction(2), Fraction(0), Fraction(2, 3), Fraction(0), Fraction(2, 5)]


def test_mass_moments_are_exact():
    m = rational_moments(legendre([MassPoint(0.5, 1.0)]), 2)
    assert m[0] == Fraction(3)
    assert m[1] == Fraction(1, 2)
    assert m[2] == Fraction(2, 3) + Fraction(1, 4)


def test_laguerre_moments_are_factorials():
    m = rational_moments(MeasureSpec(LaguerreSpec(1.0)), 3)
    assert m == [Fraction(1), Fraction(2), Fraction(6), Fraction(24)]


def test_irrational_configurations_are_refused():
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(GenJacobiSpec(0.5, 0.0)), 2)
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.3, 1.0),))), 2)
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(LaguerreSpec(0.5)), 2)
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(HermiteSpec()), 2)


def test_even_interior_exponent_is_rational():
    m = rational_moments(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.0, 2.0),))), 2)
    assert m[0] == Fraction(2, 3)


def test_check_hankel_detects_degeneracy():
    good = rational_moments(legendre(), 6)
    assert check_hankel(good, 3)
    # moments of a single point mass: Hankel rank one
    bad = [Fraction(1)] * 7
    with pytest.raises(HankelSingular):
        check_hankel(bad, 3)
    with pytest.raises(DegreeOutOfRange):
        check_hankel(good, 5)


def test_degree_cap_enforced():
    with pytest.raises(DegreeOutOfRange):
        exact_monic_orthogonal(legendre(), MAX_ORACLE_DEGREE + 1)


def test_oracle_recurrence_legendre():
    al, be = oracle_recurrence(legendre(), 4)
    assert np.allclose(al, 0.0)
    assert be[0] == pytest.approx(2.0)
    ks = np.arange(1, 5)
    assert np.allclose(be[1:], ks**2 / (4.0 * ks**2 - 1.0), rtol=1e-15)


def test_oracle_matches_library_coefficients():
    spec = legendre([MassPoint(1.0, 1.0), MassPoint(-0.5, 0.25)])
    N = 8
    C_exact = oracle_orthonormal_coefficients(spec, N)
    C_lib = monomial_coefficients(basis_for(spec, N))[: N + 1, : N + 1]
    scale = np.abs(C_exact).max(axis=1)
    assert np.max(np.abs(C_exact - C_lib) / scale[:, None]) < 1e-12


MASSED_CONFIGS = [
    legendre([MassPoint(1.0, 1.0)]),
    legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 0.5)]),
    MeasureSpec(GenJacobiSpec(1.0, 1.0), (MassPoint(0.5, 0.25),)),
    MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),)),
]


@pytest.mark.parametrize("spec", MASSED_CONFIGS)
def test_nu_recurrence_matches_oracle(spec):
    N = 10
    al, be = oracle_recurrence(spec, N)
    nu_rec = basis_for(spec, N).nu_rec
    np.testing.assert_allclose(nu_rec.alphas, al, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(nu_rec.betas, be, rtol=1e-12, atol=0)
