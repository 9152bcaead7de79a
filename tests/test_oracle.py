import math
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
from masspoly.opoly import basis_for, monomial_coefficients, stieltjes_recurrence
from masspoly.oracle import (
    MAX_ORACLE_DEGREE,
    _chebyshev,
    exact_monic_orthogonal,
    oracle_orthonormal_coefficients,
    oracle_recurrence,
    rational_moments,
)
from test_acceptance import ORACLE_CONFIGS


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
    # the first factor that is not a polynomial is named: the end 1, the end -1, then the singularities
    with pytest.raises(Irrational, match=r"^alpha=0.5 is not a nonnegative integer$"):
        rational_moments(MeasureSpec(GenJacobiSpec(0.5, 0.0)), 2)
    with pytest.raises(Irrational, match=r"^alpha=0.5 is not a nonnegative integer$"):
        rational_moments(MeasureSpec(GenJacobiSpec(0.5, -0.5)), 2)
    with pytest.raises(Irrational, match=r"^beta=1.5 is not a nonnegative integer$"):
        rational_moments(MeasureSpec(GenJacobiSpec(1.0, 1.5, ((0.3, 1.0),))), 2)
    with pytest.raises(Irrational, match=r"^interior exponent 1.0 at t=0.3 is not an even integer$"):
        rational_moments(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.3, 1.0),))), 2)
    with pytest.raises(Irrational, match=r"^interior exponent 1.0 at t=0.3 is not an even integer$"):
        rational_moments(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((-0.2, 2.0), (0.3, 1.0)))), 2)
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(LaguerreSpec(0.5)), 2)
    with pytest.raises(Irrational):
        rational_moments(MeasureSpec(HermiteSpec()), 2)


def test_even_interior_exponent_is_rational():
    m = rational_moments(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.0, 2.0),))), 2)
    assert m[0] == Fraction(2, 3)


def test_chebyshev_detects_degeneracy():
    good = rational_moments(legendre(), 5)
    assert _chebyshev(good, 2) == ([2, Fraction(2, 3), Fraction(8, 45)], [0, 0, 0], [2, Fraction(1, 3), Fraction(4, 15)])
    # moments of a single point mass: Hankel rank one
    bad = [Fraction(1)] * 7
    with pytest.raises(HankelSingular, match="Hankel minor 2 is not positive"):
        _chebyshev(bad, 2)
    with pytest.raises(DegreeOutOfRange, match="need moments up to order 7"):
        _chebyshev(good, 3)


def test_degree_cap_enforced():
    with pytest.raises(DegreeOutOfRange):
        exact_monic_orthogonal(legendre(), MAX_ORACLE_DEGREE + 1)


def test_oracle_reaches_its_degree_cap():
    # Legendre: a_k = 0 and b_k = k^2 / (4k^2 - 1), exactly
    N = MAX_ORACLE_DEGREE
    _, _, alphas, betas = exact_monic_orthogonal(legendre(), N)
    assert alphas == [0] * (N + 1)
    assert betas == [2] + [Fraction(k * k, 4 * k * k - 1) for k in range(1, N + 1)]


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


@pytest.mark.parametrize("spec", ORACLE_CONFIGS)
def test_oracle_polynomials_are_exactly_orthogonal(spec):
    # against the moments alone: <p_k, x^j> = sum_i c_{k,i} m_{i+j} is 0 for j < k and h_k for j = k
    N = 30
    polys, h, _, _ = exact_monic_orthogonal(spec, N)
    m = rational_moments(spec, 2 * N)
    for k, c in enumerate(polys):
        assert len(c) == k + 1 and c[k] == 1
        assert [sum(ci * m[i + j] for i, ci in enumerate(c)) for j in range(k + 1)] == [0] * k + [h[k]]


@pytest.mark.parametrize("N, alpha_atol", [(10, 1e-15), (100, 2e-15)])
@pytest.mark.parametrize("spec", ORACLE_CONFIGS)
def test_nu_recurrence_matches_oracle(spec, N, alpha_atol):
    # at N = 100 the discretized Stieltjes step leaves the x^2 weight's alpha_k = 0 off by 1.2e-15
    al, be = oracle_recurrence(spec, N)
    nu_rec = basis_for(spec, N).nu_rec
    np.testing.assert_allclose(nu_rec.alphas, al, rtol=1e-12, atol=alpha_atol)
    np.testing.assert_allclose(nu_rec.betas, be, rtol=1e-12, atol=0)


def symmetric_betas(a, gamma, N):
    """beta_0..beta_N of the weight |x|^gamma (1 - x^2)^a on [-1, 1], whose alphas are all 0.

    p_{2n}(x) = q_n(x^2) and p_{2n+1}(x) = x r_n(x^2), with q_n and r_n the
    Jacobi polynomials on [0, 1] of s^A (1 - s)^a and s^(A+1) (1 - s)^a,
    A = (gamma - 1) / 2 (Chihara 1978, symmetric moment functionals).  Every
    beta_k past beta_0 = B(A + 1, a + 1) is a ratio of linear factors.
    """
    A = (gamma - 1) / 2
    betas = [math.exp(math.lgamma(A + 1) + math.lgamma(a + 1) - math.lgamma(A + a + 2))]
    for k in range(1, N + 1):
        n, c = k // 2, k + A + a
        betas.append((n + A + 1) * (n + A + a + 1) / (c * (c + 1)) if k % 2 else n * (n + a) / (c * (c + 1)))
    return np.array(betas)


def jacobi_squares_at_1(alpha, beta, N, ratios=False):
    """p_k(1)^2, k = 0..N, of the orthonormal polynomials of (1 - x)^alpha (1 + x)^beta on [-1, 1].

    p_k(1)^2 = P_k(1)^2 / h_k, with P_k(1) = Gamma(k + alpha + 1) / (Gamma(alpha + 1) k!) and h_k the
    Jacobi norm (Szego, Orthogonal Polynomials, (4.1.1) and (4.3.3)), from lgamma terms.  With ``ratios``
    it is 1 / h_0 times the running product of p_k(1)^2 / p_{k-1}(1)^2, a rational function of k: a
    second evaluation that shares no lgamma call past h_0.
    """
    ab = alpha + beta
    first = math.lgamma(ab + 2) - (ab + 1) * math.log(2) - math.lgamma(alpha + 1) - math.lgamma(beta + 1)
    if ratios:
        # at k = 1 the factor k + alpha + beta of the general ratio cancels 2k + alpha + beta - 1
        steps = [(1 + alpha) * (3 + ab) / (1 + beta)] + [
            (k + alpha) * (k + ab) * (2 * k + ab + 1) / (k * (k + beta) * (2 * k + ab - 1)) for k in range(2, N + 1)]
        return math.exp(first) * np.cumprod([1.0] + steps)
    logs = [first] + [math.lgamma(k + alpha + 1) + math.lgamma(k + ab + 1) - math.lgamma(k + 1)
                      - math.lgamma(k + beta + 1) - 2 * math.lgamma(alpha + 1) + math.log(2 * k + ab + 1)
                      - (ab + 1) * math.log(2) for k in range(1, N + 1)]
    return np.exp(logs)


def edge_atom_values(spec, N, ratios=False):
    """P_N at each atom of a Jacobi measure plus atoms at -1 and 1, in the order of ``spec.masses``.

    Uvarov's form at the atoms a (V. B. Uvarov, USSR Comput. Math. Math. Phys. 9, 1969): with p_k the
    orthonormal Jacobi polynomials, pi = p_N(a), K = sum_{k<N} p_k(a) p_k(a)^T and D the masses,
    P_N(a) = (I + K D)^{-1} pi / sqrt(1 + pi^T D (I + K D)^{-1} pi).  For one atom that is
    p_N(a) / sqrt(d_{N-1} d_N) with d_n = 1 + M K_n(a, a).  p_k(-1) is (-1)^k times p_k(1) with alpha and
    beta swapped, and each entry of K is one ``math.fsum``, so no recurrence and no discretization enter.
    """
    a, b = spec.base.alpha, spec.base.beta
    at = {1.0: np.sqrt(jacobi_squares_at_1(a, b, N, ratios)),
          -1.0: np.sqrt(jacobi_squares_at_1(b, a, N, ratios)) * (-1.0) ** np.arange(N + 1)}
    P = np.array([at[m.location] for m in spec.masses])
    K = np.array([[math.fsum(row[:N] * col[:N]) for col in P] for row in P])
    D = np.diag([m.mass for m in spec.masses])
    pi = P[:, N]
    solved = np.linalg.solve(np.eye(len(P)) + K @ D, pi)
    return solved / math.sqrt(1 + pi @ D @ solved)


# the measures of ROADMAP item 27's table, then one with an atom at each end
EDGE_ATOMS = [legendre([MassPoint(1.0, 1.0)]), MeasureSpec(GenJacobiSpec(0.5, -0.5), (MassPoint(1.0, 1.0),)),
              MeasureSpec(GenJacobiSpec(1.0, 0.0), (MassPoint(1.0, 1.0),)),
              MeasureSpec(GenJacobiSpec(2.0, 0.0), (MassPoint(1.0, 1.0),)),
              legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 1.0)])]
EDGE_IDS = ["legendre", "jacobi_half", "jacobi_10", "jacobi_20", "legendre_both_ends"]
# The two evaluations of edge_atom_values differ by at most 1.4e-12 relative at N <= 2000 on EDGE_ATOMS
# (Jacobi(1, 0) + delta_1 at N = 2000; the lgamma terms set it), so 1e-11 bounds them; the values are
# taken to hold to 10 times that
EDGE_AGREE, EDGE_RTOL = 1e-11, 1e-10


@pytest.mark.parametrize("spec, N", [(s, 300 if s.base.alpha == 2 else 100) for s in EDGE_ATOMS if s.base.alpha.is_integer()],
                         ids=[i for i, s in zip(EDGE_IDS, EDGE_ATOMS) if s.base.alpha.is_integer()])
def test_edge_atom_values_match_the_exact_oracle(spec, N):
    # the exact P_n at an atom is the monic p_n there, from the oracle's recurrence run in Fractions, over
    # sqrt(h_n); within 1.1e-13 measured to degree 100, and 3.5e-13 to degree 300 on Jacobi(2, 0) + delta_1
    h, alphas, betas = _chebyshev(rational_moments(spec, 2 * N + 1), N)
    at = [Fraction(m.location) for m in spec.masses]
    older, values = [0] * len(at), [1] * len(at)
    for n in range(1, N + 1):
        older, values = values, [(x - alphas[n - 1]) * v - betas[n - 1] * o for x, v, o in zip(at, values, older)]
        exact = [math.copysign(math.sqrt(v**2 / h[n]), v) for v in values]
        np.testing.assert_allclose(edge_atom_values(spec, n), exact, rtol=1e-12, atol=0, err_msg=str(n))


@pytest.mark.parametrize("ratios", [False, True])
def test_jacobi_squares_at_1_match_the_chebyshev_closed_form(ratios):
    # (1 - x)^{1/2} (1 + x)^{-1/2}: W_k(1) = 2k + 1 with norm pi (Chebyshev polynomials of the fourth kind),
    # and its mirror image V_k(1) = 1; the exact oracle cannot take this irrational weight.  The lgamma
    # terms are 5.5e-12 off at N = 2000, the ratios 4.7e-15
    k = np.arange(2001)
    np.testing.assert_allclose(jacobi_squares_at_1(0.5, -0.5, 2000, ratios), (2 * k + 1) ** 2 / np.pi, rtol=1e-11)
    np.testing.assert_allclose(jacobi_squares_at_1(-0.5, 0.5, 2000, ratios), 1 / np.pi, rtol=1e-11)


@pytest.mark.parametrize("N", [300, 1000, 2000])
@pytest.mark.parametrize("spec", EDGE_ATOMS, ids=EDGE_IDS)
def test_edge_atom_values_agree_with_their_second_evaluation(spec, N):
    np.testing.assert_allclose(edge_atom_values(spec, N), edge_atom_values(spec, N, ratios=True),
                               rtol=EDGE_AGREE, atol=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the forward recurrence cancels P_N at the atom; the table is "
                          "6.2e-8 (Legendre + delta_1, N = 300) to 5.4e6 times (Jacobi(2, 0) + delta_1, "
                          "N = 2000) off, with the wrong sign on Jacobi(2, 0) + delta_1")
@pytest.mark.parametrize("N", [300, 1000, 2000])
@pytest.mark.parametrize("spec", EDGE_ATOMS[:4], ids=EDGE_IDS[:4])
def test_basis_value_at_an_end_atom_matches_the_closed_form_at_large_degree(spec, N):
    # the large-N gate of ROADMAP item 17
    at = np.array([m.location for m in spec.masses])
    np.testing.assert_allclose(basis_for(spec, N).eval_all(at, N)[N], edge_atom_values(spec, N), rtol=EDGE_RTOL, atol=0)


@pytest.mark.parametrize("a, gamma", [(0, 2), (1, 2), (0, 4)])
def test_symmetric_closed_form_matches_the_exact_oracle(a, gamma):
    N = 60
    _, _, alphas, betas = exact_monic_orthogonal(MeasureSpec(GenJacobiSpec(a, a, ((0.0, gamma),))), N)
    assert alphas == [0] * (N + 1)
    np.testing.assert_allclose([float(b) for b in betas], symmetric_betas(a, gamma, N), rtol=2e-15, atol=0)


@pytest.mark.parametrize("a, gamma", [(0.5, 1), (0, 1), (-0.5, 0.5), (0.5, 2)])
def test_stieltjes_recurrence_matches_the_symmetric_closed_form(a, gamma):
    N = 200
    rec = stieltjes_recurrence(GenJacobiSpec(a, a, ((0.0, gamma),)), N)
    np.testing.assert_allclose(rec.alphas, 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rec.betas, symmetric_betas(a, gamma, N - 1), rtol=1e-13, atol=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the discretization caps its panel order at 80, "
                          "so beta_k leaves the closed form from degree 220-222 on")
@pytest.mark.parametrize("a, gamma", [(0.5, 1), (0, 1), (-0.5, 0.5), (0.5, 2)])
def test_stieltjes_recurrence_matches_the_symmetric_closed_form_at_degree_400(a, gamma):
    # the gate of ROADMAP item 2: the worst beta_k is 0.73-0.94 off before its fix
    N = 400
    rec = stieltjes_recurrence(GenJacobiSpec(a, a, ((0.0, gamma),)), N)
    np.testing.assert_allclose(rec.alphas, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rec.betas, symmetric_betas(a, gamma, N - 1), rtol=1e-12, atol=0)
