import json
import math
import re

import numpy as np
import pytest

from masspoly import (
    DuplicateLocation,
    ExponentOutOfRange,
    GenJacobiSpec,
    HermiteSpec,
    LaguerreSpec,
    MassNotPositive,
    MassPoint,
    MeasureSpec,
    NoEndpoint,
    NonFiniteWeight,
    PowerWeightSpec,
    SpecError,
    check_conditions,
    legendre,
    mean_convergence_endpoints,
    measure_from_dict,
    measure_to_dict,
    weight_from_dict,
    weight_to_dict,
)
from masspoly.opoly import kernel_envelope, recurrence_for, stieltjes_recurrence
from masspoly.transforms import laguerre_mass_kernel, lebesgue_rule_for


def test_legal_specs_construct():
    legendre()
    MeasureSpec(GenJacobiSpec(-0.5, 0.5, ((0.0, 1.0),)), (MassPoint(1.0, 2.0),))
    MeasureSpec(LaguerreSpec(1.0), (MassPoint(0.0, 0.5),))
    MeasureSpec(HermiteSpec())


def test_edge_exponent_out_of_range_fails_on_construction():
    with pytest.raises(ExponentOutOfRange):
        GenJacobiSpec(-2.0, 0.0)
    with pytest.raises(ExponentOutOfRange):
        LaguerreSpec(-1.0)


def test_singularity_constraints_fail_on_construction():
    with pytest.raises(ExponentOutOfRange):
        GenJacobiSpec(0.0, 0.0, ((0.3, -1.5),))
    with pytest.raises(SpecError):
        GenJacobiSpec(0.0, 0.0, ((1.0, 1.0),))
    with pytest.raises(DuplicateLocation):
        GenJacobiSpec(0.0, 0.0, ((0.3, 1.0), (0.3, 2.0)))


def test_mass_constraints_fail_on_construction():
    with pytest.raises(MassNotPositive):
        legendre([MassPoint(0.3, 0.0)])
    with pytest.raises(DuplicateLocation):
        legendre([MassPoint(0.3, 1.0), MassPoint(0.3, 2.0)])
    with pytest.raises(SpecError):
        legendre([MassPoint(1.5, 1.0)])
    with pytest.raises(SpecError):
        MeasureSpec(LaguerreSpec(0.0), (MassPoint(-1.0, 1.0),))


def test_measure_checks_its_base_type_before_its_masses():
    with pytest.raises(SpecError, match="unknown base weight"):
        MeasureSpec("legendre", (MassPoint(0.3, 0.0),))


# each spec as a thunk, since building it is what raises
@pytest.mark.parametrize("build, error", [
    (lambda: GenJacobiSpec(math.inf, 0.0), ExponentOutOfRange),
    (lambda: GenJacobiSpec(0.0, math.nan), ExponentOutOfRange),
    (lambda: GenJacobiSpec(0.0, 0.0, ((0.0, math.nan),)), ExponentOutOfRange),
    (lambda: GenJacobiSpec(0.0, 0.0, ((0.0, math.inf),)), ExponentOutOfRange),
    (lambda: LaguerreSpec(math.inf), ExponentOutOfRange),
    (lambda: LaguerreSpec(math.nan), ExponentOutOfRange),
    (lambda: legendre([MassPoint(0.0, math.inf)]), MassNotPositive),
    (lambda: legendre([MassPoint(0.0, math.nan)]), MassNotPositive),
    (lambda: MeasureSpec(HermiteSpec(), (MassPoint(math.inf, 1.0),)), SpecError),
    (lambda: MeasureSpec(LaguerreSpec(0.0), (MassPoint(math.inf, 1.0),)), SpecError),
])
def test_non_finite_numbers_fail_on_construction(build, error):
    with pytest.raises(error):
        build()


# inputs that once reached a recurrence or a checker unchecked, and failed with the wrong error or none
@pytest.mark.parametrize("call, error", [
    (lambda: recurrence_for(GenJacobiSpec(-2.0, 0.0), 5), ExponentOutOfRange),
    (lambda: stieltjes_recurrence(GenJacobiSpec(0, 0, ((0.0, -3.0),)), 5), ExponentOutOfRange),
    (lambda: lebesgue_rule_for(MeasureSpec(GenJacobiSpec(0, 0, ((0.0, -2.0),)))), ExponentOutOfRange),
    (lambda: kernel_envelope(MeasureSpec(GenJacobiSpec(-3.0, 0.0)), 1.0, [0.0], 5), ExponentOutOfRange),
    (lambda: check_conditions(legendre(), PowerWeightSpec(a=math.nan), PowerWeightSpec(), 3.0), NonFiniteWeight),
    (lambda: laguerre_mass_kernel(-1.0, 1.0, 5, 0.0), ExponentOutOfRange),
])
def test_invalid_specs_fail_before_any_computation(call, error):
    with pytest.raises(error):
        call()


def test_measure_json_round_trip():
    spec = MeasureSpec(
        GenJacobiSpec(-0.5, 0.5, ((0.0, 1.0),)),
        (MassPoint(-1.0, 0.5), MassPoint(0.3, 0.25)),
    )
    text = json.dumps(measure_to_dict(spec))
    assert measure_from_dict(json.loads(text)) == spec
    assert json.loads(text)["base"]["kind"] == "genjacobi"
    with pytest.raises(SpecError):
        measure_from_dict(json.loads('{"base": {"kind": "unknown"}}'))


def test_power_weight_values_and_mass_override():
    spec = legendre([MassPoint(0.3, 1.0)])
    w = PowerWeightSpec(a=0.5, b=0.0, at_mass=(2.5,))
    x = np.array([0.0, 0.3, 0.84])
    vals = w.values(x, spec)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(2.5)  # overridden at the mass point
    assert vals[2] == pytest.approx((1.0 - 0.84) ** 0.5)


@pytest.mark.parametrize("at_mass", [(0.0,), (-1.0,), (math.inf,), (math.nan,), (2.0, 0.0)])
def test_power_weight_values_at_the_mass_points_must_be_positive_and_finite(at_mass):
    with pytest.raises(SpecError, match=r"must be in \(0, inf\)"):
        PowerWeightSpec(at_mass=at_mass)
    with pytest.raises(SpecError, match=r"must be in \(0, inf\)"):
        weight_from_dict({"atMass": list(at_mass)})


@pytest.mark.parametrize("d", [
    {"alpha": 0.25},
    {"a": 0.25, "at_mass": [2.0]},
    {"a": 0.25, "G": [0.5]},
    [0.25],
])
def test_weight_from_dict_rejects_unknown_keys(d):
    with pytest.raises(SpecError):
        weight_from_dict(d)


@pytest.mark.parametrize("d", [{"a": math.nan}, {"b": math.inf}, {"g": [0.5, -math.inf]}])
def test_weight_from_dict_rejects_non_finite_exponents(d):
    with pytest.raises(NonFiniteWeight, match="must be finite"):
        weight_from_dict(d)
    with pytest.raises(NonFiniteWeight, match="must be finite"):
        PowerWeightSpec(d.get("a", 0.0), d.get("b", 0.0), tuple(d.get("g", ())))


def test_weight_dict_round_trip():
    w = PowerWeightSpec(a=0.25, b=-0.5, g=(0.5,), at_mass=(2.0, 3.0))
    assert weight_from_dict(weight_to_dict(w)) == w
    assert weight_from_dict({}) == weight_from_dict(None) == PowerWeightSpec()


HUGE = 10**400  # an int too large for a float


# each value of a measure or weight must have its JSON type, or the reader raises a SpecError that names its key
@pytest.mark.parametrize("read, d, error, match", [
    (measure_from_dict, {"base": {"kind": "genjacobi", "alpha": True}}, SpecError,
     "genjacobi base key 'alpha' must be a number, got true"),
    (measure_from_dict, {"base": {"kind": "genjacobi", "beta": "0.5"}}, SpecError,
     "genjacobi base key 'beta' must be a number, got \"0.5\""),
    (measure_from_dict, {"base": {"kind": "genjacobi"}, "masses": [{"location": "1", "mass": 1}]}, SpecError,
     "masses[0] key 'location' must be a number, got \"1\""),
    (weight_from_dict, {"a": "0.25"}, SpecError, "weight key 'a' must be a number, got \"0.25\""),
    (weight_from_dict, {"g": "12"}, SpecError, "weight key 'g' must be a list of numbers, got \"12\""),
    (weight_from_dict, {"atMass": "5"}, SpecError, "weight key 'atMass' must be a list of numbers, got \"5\""),
    (weight_from_dict, {"a": True}, SpecError, "weight key 'a' must be a number, got true"),
    (weight_from_dict, {"atMass": [True]}, SpecError, "weight key 'atMass' must be a list of numbers, got [true]"),
    # an int too large for a float reads as an infinity, which the spec rejects
    (measure_from_dict, {"base": {"kind": "genjacobi", "alpha": HUGE}}, ExponentOutOfRange, "alpha=inf"),
    (measure_from_dict, {"base": {"kind": "laguerre", "alpha": -HUGE}}, ExponentOutOfRange, "got -inf"),
    (weight_from_dict, {"a": HUGE}, NonFiniteWeight, "a=inf"),
    # a missing required key is named, with where it is missing
    (measure_from_dict, {"base": {"kind": "genjacobi"}, "masses": [{"mass": 1}]}, SpecError,
     "masses[0] lacks the required key(s) ['location']"),
    (measure_from_dict, {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0}]}}, SpecError,
     "singularities[0] lacks the required key(s) ['gamma']"),
    (measure_from_dict, {"masses": []}, SpecError, "measure lacks the required key(s) ['base']"),
    (measure_from_dict, {"base": {"alpha": 0.5}}, SpecError, "base lacks the required key(s) ['kind']"),
    # lists are JSON lists, each of their records a JSON object
    (measure_from_dict, {"base": {"kind": "genjacobi", "singularities": "0.5:1"}}, SpecError,
     "genjacobi base key 'singularities' must be a list, got \"0.5:1\""),
    (measure_from_dict, {"base": {"kind": "hermite"}, "masses": {"location": 0, "mass": 1}}, SpecError,
     "measure key 'masses' must be a list"),
    (measure_from_dict, {"base": {"kind": "genjacobi", "singularities": [[0.5, 1.0]]}}, SpecError,
     "singularities[0] must be a JSON object, got [0.5, 1.0]"),
])
def test_spec_values_of_the_wrong_json_type_are_named(read, d, error, match):
    with pytest.raises(error, match=re.escape(match)):
        read(d)


@pytest.mark.parametrize("text", [
    '{"base": {"kind": "genjacobi", "alfa": 0.5}}',
    '{"base": {"kind": "laguerre", "beta": 0.5}}',
    '{"base": {"kind": "hermite", "alpha": 0.0}}',
    '{"base": {"kind": "hermite"}, "mass": []}',
    '{"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": 1.0, "g": 1.0}]}}',
    '{"base": {"kind": "genjacobi"}, "masses": [{"location": 1.0, "mass": 1.0, "weight": 2.0}]}',
    '{"base": {"kind": "genjacobi"}, "masses": [[1.0, 1.0]]}',
    '{"base": "genjacobi"}',
    '[]',
])
def test_measure_from_dict_rejects_unknown_keys_and_non_objects(text):
    with pytest.raises(SpecError):
        measure_from_dict(json.loads(text))


@pytest.mark.parametrize("w", [
    PowerWeightSpec(g=(0.5,)),  # Legendre has no singularity
    PowerWeightSpec(at_mass=(2.0, 3.0)),  # one mass point
    PowerWeightSpec(at_mass=(2.0,)),
])
def test_weight_lists_must_match_the_measure(w):
    spec = legendre([MassPoint(0.3, 1.0)]) if len(w.at_mass) != 1 else legendre()
    x = np.array([0.0, 0.3])
    with pytest.raises(SpecError, match="entries"):
        w.values(x, spec)
    for u, v in ((w, PowerWeightSpec()), (PowerWeightSpec(), w)):
        with pytest.raises(SpecError, match="entries"):
            check_conditions(spec, u, v, 2.0)


@pytest.mark.parametrize("base, w", [
    (LaguerreSpec(0.0), PowerWeightSpec(a=1.0)),
    (LaguerreSpec(0.5), PowerWeightSpec(b=-0.5)),
    (HermiteSpec(), PowerWeightSpec(b=2.0)),
    (HermiteSpec(), PowerWeightSpec(a=0.25, b=0.25)),
])
def test_power_factors_are_rejected_off_jacobi_bases(base, w):
    # (1 - x)^a is negative or NaN for x > 1 and (1 + x)^b for x < -1
    spec = MeasureSpec(base, (MassPoint(0.0, 1.0),))
    with pytest.raises(SpecError, match="apply to generalized Jacobi bases"):
        w.values(np.array([0.0, 0.5, 3.0]), spec)


def test_mass_values_alone_are_allowed_off_jacobi_bases():
    spec = MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))
    vals = PowerWeightSpec(at_mass=(2.0,)).values(np.array([0.0, 0.5, 3.0]), spec)
    assert vals.tolist() == [2.0, 1.0, 1.0]


def test_weight_lists_of_the_right_length_are_used():
    spec = MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.0, 1.0),)), (MassPoint(0.3, 1.0),))
    w = PowerWeightSpec(g=(0.5,), at_mass=(2.5,))
    vals = w.values(np.array([-0.64, 0.3]), spec)
    assert vals[0] == pytest.approx(0.8)
    assert vals[1] == 2.5
    assert check_conditions(spec, w, PowerWeightSpec(), 2.0).line("couple.t0").margin == 0.5


def test_mean_convergence_endpoints_legendre():
    p0, p1 = mean_convergence_endpoints(0.0, 0.0)
    assert p0 == pytest.approx(4.0 / 3.0)
    assert p1 == pytest.approx(4.0)


def test_mean_convergence_endpoints_need_large_exponent():
    with pytest.raises(NoEndpoint):
        mean_convergence_endpoints(-0.6, -0.7)


def test_mean_convergence_endpoints_are_the_textbook_floats_and_never_overflow():
    # 2 ((m+1)/(m+3/2)) halves numerator and denominator of 4(m+1)/(2m+3): scaling by 2 is exact
    rng = np.random.default_rng(5)
    ms = np.concatenate([np.linspace(-0.4999, 20.0, 3000), 10.0 ** rng.uniform(-6, 307, 3000)])
    for m in ms.tolist():
        textbook = (4 * (m + 1) / (2 * m + 3), 4 * (m + 1) / (2 * m + 1))
        for alpha, beta in ((m, -0.9), (-0.9, m)):
            got = mean_convergence_endpoints(alpha, beta)
            assert [p.hex() for p in got] == [p.hex() for p in textbook], m
    # past about 1e16 both endpoints round to 2, up to the largest float
    assert mean_convergence_endpoints(1e17, 0.0) == (2.0, 2.0)
    assert mean_convergence_endpoints(1e308, 0.0) == (2.0, 2.0)
    assert mean_convergence_endpoints(0.0, np.finfo(float).max) == (2.0, 2.0)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (math.nan, 0.0), (0.0, math.nan), (-math.inf, 0.5)])
def test_mean_convergence_endpoints_reject_non_finite_exponents(alpha, beta):
    with pytest.raises(ExponentOutOfRange):
        mean_convergence_endpoints(alpha, beta)


def test_check_conditions_matches_endpoint_window():
    spec = legendre([MassPoint(1.0, 1.0)])
    u = v = PowerWeightSpec()
    # unweighted Legendre window is (4/3, 4)
    for p, expect in [(1.25, False), (1.5, True), (2.0, True), (3.0, True), (4.5, False)]:
        assert check_conditions(spec, u, v, p).verdict is expect, p


def test_check_conditions_is_closed_under_duality():
    # S_n is self-adjoint in L^2(nu), so (p, u, v) and (p', 1/v, 1/u) bound the same norm:
    # each upper line at one is the lower line at the other, and each coupling line itself
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(200):
        locs = rng.choice(np.linspace(-0.9, 0.9, 19), size=rng.integers(0, 3), replace=False)
        sing = tuple((float(t), float(rng.uniform(-0.9, 2.0))) for t in sorted(locs))
        spec = MeasureSpec(GenJacobiSpec(*rng.uniform(-0.9, 2.0, 2), sing), (MassPoint(1.0, 1.0),))
        u, v = (PowerWeightSpec(*rng.uniform(-0.6, 0.6, 2), tuple(rng.uniform(-0.6, 0.6, len(sing))))
                for _ in range(2))
        p = float(rng.uniform(1.1, 6.0))
        inv = lambda w: PowerWeightSpec(-w.a, -w.b, tuple(-g for g in w.g))
        rep, dual = check_conditions(spec, u, v, p), check_conditions(spec, inv(v), inv(u), p / (p - 1))
        assert rep.verdict == dual.verdict
        verdicts.add(rep.verdict)
        partner = {"upper": "lower", "lower": "upper", "couple": "couple"}
        for line in rep.lines:
            block, _, where = line.label.partition(".")
            other = dual.line(f"{partner[block]}.{where}")
            assert line.satisfied == other.satisfied, line.label
            assert abs(line.margin - other.margin) <= 4 * np.spacing(3.0), line.label
    assert verdicts == {True, False}


def test_check_conditions_margins_on_two_interior_singularities():
    # every number is dyadic, so each margin is exact: at p = 4, s = 1/p - 1/2 = -1/4, a line's shift is
    # (e + 1) s, and its cap is min(1/4, (e + 1)/2) at an end and min(1/2, (e + 1)/2) at an interior point
    base = GenJacobiSpec(1.0, -0.75, ((-0.5, 3.0), (0.25, -0.5)))
    spec = MeasureSpec(base, (MassPoint(-1.0, 1.0), MassPoint(0.25, 2.0)))
    u = PowerWeightSpec(0.25, -0.25, (1.0, 0.125), (2.0, 0.5))
    v = PowerWeightSpec(0.25, -0.5, (0.5, 0.5))
    # shifts -1/2, -1/16, -1, -1/8; caps 1/4, 1/8, 1/2, 1/4 (edge+1, edge-1, t0, t1)
    expect = [
        ("upper.edge+1", 0.25 - (0.25 - 0.5)), ("upper.edge-1", 0.125 - (-0.5 - 0.0625)),
        ("upper.t0", 0.5 - (0.5 - 1.0)), ("upper.t1", 0.25 - (0.5 - 0.125)),
        ("lower.edge+1", 0.25 + (0.25 - 0.5)), ("lower.edge-1", 0.125 + (-0.25 - 0.0625)),
        ("lower.t0", 0.5 + (1.0 - 1.0)), ("lower.t1", 0.25 + (0.125 - 0.125)),
        ("couple.edge+1", 0.25 - 0.25), ("couple.edge-1", -0.25 + 0.5),
        ("couple.t0", 1.0 - 0.5), ("couple.t1", 0.125 - 0.5),
    ]
    assert [m for _, m in expect] == [0.5, 0.6875, 1.0, -0.125, 0.0, -0.1875, 0.5, 0.25, 0.0, 0.25, 0.5, -0.375]
    rep = check_conditions(spec, u, v, 4.0)
    assert [(ln.label, ln.margin) for ln in rep.lines] == expect
    # a strict line holds only at a positive margin, a coupling line also at 0
    assert [ln.satisfied for ln in rep.lines] == [m > 0 for _, m in expect[:8]] + [m >= 0 for _, m in expect[8:]]
    assert rep.verdict is False


def test_check_conditions_rejects_bad_p_and_base():
    u = v = PowerWeightSpec()
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(SpecError):
            check_conditions(legendre(), u, v, p)
    with pytest.raises(SpecError):
        check_conditions(MeasureSpec(LaguerreSpec(0.0)), u, v, 2.0)


def test_condition_report_structure():
    rep = check_conditions(legendre(), PowerWeightSpec(), PowerWeightSpec(), 2.0)
    assert rep.line("upper.edge+1").satisfied
    d = rep.to_dict()
    assert set(d) == {"verdict", "lines"}
    assert all(ln["margin"] > 0 for ln in d["lines"] if "upper" in ln["label"])


def test_density_genjacobi():
    base = GenJacobiSpec(0.5, -0.5, ((0.2, 1.0),))
    x = np.array([0.6])
    expect = (0.4**0.5) * (1.6**-0.5) * 0.4
    assert base.density(x)[0] == pytest.approx(expect)
