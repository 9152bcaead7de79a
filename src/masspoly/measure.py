"""Measure and weight specifications and analytic condition checkers.

A measure is nu = mu + sum_i M_i delta_{a_i}, with mu a generalized Jacobi
weight on [-1,1] or a Laguerre / Hermite weight.  A generalized Jacobi weight
is one factor list, ``GenJacobiSpec.factors``, read through
``factor_product``, ``at_end`` and ``is_polynomial`` alone; on [-1, 1],
|x - 1| is 1 - x and |x + 1| is 1 + x, bit for bit.  Every spec checks itself
when it is built, so no function that takes one checks it again.  The JSON
form of a spec is read with the JSON types of a CLI config: a value of the
wrong type, or a missing or unknown key, raises a SpecError naming the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DuplicateLocation,
    ExponentOutOfRange,
    MassNotPositive,
    NoEndpoint,
    NonFiniteWeight,
    SpecError,
)


# ----------------------------------------------------------------------
# the factor list


def at_end(t):
    """Whether the factor location t is an end of [-1, 1] rather than an interior singular point."""
    return abs(t) == 1.0


def is_polynomial(t, e):
    """Whether |x - t|^e is a polynomial on [-1, 1]: e is a nonnegative integer, and an even one inside."""
    return e >= 0 and e % (1 if at_end(t) else 2) == 0


def factor_product(x, factors):
    """prod |x - t|^e over the (location, exponent) pairs ``factors``, multiplied in their order."""
    w = 1.0
    for t, e in factors:
        w = w * np.abs(x - t) ** e
    return w


# ----------------------------------------------------------------------
# base weights


@dataclass(frozen=True)
class GenJacobiSpec:
    """Weight (1-x)^alpha (1+x)^beta prod_i |x - t_i|^gamma_i on [-1,1]; ``singularities`` holds the (t_i, gamma_i)."""

    alpha: float = 0.0
    beta: float = 0.0
    singularities: tuple = ()

    kind = "genjacobi"
    support = (-1.0, 1.0)

    def __post_init__(self):
        if not (-1 < self.alpha < math.inf and -1 < self.beta < math.inf):
            raise ExponentOutOfRange(
                f"edge exponents must be finite and > -1, got alpha={self.alpha}, beta={self.beta}"
            )
        for t, g in self.singularities:
            if not -1 < g < math.inf:
                raise ExponentOutOfRange(f"singularity exponent at t={t} must be finite and > -1, got {g}")
            if not (-1.0 < t < 1.0):
                raise SpecError(f"singularity location {t} not strictly inside (-1,1)")
        ts = [t for t, _ in self.singularities]
        if len(set(ts)) != len(ts):
            raise DuplicateLocation(f"repeated singularity locations in {ts}")

    @property
    def is_classical(self):
        return len(self.singularities) == 0

    @property
    def factors(self):
        """The factor list: (1, alpha), (-1, beta), then the (t_i, gamma_i) in their order."""
        return ((1.0, self.alpha), (-1.0, self.beta), *self.singularities)

    def density(self, x):
        return factor_product(np.asarray(x, dtype=float), self.factors)


@dataclass(frozen=True)
class LaguerreSpec:
    """Weight e^{-x} x^alpha on [0, inf)."""

    alpha: float = 0.0

    kind = "laguerre"
    support = (0.0, math.inf)
    singularities = ()

    def __post_init__(self):
        if not -1 < self.alpha < math.inf:
            raise ExponentOutOfRange(f"Laguerre alpha must be finite and > -1, got {self.alpha}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x) * x ** self.alpha


@dataclass(frozen=True)
class HermiteSpec:
    """Weight e^{-x^2} on the real line."""

    kind = "hermite"
    support = (-math.inf, math.inf)
    singularities = ()

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x**2))


@dataclass(frozen=True)
class MassPoint:
    location: float
    mass: float


@dataclass(frozen=True)
class MeasureSpec:
    """A base weight plus point masses: positive, finite, at distinct finite points of its support."""

    base: object
    masses: tuple = ()

    def __post_init__(self):
        if not isinstance(self.base, (GenJacobiSpec, LaguerreSpec, HermiteSpec)):
            raise SpecError(f"unknown base weight {self.base!r}")
        lo, hi = self.base.support
        locs = list(self.mass_locations)
        if len(set(locs)) != len(locs):
            raise DuplicateLocation(f"repeated mass locations in {locs}")
        for m in self.masses:
            if not 0 < m.mass < math.inf:
                raise MassNotPositive(f"mass at {m.location} must be positive and finite, got {m.mass}")
            if not (lo <= m.location <= hi and math.isfinite(m.location)):
                raise SpecError(f"mass location {m.location} is not a finite point of the support [{lo}, {hi}]")

    @property
    def mass_locations(self):
        return tuple(m.location for m in self.masses)


def legendre(masses=()):
    """Convenience constructor: Lebesgue measure on [-1,1] plus masses."""
    return MeasureSpec(GenJacobiSpec(0.0, 0.0), tuple(masses))


# ----------------------------------------------------------------------
# power weights


@dataclass(frozen=True)
class PowerWeightSpec:
    """u(x) = (1-x)^a (1+x)^b prod |x-t_i|^g_i, with prescribed values at mass points.

    ``g`` is aligned with the base's singularities, ``at_mass`` with the
    masses; exponents must be finite, values at the masses in (0, inf).
    """

    a: float = 0.0
    b: float = 0.0
    g: tuple = ()
    at_mass: tuple = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, *self.g))):
            raise NonFiniteWeight(f"weight exponents a, b and g must be finite, "
                                  f"got a={self.a:g}, b={self.b:g}, g={list(self.g)}")
        if not all(0.0 < val < math.inf for val in self.at_mass):
            raise SpecError(f"weight values at the mass points must be in (0, inf), got atMass={list(self.at_mass)}")

    def factors(self, measure: MeasureSpec):
        """(location, exponent) pairs aligned with the base's factor list: a at 1, b at -1, then g (0 where not given).

        Off a generalized Jacobi base every exponent is 0 (``_check_weight_fits``).
        """
        sing = measure.base.singularities
        return ((1.0, self.a), (-1.0, self.b), *zip((t for t, _ in sing), self.g or (0.0,) * len(sing)))

    def values(self, x, measure: MeasureSpec):
        """Evaluate on an array of points; mass-point values are overridden."""
        _check_weight_fits(self, measure)
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            w = factor_product(x, self.factors(measure))
        at_mass = self.at_mass if self.at_mass else (1.0,) * len(measure.masses)
        for mp, val in zip(measure.masses, at_mass):
            w = np.where(x == mp.location, val, w)
        return w


def _check_weight_fits(w: PowerWeightSpec, measure: MeasureSpec):
    """Reject a non-empty g or at_mass without one entry per base singularity or per mass point.

    Off [-1, 1] (1-x)^a and (1+x)^b are negative or NaN, so on a Laguerre or
    Hermite base a weight with an exponent raises NonFiniteWeight.
    """
    if not isinstance(measure.base, GenJacobiSpec) and (w.a or w.b or any(w.g)):
        raise NonFiniteWeight(f"weight exponents a, b and g apply to generalized Jacobi bases: off [-1, 1] "
                              f"(1-x)^a (1+x)^b is not finite and positive; on the {measure.base.kind} base "
                              f"a weight takes atMass only, got a={w.a:g}, b={w.b:g}, g={list(w.g)}")
    for name, given, count, what in (("g", w.g, len(measure.base.singularities), "base singularities"),
                                     ("atMass", w.at_mass, len(measure.masses), "mass points")):
        if given and len(given) != count:
            raise SpecError(f"weight {name} has {len(given)} entries, but the measure has {count} {what}")


# ----------------------------------------------------------------------
# boundedness condition checkers


@dataclass(frozen=True)
class ConditionLine:
    label: str
    satisfied: bool
    margin: float  # above 1e-12 iff a strict line holds, >= 0 iff a coupling line does


@dataclass(frozen=True)
class ConditionReport:
    lines: tuple

    @property
    def verdict(self):
        return all(line.satisfied for line in self.lines)

    def line(self, label):
        for ln in self.lines:
            if ln.label == label:
                return ln
        raise KeyError(label)

    def to_dict(self):
        return {"verdict": self.verdict, "lines": [asdict(ln) for ln in self.lines]}


def check_conditions(spec: MeasureSpec, u: PowerWeightSpec, v: PowerWeightSpec, p: float) -> ConditionReport:
    """Evaluate the three inequality blocks governing uniform L^p boundedness.

    Block I (upper, strict) constrains the v-exponents, block II (lower,
    strict) the u-exponents, block III (non-strict) couples them; a positive
    margin, right minus left on a strict line and u minus v on the others,
    means satisfied.  A strict line holds only where its margin
    exceeds 1e-12: at a window endpoint the margin is 0 and rounds to a few
    ulps either side (``test_check_conditions_rejects_the_window_endpoints``).
    """
    base = spec.base
    if not isinstance(base, GenJacobiSpec):
        raise SpecError("condition checker applies to generalized Jacobi bases only")
    if not (1.0 < p < math.inf):
        raise SpecError(f"p must be in (1, inf), got {p}")

    _check_weight_fits(u, spec)
    _check_weight_fits(v, spec)
    s = 1.0 / p - 0.5
    labels = ("edge+1", "edge-1", *(f"t{i}" for i in range(len(base.singularities))))
    # per factor: its label, (e + 1) s, its cap (1/4 at an end, 1/2 inside, at most (e + 1) / 2), u's and v's exponents
    rows = [(label, (e + 1) * s, min(0.25 if at_end(t) else 0.5, (e + 1) / 2), ue, ve)
            for label, (t, e), (_, ue), (_, ve) in zip(labels, base.factors, u.factors(spec), v.factors(spec))]
    lines = []

    def strict(label, lhs, rhs):
        lines.append(ConditionLine(label, rhs - lhs > 1e-12, rhs - lhs))

    for label, shift, cap, _, ve in rows:  # upper block: v exponents
        strict(f"upper.{label}", ve + shift, cap)
    for label, shift, cap, ue, _ in rows:  # lower block: u exponents
        strict(f"lower.{label}", -(ue + shift), cap)
    for label, _, _, ue, ve in rows:  # coupling block: v <= u exponentwise (non-strict)
        lines.append(ConditionLine(f"couple.{label}", ve <= ue, ue - ve))
    return ConditionReport(tuple(lines))


def mean_convergence_endpoints(alpha: float, beta: float):
    """Endpoints (p0, p1) of the open interval of uniform L^p boundedness.

    Defined for finite exponents with max(alpha, beta) = m > -1/2:
    p0 = 4(m+1)/(2m+3) and p1 = 4(m+1)/(2m+1), written with both halves
    halved, the same floats, so that none overflows.  Both round to 2 once m
    passes about 1e16.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ExponentOutOfRange(f"edge exponents must be finite, got alpha={alpha}, beta={beta}")
    m = max(alpha, beta)
    if m <= -0.5:
        raise NoEndpoint(f"max(alpha, beta) = {m} <= -1/2: no finite endpoints")
    p0 = 2 * ((m + 1) / (m + 1.5))
    p1 = 2 * ((m + 1) / (m + 0.5))
    return p0, p1


# ----------------------------------------------------------------------
# JSON types and the spec schema


def _real(value):
    """The float value, finite or not, of a JSON number: an int that is not a bool (true is not 1) or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)  # json reads NaN and Infinity as floats
    except OverflowError:  # an int too large for a float rounds to an infinity
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class JSONType:
    """What a JSON value must be: ``name`` says it in an error, ``test`` checks a value, ``read`` converts it."""

    name: str
    test: Callable
    read: Callable = lambda value: value

    def check(self, value, where):
        """``value`` read, or a SpecError that names ``where`` if it is not of this type."""
        if not self.test(value):
            raise SpecError(f"{where} must be {self.name}, got {json.dumps(value, default=repr)}")
        return self.read(value)


# A number in a config must be finite: a top-level one is checked here and kept
# as given, one in a measure or weight is read as a float and checked by the
# spec it builds, which names a non-finite one in its own typed error.
NUMBER = JSONType("a number", lambda v: _real(v) is not None and math.isfinite(_real(v)))
INTEGER = JSONType("an integer", lambda v: isinstance(v, int) and NUMBER.test(v))
NUMBERS = JSONType("a list of numbers", lambda v: isinstance(v, list) and all(map(NUMBER.test, v)))
BOOLEAN = JSONType("true or false", lambda v: isinstance(v, bool))
TEXT = JSONType("a string", lambda v: isinstance(v, str))
OBJECT = JSONType("a JSON object", lambda v: isinstance(v, dict))
WEIGHT = JSONType("a weight object or null", lambda v: v is None or isinstance(v, dict))
_LIST = JSONType("a list", lambda v: isinstance(v, list))
_REAL = JSONType("a number", lambda v: _real(v) is not None, _real)
_REALS = JSONType("a list of numbers", lambda v: isinstance(v, list) and all(map(_REAL.test, v)),
                  lambda v: tuple(map(_real, v)))


def _fields(d, schema, what):
    """``d``'s values at the keys of ``schema``, key -> (JSON type, default or None if required), in its order."""
    OBJECT.check(d, what)
    unknown = [key for key in d if key not in schema]
    if unknown:
        raise SpecError(f"{what} has unknown key(s) {unknown}; expected some of {list(schema)}")
    missing = [key for key, (_, default) in schema.items() if default is None and key not in d]
    if missing:
        raise SpecError(f"{what} lacks the required key(s) {missing}")
    return [kind.check(d[key], f"{what} key {key!r}") if key in d else default
            for key, (kind, default) in schema.items()]


def _records(items, schema, what):
    return tuple(tuple(_fields(item, schema, f"{what}[{i}]")) for i, item in enumerate(items))


_SINGULARITY = {"t": (_REAL, None), "gamma": (_REAL, None)}
_MASS = {"location": (_REAL, None), "mass": (_REAL, None)}
_WEIGHT = {"a": (_REAL, 0.0), "b": (_REAL, 0.0), "g": (_REALS, ()), "atMass": (_REALS, ())}
_SINGULARITIES = JSONType("a list", _LIST.test, lambda v: _records(v, _SINGULARITY, "singularities"))
# base kind -> its class and the schema of its keys but kind, in the order its constructor takes them
_BASE_KINDS = {
    "genjacobi": (GenJacobiSpec, {"alpha": (_REAL, 0.0), "beta": (_REAL, 0.0), "singularities": (_SINGULARITIES, ())}),
    "laguerre": (LaguerreSpec, {"alpha": (_REAL, 0.0)}),
    "hermite": (HermiteSpec, {}),
}
_KIND = JSONType(f"one of {list(_BASE_KINDS)}", lambda v: v in list(_BASE_KINDS))


def measure_to_dict(spec: MeasureSpec):
    base = {key: getattr(spec.base, key) for key in ("kind", *_BASE_KINDS[spec.base.kind][1])}
    if "singularities" in base:
        base["singularities"] = [dict(zip(_SINGULARITY, s)) for s in base["singularities"]]
    return {"base": base, "masses": [dict(zip(_MASS, (m.location, m.mass))) for m in spec.masses]}


def measure_from_dict(d) -> MeasureSpec:
    """The measure of a JSON object: its base is read and built, then its masses are read."""
    bd, masses = _fields(d, {"base": (OBJECT, None), "masses": (_LIST, ())}, "measure")
    if "kind" not in bd:
        raise SpecError("base lacks the required key(s) ['kind']")
    cls, schema = _BASE_KINDS[_KIND.check(bd["kind"], "base key 'kind'")]
    base = cls(*_fields(bd, {"kind": (_KIND, None), **schema}, f"{bd['kind']} base")[1:])
    return MeasureSpec(base, tuple(MassPoint(*m) for m in _records(masses, _MASS, "masses")))


def weight_to_dict(w: PowerWeightSpec):
    return {"a": w.a, "b": w.b, "g": list(w.g), "atMass": list(w.at_mass)}


def weight_from_dict(d) -> PowerWeightSpec:
    return PowerWeightSpec() if d is None else PowerWeightSpec(*_fields(d, _WEIGHT, "weight"))
