"""Batch experiment driver.

Every subcommand is one row of ``COMMANDS``, and ``_KEYS`` gives each
parameter key its JSON type and its flag, if it has one.  A subcommand offers
--config, --out, --format, the flags of its parameters and, unless it builds
its own measure, --base, --alpha, --beta and --mass; any other flag, or a
--mode the command does not run, is an argparse error.  Each parameter comes
from its flag, then the config, then its default.  A config value must have
its key's JSON type, a number a finite one, and is kept as given; a
top-level config key the command does not read is rejected.

Output is JSON (default) or CSV, to stdout or --out, with a schema_version.
The JSON embeds the resolved config, which fed back through --config alone
reruns the command byte for byte.  Exit codes: 0 success, 2 validation error
(an argparse error included), 3 numerical failure (numpy's LinAlgError
included).  A NaN or infinite number anywhere in the output is a numerical
failure, and then nothing is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import norms, transforms
from .errors import MassPolyError, NumericalBreakdown, SpecError
from .measure import BOOLEAN, INTEGER, NUMBER, NUMBERS, OBJECT, TEXT, WEIGHT
from .measure import (
    GenJacobiSpec,
    HermiteSpec,
    LaguerreSpec,
    MassPoint,
    MeasureSpec,
    check_conditions,
    mean_convergence_endpoints,
    measure_from_dict,
    measure_to_dict,
    weight_from_dict,
)
from .opoly import basis_for, cd_kernel, kernel_decomposition, modified_bases
from .norms import make_grid

SCHEMA_VERSION = 1

_NUMERICAL_EXIT = 3
_VALIDATION_EXIT = 2


# ----------------------------------------------------------------------
# measure and weights


def _parse_mass(text: str) -> MassPoint:
    try:
        loc, mass = text.split(":")
        return MassPoint(float(loc), float(mass))
    except ValueError as exc:
        raise SpecError(f"mass must be given as location:mass, got {text!r}") from exc


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return OBJECT.check(json.load(fh), "config root")


# --base name -> (its parameters among --alpha and --beta, its base weight, which takes them in that order)
_BASES = {
    "legendre": ((), GenJacobiSpec),
    "jacobi": (("alpha", "beta"), GenJacobiSpec),
    "laguerre": (("alpha",), LaguerreSpec),
    "hermite": ((), HermiteSpec),
}


def _build_measure(args, cfg) -> MeasureSpec:
    """The measure of the config's "measure", or else of the flags, whose --alpha and --beta the base must take."""
    if "measure" in cfg:
        given = [f"--{key}" for key in ("base", "alpha", "beta", "mass") if getattr(args, key) is not None]
        if given:
            raise SpecError(f"{', '.join(given)} cannot be combined with a config \"measure\"")
        return measure_from_dict(cfg["measure"])
    name = args.base or "legendre"
    takes, base = _BASES[name]
    for key in ("alpha", "beta"):
        if getattr(args, key) is not None and key not in takes:
            raise SpecError(f"--{key} is not a parameter of the {name} base")
    masses = tuple(_parse_mass(m) for m in args.mass or ())
    return MeasureSpec(base(*(getattr(args, key) or 0.0 for key in takes)), masses)


def _check_own_measure(cfg, spec):
    """A config "measure" on a row that builds its own must be the measure built, so the emitted config replays."""
    if "measure" in cfg and measure_from_dict(cfg["measure"]) != spec:
        raise SpecError(
            f"config \"measure\" {json.dumps(cfg['measure'], sort_keys=True)} is not the measure this "
            f"command builds, {json.dumps(measure_to_dict(spec), sort_keys=True)}"
        )


def _weights(prm):
    return weight_from_dict(prm["u"]), weight_from_dict(prm["v"])


def _weight(prm, key):
    """The weight of config key u or v for a probe, which takes a weight not given as None."""
    return None if prm[key] is None else weight_from_dict(prm[key])


def _symbol(prm, grid):
    """The symbol the config key "symbol" names; it must be finite at every node of the grid, mass points first."""
    symbols = norms.bmo_symbols(prm["t"])
    name = prm["symbol"]
    if name not in symbols:
        raise SpecError(f"symbol must be one of {tuple(symbols)}, got {name!r}")
    b = symbols[name]
    with np.errstate(divide="ignore", invalid="ignore"):
        on_grid = b(grid.nodes)
    norms.check_symbol(on_grid, grid, repr(name),
                       f"choose one finite there with the config key \"symbol\", one of {tuple(symbols)}")
    return b


# ----------------------------------------------------------------------
# run functions: (measure spec, resolved parameters) -> (JSON data, rows)


def _point_rows(n, xs, vals):
    rows = [(int(n), float(x), float(v)) for x, v in zip(xs, vals)]
    return {"rows": rows}, rows


def _sampled(spec, prm, n):
    """Basis up to degree n, the config's polynomial f on a grid, and the evaluation points."""
    basis = basis_for(spec, n)
    grid = make_grid(spec, prm["quad_size"])
    f = grid.fn(np.polynomial.Polynomial(np.asarray(prm["f_poly"], dtype=float)))
    return basis, f, np.asarray(prm["points"], dtype=float)


def _recurrence(spec, prm):
    N = prm["N"]
    rec = basis_for(spec, N).nu_rec
    rows = [(k, float(rec.alphas[k]), float(rec.betas[k])) for k in range(N)]
    return {"rows": rows}, rows


def _basis(spec, prm):
    N = prm["N"]
    xs = np.asarray(prm["points"], dtype=float)
    table = basis_for(spec, N).eval_all(xs, N)
    rows = [(n, float(x), float(table[n, j])) for n in range(N + 1) for j, x in enumerate(xs)]
    return {"rows": rows}, rows


def _kernel(spec, prm):
    n, a = prm["n"], float(prm["a"])
    xs = np.asarray(prm["points"], dtype=float)
    basis = basis_for(spec, n)
    data, rows = _point_rows(n, xs, np.atleast_1d(cd_kernel(basis, n, xs, a)))
    data["a"] = a
    if prm["decompose"]:  # without masses the decomposition is the one kernel K_n, coefficient 1
        dec = kernel_decomposition(basis, modified_bases(spec, n), n)
        data["decomposition"] = {
            "coefficients": {",".join(map(str, k)): float(c) for k, c in dec.coefficients.items()},
            "residual": dec.residual,
            "total": float(dec.total),
        }
    return data, rows


def _partial_sum(spec, prm):
    basis, f, xs = _sampled(spec, prm, prm["n"])
    return _point_rows(prm["n"], xs, transforms.partial_sum(basis, f, prm["n"], xs))


def _maximal(spec, prm):
    basis, f, xs = _sampled(spec, prm, prm["N"])
    return _point_rows(prm["N"], xs, transforms.maximal_op(basis, f, prm["N"], xs))


def _commutator(spec, prm):
    basis, f, xs = _sampled(spec, prm, prm["n"])
    b = _symbol(prm, f.grid)
    # a symbol infinite at an evaluation point leaves non-finite values, which raise NumericalBreakdown
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = transforms.commutator(basis, b, f, prm["n"], xs)
    return _point_rows(prm["n"], xs, vals)


def _pollard(spec, prm):
    n = prm["n"]
    nu_basis = basis_for(spec, n + 1)
    f = np.polynomial.Polynomial(np.asarray(prm["f_poly"], dtype=float))
    xs = np.asarray(prm["points"], dtype=float)
    parts = transforms.pollard_parts(nu_basis, transforms.q_basis_for(nu_basis), f, n, xs)
    rows = [(int(n), *map(float, r)) for r in zip(xs, parts.t_n, parts.w1, parts.w2, parts.w3)]
    return {"r": parts.r, "s": parts.s, "residual": parts.residual, "rows": rows}, rows


# probe mode -> probe; each takes (basis, grid, p, u, v, N, seed) but the commutator probe, which takes its
# symbol before p, and the restricted-weak probe, which takes no v
_PROBES = {"strong": norms.strong_probe, "restricted-weak": norms.weak_type_probe,
           "maximal": norms.maximal_probe, "commutator": norms.commutator_probe}


def _probe(spec, prm):
    basis = basis_for(spec, prm["N"])
    grid = make_grid(spec, prm["grid_size"])
    mode = prm["mode"]
    # an overflow leaves non-finite values, which the probe raises as NumericalBreakdown
    with np.errstate(over="ignore", invalid="ignore"):
        weights = [_weight(prm, key) for key in (("u",) if mode == "restricted-weak" else ("u", "v"))]
        symbol = []
        if mode == "commutator":
            norms._check_exponent(prm["p"], dual=True)  # as in the probe, p is checked before the symbol
            symbol = [_symbol(prm, grid)]
        rep = _PROBES[mode](basis, grid, *symbol, prm["p"], *weights, N=prm["N"], seed=prm["seed"])
    return {"report": rep.to_dict()}, [(int(n), float(e)) for n, e in rep.entries]


def _probe_with_conditions(spec, prm):
    """The probe plus, on a generalized Jacobi base, the sufficient conditions and whether they agree."""
    if prm["mode"] == "restricted-weak" and prm["v"] is not None:
        raise SpecError("the weak-type probe takes one weight, u, which also divides the input; v is not used")
    data, rows = _probe(spec, prm)
    # the conditions are for strong type: restricted weak type also holds at the endpoint p = 4, where they fail
    if prm["mode"] != "restricted-weak" and isinstance(spec.base, GenJacobiSpec):
        try:
            cond = check_conditions(spec, *_weights(prm), prm["p"])
        except MassPolyError:
            return data, rows
        data["conditions"] = cond.to_dict()
        data["agreement"] = cond.verdict == (data["report"]["verdict"] == "bounded")
    return data, rows


def _laguerre_mass(spec, prm):
    table = transforms.laguerre_mass_table(prm["alpha"], prm["M"], prm["N"])
    rows = [(int(n), *map(float, r)) for n, *r in zip(*table)]
    return {"rows": rows}, rows


def _endpoints(spec, prm):
    p0, p1 = mean_convergence_endpoints(prm["alpha"], prm["beta"])
    return {"p0": p0, "p1": p1}, [(float(p0), float(p1))]


def _check_conditions(spec, prm):
    rep = check_conditions(spec, *_weights(prm), prm["p"])
    rows = [(ln.label, str(ln.satisfied).lower(), float(ln.margin)) for ln in rep.lines]
    return {"conditions": rep.to_dict()}, rows


# ----------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Command:
    """One subcommand; ``modes`` are the probe modes a command that reads "mode" runs.

    ``params`` are (config key, default) pairs; a callable default is called
    with the measure spec and the parameters resolved so far.  ``measure``,
    when set, builds the spec from the parameters.
    """

    run: Callable
    header: tuple
    params: tuple
    measure: Callable | None = None
    modes: tuple = ()


# the argparse keywords of a flag, by the JSON type it sets; --mode, the one string flag, offers the
# command's modes instead
_FLAG_KEYWORDS = {INTEGER: {"type": int}, NUMBER: {"type": float},
                  BOOLEAN: {"action": "store_true", "default": None}}

# parameter key -> (JSON type of its value, its flag or None); a flag's argparse dest is its key,
# so --n sets N or n, whichever the command reads
_KEYS = {
    "seed": (INTEGER, "--seed"),
    "u": (WEIGHT, None),
    "v": (WEIGHT, None),
    "N": (INTEGER, "--n"),
    "n": (INTEGER, "--n"),
    "p": (NUMBER, "--p"),
    "mode": (TEXT, "--mode"),
    "decompose": (BOOLEAN, "--decompose"),
    "alpha": (NUMBER, "--alpha"),  # parameters of the commands that build their own measure
    "beta": (NUMBER, "--beta"),
    "M": (NUMBER, None),
    "a": (NUMBER, None),
    "t": (NUMBER, None),
    "points": (NUMBERS, None),
    "f_poly": (NUMBERS, None),
    "quad_size": (INTEGER, None),
    "grid_size": (INTEGER, None),
    "symbol": (TEXT, None),
}

# every command also reads this
_COMMON = (("seed", 0),)

_POINTS = np.linspace(-0.9, 0.9, 7).tolist()
_POINT_HEADER = ("n", "x", "value")


def _sampled_params(degree):
    """Parameters of ``_sampled``; f_poly holds the coefficients of f, default 1 + x."""
    quad_size = ("quad_size", lambda spec, q: max(4 * q[degree], 64))
    return (quad_size, ("f_poly", [1.0, 1.0]), ("points", _POINTS))


def _probe_params(mode):
    grid_size = ("grid_size", lambda spec, q: max(3 * q["N"], 96))
    return (("mode", mode), ("p", 2.0), ("N", 60), grid_size)


def _first_mass(spec, q):
    return spec.mass_locations[0] if spec.masses else 0.0


COMMANDS = {
    "recurrence": Command(_recurrence, ("k", "alpha_k", "beta_k"), (("N", 10),)),
    "basis": Command(_basis, _POINT_HEADER, (("N", 10), ("points", _POINTS))),
    "kernel": Command(
        _kernel, _POINT_HEADER,
        (("n", 10), ("a", _first_mass), ("points", _POINTS), ("decompose", False)),
    ),
    "partial-sum": Command(_partial_sum, _POINT_HEADER, (("n", 10), *_sampled_params("n"))),
    "maximal": Command(_maximal, _POINT_HEADER, (("N", 10), *_sampled_params("N"))),
    "commutator": Command(
        _commutator, _POINT_HEADER,
        (("n", 10), *_sampled_params("n"), ("t", 0.3), ("symbol", "smooth_step")),
    ),
    "pollard": Command(
        _pollard, ("n", "x", "t_n", "w1", "w2", "w3"),
        (("n", 10), ("f_poly", [1.0, 1.0]),
         ("points", np.linspace(-0.8, 0.8, 7).tolist())),
    ),
    # the weight specs u and v are given only through --config, to the commands that read them
    "probe": Command(_probe_with_conditions, ("n", "estimate"),
                     (("u", None), ("v", None), *_probe_params("strong"), ("t", 0.3), ("symbol", "log_edge")),
                     modes=tuple(_PROBES)),
    # weak-probe runs the restricted-weak probe only, which takes no v; probe --mode runs the others
    "weak-probe": Command(_probe, ("n", "estimate"), (("u", None), *_probe_params("restricted-weak")),
                          modes=("restricted-weak",)),
    "laguerre-mass": Command(
        _laguerre_mass, ("n", "L_n00", "Q_n0", "r_n", "r_n_scaled"),
        (("alpha", 0.0), ("M", 1.0), ("N", 40)),
        measure=lambda q: MeasureSpec(LaguerreSpec(q["alpha"]), (MassPoint(0.0, q["M"]),)),
    ),
    "endpoints": Command(
        _endpoints, ("p0", "p1"), (("alpha", 0.0), ("beta", 0.0)),
        measure=lambda q: MeasureSpec(GenJacobiSpec(q["alpha"], q["beta"])),
    ),
    "check-conditions": Command(_check_conditions, ("label", "satisfied", "margin"),
                                (("u", None), ("v", None), ("p", 2.0))),
}


# ----------------------------------------------------------------------
# the runner


def _resolve(args, cfg, spec, params):
    """Each parameter from its flag, the config (its key's JSON type, kept as given) or its default, in order."""
    prm = {}
    for key, default in params:
        flag = getattr(args, key, None)
        if flag is not None:
            prm[key] = flag
        elif key in cfg:
            prm[key] = _KEYS[key][0].check(cfg[key], f"config key {key!r}")
        else:
            prm[key] = default(spec, prm) if callable(default) else default
    return prm


def _emit(args, name, header, config, data, rows):
    """Write the JSON payload or its CSV rows, to --out or stdout; reject NaN and inf first."""
    payload = {"schema_version": SCHEMA_VERSION, "command": name, "config": config, **data}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalBreakdown(f"{name} produced a NaN or infinite value") from exc
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema_version", SCHEMA_VERSION])
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_config_keys(name, cmd, cfg):
    """Every top-level config key must be one the command reads: seed, its parameters, measure."""
    known = [key for key, _ in _COMMON + cmd.params] + ["measure"]
    for key in cfg:
        if key not in known:
            raise SpecError(f"config key {key!r} is not read by {name}; it reads {', '.join(known)}")


def run_command(args):
    cmd = COMMANDS[args.command]
    cfg = _load_config(args.config)
    _check_config_keys(args.command, cmd, cfg)
    spec = None if cmd.measure else _build_measure(args, cfg)
    prm = _resolve(args, cfg, spec, _COMMON + cmd.params)
    if cmd.modes and prm["mode"] not in cmd.modes:
        raise SpecError(f"mode must be one of {cmd.modes}, got {prm['mode']!r}")
    if cmd.measure:
        spec = cmd.measure(prm)
        _check_own_measure(cfg, spec)
    data, rows = cmd.run(spec, prm)
    config = {key: value for key, value in prm.items() if value is not None}
    config["measure"] = measure_to_dict(spec)
    _emit(args, args.command, cmd.header, config, data, rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="masspoly",
        description="Orthonormal expansions for measures with mass points: probes and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if cmd.measure is None:
            p.add_argument("--base", choices=tuple(_BASES))
            p.add_argument("--alpha", type=float)
            p.add_argument("--beta", type=float)
            p.add_argument("--mass", action="append", metavar="LOC:MASS")
        for key, _ in _COMMON + cmd.params:
            kind, flag = _KEYS[key]
            if flag:
                keywords = {"choices": cmd.modes} if kind is TEXT else _FLAG_KEYWORDS[kind]
                p.add_argument(flag, dest=key, **keywords)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (MassPolyError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
