"""Batch experiment driver.

Every probe of the library is exposed as a subcommand taking either a JSON
config (--config) or direct flags, writing CSV or JSON.  JSON outputs carry a
schema_version field and embed the fully resolved config so reruns are
byte-identical given the same seed and inputs.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import norms, transforms
from .errors import MassPolyError, SpecError
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
    weight_to_dict,
)
from .opoly import basis_for, cd_kernel, kernel_decomposition, modified_bases
from .norms import make_grid

SCHEMA_VERSION = 1

_NUMERICAL_EXIT = 3
_VALIDATION_EXIT = 2


# ----------------------------------------------------------------------
# config plumbing


def _parse_mass(text: str) -> MassPoint:
    try:
        loc, mass = text.split(":")
        return MassPoint(float(loc), float(mass))
    except ValueError as exc:
        raise SpecError(f"mass must be given as location:mass, got {text!r}") from exc


def _load_config(args):
    if args.config is None:
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SpecError("config root must be a JSON object")
    return cfg


def _build_measure(args, cfg) -> MeasureSpec:
    if "measure" in cfg:
        return measure_from_dict(cfg["measure"])
    base_name = getattr(args, "base", None) or "legendre"
    alpha = getattr(args, "alpha", None) or 0.0
    beta = getattr(args, "beta", None) or 0.0
    if base_name == "legendre":
        base = GenJacobiSpec(0.0, 0.0)
    elif base_name == "jacobi":
        base = GenJacobiSpec(alpha, beta)
    elif base_name == "laguerre":
        base = LaguerreSpec(alpha)
    elif base_name == "hermite":
        base = HermiteSpec()
    else:
        raise SpecError(f"unknown base {base_name!r}")
    masses = tuple(_parse_mass(m) for m in (getattr(args, "mass", None) or []))
    spec = MeasureSpec(base, masses)
    from .measure import validate

    return validate(spec)


def _weights(cfg):
    u = weight_from_dict(cfg.get("u"))
    v = weight_from_dict(cfg.get("v"))
    return u, v


def _resolved(args, cfg, spec, extra=None):
    out = {
        "measure": measure_to_dict(spec),
        "seed": args.seed,
    }
    for key in ("u", "v"):
        if key in cfg:
            out[key] = cfg[key]
    if extra:
        out.update(extra)
    return out


def _emit(args, command, config, data_obj, rows, header):
    """Write the result: JSON object or bare CSV rows, to --out or stdout."""
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
        }
        payload.update(data_obj)
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema_version", SCHEMA_VERSION])
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x):
    return repr(float(x))


# ----------------------------------------------------------------------
# subcommands


def cmd_recurrence(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    N = args.n if args.n is not None else cfg.get("N", 10)
    rec = basis_for(spec, N, m=cfg.get("grid_size")).nu_rec
    rows = [(k, _fmt(rec.alphas[k]), _fmt(rec.betas[k])) for k in range(N)]
    data = {"rows": [[int(k), float(a), float(b)] for k, a, b in rows]}
    _emit(args, "recurrence", _resolved(args, cfg, spec, {"N": N}), data, rows, ["k", "alpha_k", "beta_k"])
    return 0


def cmd_basis(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    N = args.n if args.n is not None else cfg.get("N", 10)
    xs = np.asarray(cfg.get("points", np.linspace(-0.9, 0.9, 7).tolist()), dtype=float)
    basis = basis_for(spec, N, m=cfg.get("grid_size"))
    table = basis.eval_all(xs, N)
    rows = [
        (n, _fmt(x), _fmt(table[n, j]))
        for n in range(N + 1)
        for j, x in enumerate(xs)
    ]
    data = {"rows": [[int(n), float(x), float(v)] for n, x, v in rows]}
    _emit(args, "basis", _resolved(args, cfg, spec, {"N": N}), data, rows, ["n", "x", "value"])
    return 0


def cmd_kernel(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    n = args.n if args.n is not None else cfg.get("n", 10)
    a = cfg.get("a", spec.mass_locations[0] if spec.masses else 0.0)
    xs = np.asarray(cfg.get("points", np.linspace(-0.9, 0.9, 7).tolist()), dtype=float)
    basis = basis_for(spec, n, m=cfg.get("grid_size"))
    vals = cd_kernel(basis, n, xs, float(a))
    vals = np.atleast_1d(vals)
    rows = [(n, _fmt(x), _fmt(v)) for x, v in zip(xs, vals)]
    data = {"a": float(a), "rows": [[int(n), float(x), float(v)] for x, v in zip(xs, vals)]}
    if (cfg.get("decompose") or getattr(args, "decompose", False)) and spec.masses:
        mods = modified_bases(spec, n)
        dec = kernel_decomposition(basis, mods, n)
        data["decomposition"] = {
            "coefficients": {",".join(map(str, k)): float(c) for k, c in dec.coefficients.items()},
            "residual": dec.residual,
            "total": float(dec.total),
        }
    _emit(args, "kernel", _resolved(args, cfg, spec, {"n": n}), data, rows, ["n", "x", "value"])
    return 0


def _sample_function(cfg):
    """Test function from the config: polynomial coefficients, default 1 + x."""
    coefs = cfg.get("f_poly", [1.0, 1.0])
    return np.polynomial.Polynomial(np.asarray(coefs, dtype=float))


def cmd_partial_sum(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    n = args.n if args.n is not None else cfg.get("n", 10)
    basis = basis_for(spec, n, m=cfg.get("grid_size"))
    grid = make_grid(spec, cfg.get("quad_size", max(4 * n, 64)))
    f = grid.fn(_sample_function(cfg))
    xs = np.asarray(cfg.get("points", np.linspace(-0.9, 0.9, 7).tolist()), dtype=float)
    vals = transforms.partial_sum(basis, f, n, xs)
    rows = [(n, _fmt(x), _fmt(v)) for x, v in zip(xs, vals)]
    data = {"rows": [[int(n), float(x), float(v)] for x, v in zip(xs, vals)]}
    _emit(args, "partial-sum", _resolved(args, cfg, spec, {"n": n}), data, rows, ["n", "x", "value"])
    return 0


def cmd_maximal(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    N = args.n if args.n is not None else cfg.get("N", 10)
    basis = basis_for(spec, N, m=cfg.get("grid_size"))
    grid = make_grid(spec, cfg.get("quad_size", max(4 * N, 64)))
    f = grid.fn(_sample_function(cfg))
    xs = np.asarray(cfg.get("points", np.linspace(-0.9, 0.9, 7).tolist()), dtype=float)
    vals = transforms.maximal_op(basis, f, N, xs)
    rows = [(N, _fmt(x), _fmt(v)) for x, v in zip(xs, vals)]
    data = {"rows": [[int(N), float(x), float(v)] for x, v in zip(xs, vals)]}
    _emit(args, "maximal", _resolved(args, cfg, spec, {"N": N}), data, rows, ["n", "x", "value"])
    return 0


def cmd_commutator(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    n = args.n if args.n is not None else cfg.get("n", 10)
    basis = basis_for(spec, n, m=cfg.get("grid_size"))
    grid = make_grid(spec, cfg.get("quad_size", max(4 * n, 64)))
    f = grid.fn(_sample_function(cfg))
    symbols = norms.bmo_symbols(cfg.get("t", 0.3))
    b = symbols[cfg.get("symbol", "smooth_step")]
    xs = np.asarray(cfg.get("points", np.linspace(-0.9, 0.9, 7).tolist()), dtype=float)
    vals = transforms.commutator(basis, b, f, n, xs)
    rows = [(n, _fmt(x), _fmt(v)) for x, v in zip(xs, vals)]
    data = {"rows": [[int(n), float(x), float(v)] for x, v in zip(xs, vals)]}
    _emit(args, "commutator", _resolved(args, cfg, spec, {"n": n}), data, rows, ["n", "x", "value"])
    return 0


def cmd_pollard(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    n = args.n if args.n is not None else cfg.get("n", 10)
    nu_basis = basis_for(spec, n + 1, m=cfg.get("grid_size"))
    q_basis = transforms.q_basis_for(nu_basis)
    f = _sample_function(cfg)
    xs = np.asarray(cfg.get("points", np.linspace(-0.8, 0.8, 7).tolist()), dtype=float)
    parts = transforms.pollard_parts(nu_basis, q_basis, f, n, xs)
    rows = [
        (n, _fmt(x), _fmt(t), _fmt(w1), _fmt(w2), _fmt(w3))
        for x, t, w1, w2, w3 in zip(xs, parts.t_n, parts.w1, parts.w2, parts.w3)
    ]
    data = {
        "r": parts.r,
        "s": parts.s,
        "residual": parts.residual,
        "rows": [[int(n)] + [float(v) for v in row[1:]] for row in rows],
    }
    _emit(
        args, "pollard", _resolved(args, cfg, spec, {"n": n}), data, rows,
        ["n", "x", "t_n", "w1", "w2", "w3"],
    )
    return 0


_PROBE_MODES = ("strong", "weak", "restricted-weak", "maximal", "commutator")


def _probe_report(args, cfg, spec):
    mode = getattr(args, "mode", None) or cfg.get("mode", "strong")
    if mode not in _PROBE_MODES:
        raise SpecError(f"mode must be one of {_PROBE_MODES}, got {mode!r}")
    p = args.p if args.p is not None else cfg.get("p", 2.0)
    N = args.n if args.n is not None else cfg.get("N", 60)
    grid_size = cfg.get("grid_size", max(3 * N, 96))
    basis = basis_for(spec, N)
    grid = make_grid(spec, grid_size)
    u, v = _weights(cfg)
    if mode == "strong":
        rep = norms.strong_probe(basis, grid, p, u, v, N=N, seed=args.seed)
    elif mode == "maximal":
        rep = norms.maximal_probe(basis, grid, p, u, v, N=N, seed=args.seed)
    elif mode == "commutator":
        symbols = norms.bmo_symbols(cfg.get("t", 0.3))
        b = symbols[cfg.get("symbol", "log_edge")]
        rep = norms.commutator_probe(basis, grid, b, p, u, v, N=N, seed=args.seed)
    else:
        rep = norms.weak_type_probe(
            basis, grid, p, u, N=N, seed=args.seed, restricted=(mode == "restricted-weak")
        )
    return rep, p


def cmd_probe(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    rep, p = _probe_report(args, cfg, spec)
    data = {"report": rep.to_dict()}
    if isinstance(spec.base, GenJacobiSpec):
        u, v = _weights(cfg)
        try:
            cond = check_conditions(spec, u, v, p)
            data["conditions"] = cond.to_dict()
            data["agreement"] = cond.verdict == (rep.verdict == "bounded")
        except MassPolyError:
            pass
    rows = [(n, _fmt(v)) for n, v in rep.entries]
    _emit(args, "probe", _resolved(args, cfg, spec, {"p": p, "mode": rep.mode}), data, rows, ["n", "estimate"])
    return 0


def cmd_weak_probe(args):
    cfg = _load_config(args)
    cfg.setdefault("mode", "restricted-weak")
    spec = _build_measure(args, cfg)
    rep, p = _probe_report(args, cfg, spec)
    data = {"report": rep.to_dict()}
    rows = [(n, _fmt(v)) for n, v in rep.entries]
    _emit(args, "weak-probe", _resolved(args, cfg, spec, {"p": p, "mode": rep.mode}), data, rows, ["n", "estimate"])
    return 0


def cmd_laguerre_mass(args):
    cfg = _load_config(args)
    alpha = args.alpha if args.alpha is not None else cfg.get("alpha", 0.0)
    M = cfg.get("M", 1.0)
    N = args.n if args.n is not None else cfg.get("N", 40)
    ns, l_diag, q0, r, scaled = transforms.laguerre_mass_table(alpha, M, N)
    rows = [
        (int(n), _fmt(l), _fmt(q), _fmt(rv), _fmt(sv))
        for n, l, q, rv, sv in zip(ns, l_diag, q0, r, scaled)
    ]
    spec = MeasureSpec(LaguerreSpec(alpha), (MassPoint(0.0, M),))
    data = {"rows": [[row[0]] + [float(v) for v in row[1:]] for row in rows]}
    _emit(
        args, "laguerre-mass", _resolved(args, cfg, spec, {"alpha": alpha, "M": M, "N": N}),
        data, rows, ["n", "L_n00", "Q_n0", "r_n", "r_n_scaled"],
    )
    return 0


def cmd_endpoints(args):
    cfg = _load_config(args)
    alpha = args.alpha if args.alpha is not None else cfg.get("alpha", 0.0)
    beta = args.beta if args.beta is not None else cfg.get("beta", 0.0)
    p0, p1 = mean_convergence_endpoints(alpha, beta)
    spec = MeasureSpec(GenJacobiSpec(alpha, beta))
    data = {"p0": p0, "p1": p1}
    rows = [(_fmt(p0), _fmt(p1))]
    _emit(args, "endpoints", _resolved(args, cfg, spec, {"alpha": alpha, "beta": beta}), data, rows, ["p0", "p1"])
    return 0


def cmd_check_conditions(args):
    cfg = _load_config(args)
    spec = _build_measure(args, cfg)
    p = args.p if args.p is not None else cfg.get("p", 2.0)
    u, v = _weights(cfg)
    rep = check_conditions(spec, u, v, p)
    rows = [(ln.label, str(ln.satisfied).lower(), _fmt(ln.margin)) for ln in rep.lines]
    data = {"conditions": rep.to_dict()}
    _emit(args, "check-conditions", _resolved(args, cfg, spec, {"p": p}), data, rows, ["label", "satisfied", "margin"])
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="masspoly",
        description="Orthonormal expansions for measures with mass points: probes and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra_flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--base", choices=("legendre", "jacobi", "laguerre", "hermite"), default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--mass", action="append", default=None, metavar="LOC:MASS")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=float, default=None)
        for flag, kw in extra_flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("recurrence", cmd_recurrence)
    add("basis", cmd_basis)
    add("kernel", cmd_kernel, **{"--decompose": {"action": "store_true"}})
    add("partial-sum", cmd_partial_sum)
    add("maximal", cmd_maximal)
    add("commutator", cmd_commutator)
    add("pollard", cmd_pollard)
    add("probe", cmd_probe, **{"--mode": {"choices": _PROBE_MODES, "default": None}})
    add("weak-probe", cmd_weak_probe, **{"--mode": {"choices": _PROBE_MODES, "default": None}})
    add("laguerre-mass", cmd_laguerre_mass)
    add("endpoints", cmd_endpoints)
    add("check-conditions", cmd_check_conditions)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ArithmeticError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (MassPolyError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
