"""The three workloads: fixed job lists, their set-up and their output checks.

A job's ``run`` is the timed call into masspoly; its ``check`` runs afterwards,
untimed and untraced, and raises ``CheckFailed`` when the output is wrong.
Every check compares against something independent of the timed code (see
``references.py``): theory verdicts, closed forms, separately built Gauss
rules, the rational oracle, or the acceptance bounds of the paper's criteria.

``KNOWN_DEFECTS`` names the jobs that fail at the commit that defined this
benchmark, with the defect behind each.  They still run and still count as
failed; a failure of any other job makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref

HERE = Path(__file__).resolve().parent

KNOWN_DEFECTS = {
    "genjacobi_n400": "discretized Stieltjes recurrence departs from the reference from degree ~250 on",
    "kernel_two_mass_n400": "kernel decomposition fit is rank deficient (exit 3, IllConditionedFit)",
    "probe_laguerre_p2_n60": "Golub-Welsch weights on Laguerre grids overflow (exit 2)",
}

# gamma of each probe job, recorded at the commit that defined this benchmark
# (seeds 0-4 give the same gamma); a change that moves gamma by more than
# GAMMA_TOL changes the probe results, not only their speed.
GAMMA_TOL = 2e-3


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def combined(name, parts):
    """One job that runs several parts back to back and checks each part's output."""
    def check(outs):
        for part, out in zip(parts, outs):
            try:
                part.check(out)
            except CheckFailed as exc:
                raise CheckFailed(f"{part.name}: {exc}") from None

    return Job(name, lambda: [part.run() for part in parts], check)


@dataclass
class Workload:
    jobs: list
    warmup: Job


# ----------------------------------------------------------------------
# shared checks


def check_report(rep, verdict, gamma_ref=None):
    """Probe report as a dict: finite entries, the expected verdict, gamma near its reference."""
    vals = np.array([v for _, v in rep["entries"]], dtype=float)
    require(len(vals) > 0 and np.all(np.isfinite(vals)) and np.all(vals > 0),
            "probe entries must be finite and positive")
    require(rep["verdict"] == verdict, f"verdict {rep['verdict']}, expected {verdict}")
    if gamma_ref is not None:
        require(abs(rep["gamma"] - gamma_ref) <= GAMMA_TOL,
                f"gamma {rep['gamma']:.5f}, reference {gamma_ref:.5f}")


def check_projection(rep):
    """At p = 2 with unit weights every S_n is an orthogonal projection: norm exactly 1."""
    vals = np.array([v for _, v in rep["entries"]], dtype=float)
    require(np.all(np.abs(vals - 1.0) < 1e-8), f"p = 2 norms differ from 1 by {np.max(np.abs(vals - 1)):.2e}")


def check_weak_drift(rep, n):
    """Criterion 7: the restricted weak-type ratio settles (drift from n/2 to n under 15%)."""
    upto = lambda cap: max(v for k, v in rep["entries"] if k <= cap)
    drift = upto(n) / upto(n // 2) - 1.0
    require(abs(drift) < 0.15, f"weak-type drift {100 * drift:.1f}%")


def check_decomposition(coefficients, residual, total):
    """Criterion 3: L_n is a convex combination of the Christoffel-modified kernels."""
    require(residual < 1e-8, f"decomposition residual {residual:.2e}")
    require(abs(total - 1.0) < 1e-8, f"coefficients sum to {total!r}")
    require(all(0.0 < c < 1.0 for c in coefficients), "coefficient outside (0, 1)")


# ----------------------------------------------------------------------
# window_sweep: the paper's verdicts on one warm basis


WINDOW_GAMMA = {1.25: 0.18204, 1.5: 0.00994, 2.0: 0.0, 3.0: 0.0065, 4.0: 0.03792, 4.5: 0.06735}


def window_sweep(seed):
    from masspoly import MassPoint, PowerWeightSpec, check_conditions, legendre, norms, opoly

    N = 200
    spec = legendre([MassPoint(1.0, 1.0)])
    basis, grid = opoly.basis_for(spec, N), norms.make_grid(spec, 3 * N)
    spec8 = legendre([MassPoint(0.3, 1.0)])
    basis8, grid8 = opoly.basis_for(spec8, 120), norms.make_grid(spec8, 360)
    log_edge = norms.bmo_symbols()["log_edge"]
    window = ref.jacobi_window(0.0, 0.0)
    unit = PowerWeightSpec()

    def strong(p):
        def check(rep):
            rep = rep.to_dict()
            verdict = ref.expected_verdict(p, window)
            check_report(rep, verdict, WINDOW_GAMMA[p])
            conditions = check_conditions(spec, unit, unit, p).verdict
            require(conditions == (verdict == "bounded"), "check_conditions disagrees with the verdict")
            if p == 2.0:
                check_projection(rep)

        return Job(f"strong_p{p:g}", lambda: norms.strong_probe(basis, grid, p, N=N, seed=seed), check)

    def check_weak(rep):
        rep = rep.to_dict()
        check_report(rep, "bounded")
        check_weak_drift(rep, N)

    def check_maximal(rep):
        check_report(rep.to_dict(), ref.expected_verdict(3.0, window))
        require(check_conditions(spec, unit, unit, 3.0).verdict, "check_conditions disagrees")

    jobs = [strong(p) for p in WINDOW_GAMMA]
    jobs += [
        Job("weak_p4", lambda: norms.weak_type_probe(basis, grid, 4.0, N=N, seed=seed, restricted=True),
            check_weak),
        Job("maximal_p3", lambda: norms.maximal_probe(basis, grid, 3.0, N=N, seed=seed), check_maximal),
        Job("commutator_log_edge_p2",
            lambda: norms.commutator_probe(basis8, grid8, log_edge, 2.0, N=120, seed=seed),
            lambda rep: check_report(rep.to_dict(), "bounded")),
    ]
    return Workload(jobs, jobs[1])


# ----------------------------------------------------------------------
# basis_build: basis construction and many small evaluation calls


ORACLE_CONFIGS = [
    ((0.0, 0.0, ()), ()),
    ((1.0, 0.0, ()), ()),
    ((2.0, 1.0, ()), ()),
    ((0.0, 0.0, ((0.0, 2.0),)), ()),
    ((0.0, 0.0, ()), ((1.0, 1.0),)),
    ((0.0, 0.0, ()), ((-1.0, 0.5), (1.0, 0.5))),
    ((1.0, 1.0, ()), ((0.5, 0.25),)),
    ("laguerre", ((0.0, 1.0),)),
]


def basis_build(seed):
    from masspoly import (GenJacobiSpec, GridFunction, LaguerreSpec, LorentzIndex, MassPoint,
                          MeasureSpec, legendre, norms, opoly, transforms)
    from masspoly.oracle import oracle_orthonormal_coefficients

    def measure(base, masses):
        base = LaguerreSpec(0.0) if base == "laguerre" else GenJacobiSpec(*base)
        return MeasureSpec(base, tuple(MassPoint(a, m) for a, m in masses))

    masses = ref.CRITERION1_MASSES
    log_edge = norms.bmo_symbols()["log_edge"]
    jobs = []

    def genjacobi(alpha, beta, N, name, reference):
        spec = measure((alpha, beta, ((0.0, 1.0),)), masses)

        def check(basis):
            err = reference.recurrence_error(basis.rec.alphas, basis.rec.betas)
            require(err < 1e-10, f"recurrence off the reference by {err:.2e}")
            res = ref.gram_residual(basis.eval_all, N, reference.nodes, reference.weights, masses)
            require(res < 1e-10, f"Gram residual {res:.2e} on the reference rule")

        return Job(name, lambda: opoly.basis_for(spec, N), check)

    # criterion 1: nine generalized Jacobi measures with three masses, N = 50
    refs = {}
    for alpha, beta in itertools.product((-0.5, 0.0, 0.5), repeat=2):
        refs[alpha, beta] = ref.GenJacobiReference(alpha, beta, 400 if (alpha, beta) == (0.5, -0.5) else 50)
        jobs.append(genjacobi(alpha, beta, 50, f"criterion1_a{alpha:g}_b{beta:g}", refs[alpha, beta]))
    for N in (100, 200, 400):
        jobs.append(genjacobi(0.5, -0.5, N, f"genjacobi_n{N}", refs[0.5, -0.5]))

    # criterion 2: rational oracle at N = 10, and one mpmath build at N = 12
    def oracle_job(name, spec, N, high_precision=False):
        exact = oracle_orthonormal_coefficients(spec, N)
        scale = np.abs(exact).max(axis=1)[:, None]

        def check(coef):
            err = float(np.max(np.abs(coef[: N + 1, : N + 1] - exact) / scale))
            require(err < 1e-12, f"relative coefficient error {err:.2e} against the oracle")

        run = lambda: opoly.monomial_coefficients(opoly.basis_for(spec, N, high_precision=high_precision))
        return Job(name, run, check)

    jobs.append(combined("oracle_n10", [oracle_job(f"oracle_{i}", measure(base, ms), 10)
                                        for i, (base, ms) in enumerate(ORACLE_CONFIGS)]))
    jobs.append(oracle_job("oracle_mp_n12", measure(ORACLE_CONFIGS[3][0], ()), 12, high_precision=True))

    # criterion 3: kernel decomposition over Christoffel-modified measures, n <= 30
    def decomposition(name, spec, k):
        def run():
            basis, mods = opoly.basis_for(spec, 30), opoly.modified_bases(spec, 30)
            return [opoly.kernel_decomposition(basis, mods, n) for n in range(k, 31)]

        def check(decs):
            for dec in decs:
                check_decomposition(dec.coefficients.values(), dec.residual, dec.total)

        return Job(name, run, check)

    jobs.append(decomposition("decomposition_k1", legendre([MassPoint(1.0, 1.0)]), 1))
    jobs.append(decomposition("decomposition_k2", legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 1.0)]), 2))

    # criterion 4: kernel envelopes settle from N = 100 to 200
    def envelope(a):
        def check(sups):
            require(np.all(np.isfinite(sups)), "non-finite envelope ratio")
            drift = sups[200] / sups[100] - 1.0
            require(drift < 0.10, f"envelope drift {100 * drift:.1f}%")

        spec = legendre([MassPoint(a, 1.0)])
        run = lambda: opoly.kernel_envelope_ratio(opoly.basis_for(spec, 200), a, 200)
        return Job(f"envelope_a{a:g}", run, check)

    jobs.append(combined("envelope", [envelope(1.0), envelope(0.3)]))

    # criterion 5: Pollard split reconstructs T_n f; r_n -> -1/2, s_n -> 1/2
    def pollard():
        nu = opoly.basis_for(legendre([MassPoint(1.0, 1.0)]), 42)
        q = transforms.q_basis_for(nu)
        f = np.polynomial.Polynomial([0.3, -1.0, 0.0, 0.4, 0.0, -0.2])
        x = np.linspace(-0.85, 0.85, 15)
        parts = [transforms.pollard_parts(nu, q, f, n, x) for n in (5, 10, 20, 30, 40)]
        return parts, transforms.fit_pollard_coefficients(nu, q, 40)

    def check_pollard(out):
        parts, (r40, s40, _) = out
        worst = max(p.residual for p in parts)
        require(worst < 1e-8, f"Pollard reconstruction residual {worst:.2e}")
        require(abs(r40 + 0.5) < 0.05 and abs(s40 - 0.5) < 0.05, f"r_40 = {r40:.4f}, s_40 = {s40:.4f}")

    jobs.append(Job("pollard", pollard, check_pollard))

    # criterion 8: the Psi split of the commutator with log(1 - x)
    def psi_split():
        mu = opoly.basis_for(legendre(), 22)
        f = np.polynomial.Polynomial([1.0, 0.5, -0.25, 0.0, 0.1])
        return transforms.commutator_psi_parts(mu, transforms.q_basis_for(mu), log_edge, f, 20,
                                               np.linspace(-0.8, 0.8, 9), b_singularities=(1.0,))

    def check_psi(parts):
        resid = float(np.max(np.abs(parts.reconstruction - parts.direct)))
        require(resid < 1e-7, f"Psi-split residual {resid:.2e}")

    jobs.append(Job("psi_split", psi_split, check_psi))

    # criterion 9: Laguerre with a mass at the origin against closed forms
    def laguerre(alpha):
        diag = ref.laguerre_mass_diagonal(alpha, 1.0, 200)
        q0 = ref.laguerre_q_at_zero(alpha, 200)

        def check(out):
            (ns, l_diag, q_lib, r, scaled), qvals = out
            err = float(max(np.max(np.abs(l_diag / diag - 1.0)), np.max(np.abs(q_lib / q0 - 1.0))))
            require(err < 1e-10, f"L_n(0,0) or Q_n(0) off the closed form by {err:.2e}")
            require(float(np.max(np.abs(qvals[:, 0] - q0[:31]))) < 1e-9, "Q_n(0) off the closed form")
            require(np.allclose(r, diag / q0, rtol=1e-10, atol=0), "r_n != L_n(0,0) / Q_n(0)")
            band = scaled[20:201]
            require(np.max(band) / np.min(band) < 3.0, "r_n n^{(alpha+1)/2} leaves its band")

        run = lambda: (transforms.laguerre_mass_table(alpha, 1.0, 200),
                       transforms.laguerre_q_values(alpha, 30, 0.0))
        return Job(f"laguerre_mass_a{alpha:g}", run, check)

    jobs.append(combined("laguerre_mass", [laguerre(0.0), laguerre(1.0)]))

    # criterion 10: Lorentz norms of indicators and nesting, on seeded random inputs
    spec10 = legendre([MassPoint(0.3, 1.0)])
    m10 = 241  # 240 Gauss nodes plus the atom
    rng = np.random.default_rng(seed)
    masks = [rng.random(m10) < rng.uniform(0.05, 0.9) for _ in range(60)]
    for mask in masks:
        mask[0] |= not mask.any()
    funcs = [rng.standard_normal(m10) * (1.0 + 10 * rng.random(m10)) for _ in range(100)]
    indices = [(4.0, 1.0)] * 20 + [(4.0, math.inf)] * 20 + [(2.0, 2.0)] * 20

    def lorentz():
        grid = norms.make_grid(spec10, 240)
        sets = [(grid.weights[mask].sum(), p,
                 norms.lorentz_norm(GridFunction(grid, mask.astype(float)), LorentzIndex(p, r)))
                for mask, (p, r) in zip(masks, indices)]
        nested = [[norms.lorentz_norm(GridFunction(grid, f), LorentzIndex(4.0, r))
                   for r in (1.0, 4.0, math.inf)] for f in funcs]
        return sets, nested

    def check_lorentz(out):
        sets, nested = out
        worst = max(abs(val - mass ** (1.0 / p)) for mass, p, val in sets)
        require(worst < 1e-12, f"||chi_E||_(p,r) != nu(E)^(1/p) by {worst:.2e}")
        bad = sum(not (c <= b * (1 + 1e-12) and b <= a * (1 + 1e-12)) for a, b, c in nested)
        require(bad == 0, f"{bad} Lorentz nesting violations")

    jobs.append(Job("lorentz", lorentz, check_lorentz))
    return Workload(jobs, jobs[4])


# ----------------------------------------------------------------------
# cli_jobs: one fresh CLI process per job


PAYLOAD_KEYS = {
    "probe": {"agreement", "command", "conditions", "config", "report", "schema_version"},
    "probe-laguerre": {"command", "config", "report", "schema_version"},
    "weak-probe": {"command", "config", "report", "schema_version"},
    "kernel": {"a", "command", "config", "decomposition", "rows", "schema_version"},
    "laguerre-mass": {"command", "config", "rows", "schema_version"},
}

PROBE_GAMMA = {100: 0.0077, 200: 0.0065, 400: 0.00525}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    trace: str | None


def run_cli(argv, env, cwd, traced, timeout=60):
    """Run one CLI command in a fresh interpreter; traced runs go through cli_runner.py."""
    from cli_runner import TRACE_PREFIX

    head = [sys.executable, str(HERE / "cli_runner.py")] if traced else [sys.executable, "-m", "masspoly.cli"]
    proc = subprocess.run(head + argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    stderr, trace = proc.stderr, None
    cut = stderr.rfind(TRACE_PREFIX)
    if cut >= 0:
        stderr, trace = stderr[:cut], stderr[cut + len(TRACE_PREFIX):]
    return CliResult(proc.returncode, proc.stdout, stderr, trace)


def cli_payload(res, kind):
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    require(res.code == 0, f"exit {res.code}: {tail[0]}")
    doc = json.loads(res.stdout)
    require(set(doc) == PAYLOAD_KEYS[kind], f"payload fields {sorted(doc)}")
    return doc


def cli_jobs(seed, env, cwd, tracing):
    """``tracing()`` says whether the current pass is traced."""
    legendre_mass = ["--base", "legendre", "--mass", "1:1"]
    two_masses = ((0.3, 1.0), (1.0, 1.0))
    jobs = []

    def add(name, argv, check):
        argv = argv + ["--seed", str(seed)]
        jobs.append(Job(name, lambda: run_cli(argv, env, cwd, tracing()), check))

    window = ref.jacobi_window(0.0, 0.0)
    for n in (100, 200, 400):
        def check_probe(res, n=n):
            doc = cli_payload(res, "probe")
            check_report(doc["report"], ref.expected_verdict(3.0, window), PROBE_GAMMA[n])
            require(doc["conditions"]["verdict"] and doc["agreement"], "check_conditions disagrees")

        def check_weak(res, n=n):
            rep = cli_payload(res, "weak-probe")["report"]
            require(rep["mode"] == "restricted-weak", f"mode {rep['mode']}")
            check_report(rep, "bounded")
            check_weak_drift(rep, n)

        def check_kernel(res, n=n):
            doc = cli_payload(res, "kernel")
            rows = np.array(doc["rows"], dtype=float)
            exact = ref.legendre_mass_kernel(n, rows[:, 1], [doc["a"]], two_masses)[:, 0]
            err = float(np.max(np.abs(rows[:, 2] - exact)) / np.max(np.abs(exact)))
            require(err < 1e-9, f"kernel values off the closed form by {err:.2e}")
            dec = doc["decomposition"]
            check_decomposition(dec["coefficients"].values(), dec["residual"], dec["total"])

        add(f"probe_legendre_p3_n{n}", ["probe", *legendre_mass, "--p", "3", "--n", str(n)], check_probe)
        add(f"weak_legendre_p4_n{n}", ["weak-probe", *legendre_mass, "--p", "4", "--n", str(n)], check_weak)
        add(f"kernel_two_mass_n{n}",
            ["kernel", "--base", "legendre", "--mass", "0.3:1", "--mass", "1:1", "--decompose",
             "--n", str(n)],
            check_kernel)

    def check_genjacobi(res):
        doc = cli_payload(res, "probe")
        verdict = ref.expected_verdict(3.0, ref.jacobi_window(0.5, -0.5))
        check_report(doc["report"], verdict, 0.04617)
        require(doc["conditions"]["verdict"] == (verdict == "bounded") and doc["agreement"],
                "check_conditions disagrees")

    add("probe_genjacobi_p3_n100",
        ["probe", "--config", str(HERE / "genjacobi_probe.json"), "--p", "3", "--n", "100"],
        check_genjacobi)

    diag, q0 = ref.laguerre_mass_diagonal(0.0, 1.0, 200), ref.laguerre_q_at_zero(0.0, 200)

    def check_laguerre_mass(res):
        rows = np.array(cli_payload(res, "laguerre-mass")["rows"], dtype=float)
        require(np.array_equal(rows[:, 0], np.arange(201)), "rows must cover n = 0..200")
        err = float(max(np.max(np.abs(rows[:, 1] / diag - 1)), np.max(np.abs(rows[:, 2] / q0 - 1))))
        require(err < 1e-10, f"L_n(0,0) or Q_n(0) off the closed form by {err:.2e}")
        band = rows[20:, 4]
        require(np.max(band) / np.min(band) < 3.0, "r_n n^{1/2} leaves its band")

    add("laguerre_mass_a0_n200", ["laguerre-mass", "--alpha", "0", "--n", "200"], check_laguerre_mass)

    def check_laguerre_probe(res):
        rep = cli_payload(res, "probe-laguerre")["report"]
        check_report(rep, "bounded")
        check_projection(rep)

    add("probe_laguerre_p2_n60", ["probe", "--base", "laguerre", "--mass", "0:1", "--p", "2", "--n", "60"],
        check_laguerre_probe)
    return Workload(jobs, jobs[0])
