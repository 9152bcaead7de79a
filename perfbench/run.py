"""Benchmark harness for masspoly: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload window_sweep --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24   # all three, one table

Run from the root of a checkout; the library is imported from ``src/``.

Workloads (see ``workloads.py``):
  window_sweep  in-process, warm: the paper's probe verdicts on dense operators
  basis_build   in-process, warm: basis construction and small evaluation calls
  cli_jobs      one fresh ``python -m masspoly.cli`` process per job

A run does a fixed number of passes over the workload's job list,
ceil(seconds / NOMINAL_PASS_S) and at least 2, so every run with the same
``--seconds`` measures the same work.  Each job's output is checked after it
finishes, outside the timed region.

``--trace 0`` prints the end-to-end metrics:
  setup_s      median over SETUP_SAMPLES fresh processes of the time from process
               start to ready-for-the-first-timed-job (import, references, warm-up job)
  wall_s       median time of one pass (the sum of its job latencies)
  peak_rss_mb  peak resident memory of the process (cli_jobs: of the largest child)
and, on the ``info`` line and in the printed table but not in the result's
metrics (their run-to-run spread is too wide for a regression bound):
  job_p50_s    median job latency over all passes
  job_tail_s   latency with exactly 10 samples above it (its percentile is printed)
  fail_ratio   failed / attempted
``--trace 1`` runs the first half of the passes untraced and the rest with
every masspoly layer wrapped (``tracing.py``), and prints per-layer metrics:
self times and counts per traced pass (medians over traced passes).  Every
span (layer, start, end, parent, job) is written to .perfbench/ at the end.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("window_sweep", "basis_build", "cli_jobs")
# Seconds per pass on a 2-vCPU Xeon VM at the library's default threading (2 BLAS threads).
NOMINAL_PASS_S = {"window_sweep": 5.1, "basis_build": 2.0, "cli_jobs": 13.0}
# Set-up samples are spread over the run, so their median sees the machine as the passes do.
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60

SELF_TIME_LAYERS = (
    "opoly.recurrence", "opoly.recurrence_mp", "opoly.mass_update", "opoly.gauss_points",
    "opoly.eval_all", "opoly.kernel_decomposition", "kernels.recurrence_table",
    "norms.make_grid", "norms.operator_matrix", "norms.operator_norm", "norms.probe",
    "norms.lorentz", "transforms.hilbert", "transforms.pollard", "transforms.laguerre",
)
COUNTS = {
    "opoly.recurrence.calls": "count", "opoly.recurrence.quad_rules": "count",
    "opoly.gauss_points.calls": "count", "opoly.eval_all.calls": "count",
    "opoly.eval_all.cells": "count", "kernels.recurrence_table.cells": "count",
    "norms.operator_matrix.calls": "count", "norms.operator_matrix.bytes": "B",
    "norms.operator_norm.calls": "count", "norms.lorentz.calls": "count",
    "transforms.hilbert.calls": "count", "opoly.basis.calls": "count",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_masspoly():
    """Import masspoly.cli from this checkout; return the import time in seconds."""
    t0 = perf_counter()
    import masspoly.cli

    elapsed = perf_counter() - t0
    if Path(masspoly.__file__).resolve().parent != SRC / "masspoly":
        raise ImportError(f"masspoly imported from {masspoly.__file__}, not from {SRC}")
    return elapsed


def build(name, seed, tracing=lambda: False):
    import workloads

    if name == "window_sweep":
        return workloads.window_sweep(seed)
    if name == "basis_build":
        return workloads.basis_build(seed)
    return workloads.cli_jobs(seed, child_env(), str(ROOT), tracing)


# ----------------------------------------------------------------------
# machine facts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads(pkg):
    """Thread count reported by the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import mpmath
    import numpy
    import scipy

    from masspoly._kernels import HAVE_NUMBA

    blas = {}
    for pkg in (numpy, scipy):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[pkg.__name__] = {"vendor": info.get("name"), "version": info.get("version"),
                              "threads": _openblas_threads(pkg)}
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "numba": importlib.util.find_spec("numba") is not None,
        "masspoly_backend": "numba" if HAVE_NUMBA else "numpy",
    }


# ----------------------------------------------------------------------
# set-up


def setup_only(args):
    """Do one set-up and report when it is done, for the parent to time."""
    if args.workload != "cli_jobs":
        import_masspoly()
    wl = build(args.workload, args.seed)
    run_job(wl.warmup)
    print("ready", monotonic(), flush=True)
    return 0


def setup_sample(args):
    """Seconds from spawning a fresh process to it being ready for the first timed job."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(words[1]) - t0


# ----------------------------------------------------------------------
# passes


def run_job(job, tracer=None, job_id=None):
    """Run and check one job; return (latency in seconds, failure message or None)."""
    if tracer is not None:
        tracer.job = job_id
    t0 = perf_counter()
    try:
        out = job.run()
        error = None
    except Exception as exc:  # a job that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if tracer is not None:
        from workloads import CliResult

        tracer.job = None
        if isinstance(out, CliResult) and out.trace:
            tracer.merge(json.loads(out.trace), job_id)
    if error is None:
        try:
            job.check(out)
        except Exception as exc:  # a wrong answer counts as failed
            error = f"{type(exc).__name__}: {exc}"
    return elapsed, error


def order_stat_tail(values):
    """(value with exactly TAIL_BEYOND samples above it, its percentile, sample count)."""
    vals = sorted(values)
    n = len(vals)
    k = max(0, n - TAIL_BEYOND - 1)
    return vals[k], math.floor(100 * (k + 1) / n), n


def per_layer(tracer, names, traced, untraced, import_s):
    """Per-layer metrics: medians over the traced passes, given as (pass, wall) pairs."""
    from tracing import layer_totals

    rows = []
    for p, wall in traced:
        self_s, counts = layer_totals(tracer, [f"{p}/{n}" for n in names])
        row = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
        row.update({key: counts.get(key, 0) for key in COUNTS})
        row["cli.main.self_s"] = self_s.get("cli.main", 0.0)
        cells = counts.get("kernels.recurrence_table.cells", 0)
        busy = self_s.get("kernels.recurrence_table", 0.0)
        row["kernels.recurrence_table.mcell_per_s"] = cells / busy / 1e6 if busy > 0 else 0.0
        row["trace.unattributed_s"] = wall - sum(self_s.values())
        rows.append(row)
    metrics = {key: (statistics.median(r[key] for r in rows), unit_of(key)) for key in rows[0]}
    metrics["cli.import_s"] = (import_s, "s")
    overhead = statistics.median(w for _, w in traced) - statistics.median(w for _, w in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def unit_of(key):
    if key in COUNTS:
        return COUNTS[key]
    return "Mcell/s" if key.endswith("mcell_per_s") else "s"


def run_workload(args):
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    in_process = args.workload != "cli_jobs"
    import_s = import_masspoly() if in_process else None
    traced_now = [False]
    wl = build(args.workload, args.seed, lambda: traced_now[0])
    run_job(wl.warmup)

    passes = max(2, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    first_traced = passes // 2 if args.trace else passes
    latencies, failures, walls, traced = {job.name: [] for job in wl.jobs}, [], [], []
    setup = []
    sample_before = [] if args.trace else [i * passes // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    for p in range(passes):
        setup += [setup_sample(args) for _ in range(sample_before.count(p))]
        if p == first_traced:
            traced_now[0] = True
            if in_process:
                tracer.install()
        wall = 0.0
        for job in wl.jobs:
            elapsed, error = run_job(job, tracer if traced_now[0] else None, f"{p}/{job.name}")
            wall += elapsed
            latencies[job.name].append(elapsed)
            if error is not None:
                failures.append((p, job.name, error))
        (traced if traced_now[0] else walls).append((p, wall))
    if tracer is not None:
        tracer.uninstall()

    from workloads import KNOWN_DEFECTS

    every = [t for ts in latencies.values() for t in ts]
    attempted, failed = len(every), len(failures)
    unknown = sorted({name for _, name, _ in failures if name not in KNOWN_DEFECTS})
    if args.trace:
        if not in_process:
            imports = [end - start for layer, start, end, _, _ in tracer.spans if layer == "cli.import"]
            import_s = statistics.median(imports)
        metrics = per_layer(tracer, list(latencies), traced, walls, import_s)
        spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps(tracer.to_dict()))
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        tail, pct, n = order_stat_tail(every)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(w for _, w in walls), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
        latency = {"job_p50_s": statistics.median(every), "job_tail_s": tail}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes} x {len(wl.jobs)} jobs")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  spans written to {spans_file}")
    else:
        for key, value in latency.items():
            print(f"  {key:40s} {value:14.6g} s")
        print(f"  job_tail_s is p{pct} of {n} job latencies; setup samples {[round(s, 4) for s in setup]}")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")
    for p, name, error in failures:
        note = f"known defect: {KNOWN_DEFECTS[name]}" if name in KNOWN_DEFECTS else "NEW FAILURE"
        print(f"  FAILED pass {p} {name}: {error} [{note}]")
    info = {"workload": args.workload, "seed": args.seed, "passes": passes, "jobs_per_pass": len(wl.jobs),
            "pass_walls": [round(w, 4) for _, w in walls + traced],
            "job_medians": {name: round(statistics.median(ts), 5) for name, ts in latencies.items()},
            "fail_ratio": failed / attempted, "unexpected_failures": unknown, "machine": machine_facts()}
    if not args.trace:
        info.update(latency, job_tail_percentile=f"p{pct}", job_tail_samples=n, setup_samples=setup)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Run every workload in its own process and print one table with units."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
        for key in ("job_p50_s", "job_tail_s"):
            if key in info:
                res["metrics"][key] = {"value": info[key], "unit": "s"}
        res["metrics"]["fail_ratio"] = {"value": info["fail_ratio"], "unit": "ratio"}
        results[name] = res
    keys = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':40s} {'unit':8s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for key in keys:
        unit = results[WORKLOADS[0]]["metrics"][key]["unit"]
        values = "".join(f"{results[w]['metrics'][key]['value']:16.6g}" for w in WORKLOADS)
        print(f"{key:40s} {unit:8s}{values}")
    print("correct " + " ".join(f"{w}={results[w]['correct']}" for w in WORKLOADS))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "masspoly" / "__init__.py").is_file():
        print(f"error: no masspoly sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
