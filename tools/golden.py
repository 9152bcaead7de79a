"""The golden CLI panel: the exit code, stderr and stdout of a fixed list of commands.

    python tools/golden.py

takes no arguments.  It runs every command of ``COMMANDS`` through
``masspoly.cli.main`` in this one process and rewrites ``tests/golden/`` from
them: one ``NAME.json`` per command, with its argv, its --config text, exit
code, stderr and stdout (parsed, when it is JSON), and ``machine.json``, the
CPU model and the OpenBLAS core and thread count that printed the floats.
``tests/test_golden.py`` runs the same list, checks the right value of the
commands its ``CHECKS`` table names, and compares.  A change that
moves a golden value commits the rewritten files, and CHANGES.md lists every
value that moved.

The list holds the benchmark's ``cli_jobs`` commands at ``--seed 0``, the
``ci_`` commands, one or more per CLI command and per error it exits 2 or 3
on (named for the CI step that ran them before this panel did; one that
differs from a ``cli_jobs`` command only by ``--seed 0`` prints the same
bytes and is listed once), and the strong, commutator and maximal sweeps
at p = 1.5 and 3 on three measures at N = 40: weights u != v on Legendre plus
two atoms, Jacobi(0.5, -0.5)|x| + delta_1 and Laguerre + delta_0.
"""

import ctypes
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from masspoly import cli  # noqa: E402

GENJACOBI = ROOT / "perfbench" / "genjacobi_probe.json"
LEGENDRE_DELTA1 = "probe --base legendre --mass 1:1"
WEAK_DELTA1 = "weak-probe --base legendre --mass 1:1"
# measure -> its flags and config keys; the u != v weights are tests/test_norms.py's U and V
SWEEP_MEASURES = {
    "two_masses_uv": ("--base legendre --mass=-1:0.5 --mass 0.3:1", {"u": {"a": 0.3, "b": -0.2, "atMass": [2.0, 0.5]},
                                                                    "v": {"a": -0.25, "b": 0.4, "atMass": [0.7, 1.5]}}),
    "genjacobi_delta1": ("", {"measure": {"base": {"kind": "genjacobi", "alpha": 0.5, "beta": -0.5,
                                                   "singularities": [{"t": 0, "gamma": 1}]},
                                          "masses": [{"location": 1, "mass": 1}]}}),
    "laguerre_delta0": ("--base laguerre --mass 0:1", {}),
}

# (name, argv, the text of its --config file, the file itself, or None)
COMMANDS = [
    # the benchmark's cli_jobs
    *((f"{job}_n{n}", f"{argv} --n {n} --seed 0", None) for n in (100, 200, 400) for job, argv in (
        ("probe_legendre_p3", f"{LEGENDRE_DELTA1} --p 3"), ("weak_legendre_p4", f"{WEAK_DELTA1} --p 4"),
        ("kernel_two_mass", "kernel --base legendre --mass 0.3:1 --mass 1:1 --decompose"))),
    ("probe_genjacobi_p3_n100", "probe --p 3 --n 100 --seed 0", GENJACOBI),
    ("laguerre_mass_a0_n200", "laguerre-mass --alpha 0 --n 200 --seed 0", None),
    ("probe_laguerre_p2_n60", "probe --base laguerre --mass 0:1 --p 2 --n 60 --seed 0", None),
    # the ci_ commands
    ("ci_pollard_jacobi", "pollard --base jacobi --alpha 0.5 --beta -0.5 --mass=-1:0.5 --n 64", None),
    ("ci_kernel_hermite", "kernel --base hermite --mass 0.5:1 --decompose --n 30", None),
    ("ci_kernel_without_masses", "kernel --base legendre --n 8 --decompose", None),
    ("ci_partial_sum", "partial-sum --mass 0.3:1 --mass 1:1 --n 40", None),
    ("ci_maximal", "maximal --mass 0.3:1 --mass 1:1 --n 40", None),
    ("ci_commutator", "commutator --mass 0.3:1 --mass 1:1 --n 40", None),
    ("ci_recurrence_genjacobi_n200", "recurrence --n 200", GENJACOBI),
    ("ci_recurrence_genjacobi", "recurrence", GENJACOBI),
    ("ci_basis_jacobi", "basis --base jacobi --alpha 0.5 --beta -0.5 --mass=-1:0.5 --n 20", None),
    ("ci_endpoints", "endpoints --alpha 0.5 --beta -0.5", None),
    ("ci_endpoints_largest_alpha", "endpoints --alpha 1e308", None),
    *((f"ci_weak_legendre_n100_p{p}", f"{WEAK_DELTA1} --n 100 --p {p}", None) for p in ("1", "1.5", "6")),
    ("ci_weak_legendre_n100_p4_u", f"{WEAK_DELTA1} --n 100 --p 4", '{"u": {"a": 0.25}}'),
    ("ci_probe_hermite_p2", "probe --p 2 --base hermite --mass 0:1 --n 100", None),
    ("ci_probe_laguerre_a05_p2", "probe --p 2 --base laguerre --alpha 0.5 --mass 0:2 --n 60", None),
    ("ci_probe_legendre_p2_n500", f"{LEGENDRE_DELTA1} --p 2 --n 500", None),
    ("ci_probe_legendre_p2_n1000", f"{LEGENDRE_DELTA1} --p 2 --n 1000", None),
    ("ci_probe_legendre_p3_n1000", f"{LEGENDRE_DELTA1} --p 3 --n 1000", None),
    ("ci_probe_commutator_p3_n1000", "probe --mode commutator --mass 0.3:1 --p 3 --n 1000", None),
    ("ci_probe_maximal_p3_n1000", "probe --mode maximal --base legendre --mass 1:1 --p 3 --n 1000", None),
    ("ci_probe_p2_u5", f"{LEGENDRE_DELTA1} --p 2 --n 200", '{"u": {"a": 5}, "v": {"a": 5}}'),
    ("ci_check_conditions_genjacobi", "check-conditions --p 3",  # the genjacobi measure, with u and v
     '{"measure": {"base": {"kind": "genjacobi", "alpha": 0.5, "beta": -0.5, "singularities": [{"t": 0.0, '
     '"gamma": 1.0}]}, "masses": [{"location": -1.0, "mass": 0.5}, {"location": 0.3, "mass": 0.25}, '
     '{"location": 1.0, "mass": 0.5}]}, "u": {"a": 0.1, "g": [0.2]}, "v": {"b": -0.1, "g": [-0.1]}}'),
    ("ci_laguerre_mass_a05", "laguerre-mass --alpha 0.5 --n 20", None),
    ("ci_laguerre_mass_replay", "laguerre-mass",
     '{"M": 1.0, "N": 20, "alpha": 0.5, "measure": {"base": {"alpha": 0.5, "kind": "laguerre"}, '
     '"masses": [{"location": 0.0, "mass": 1.0}]}, "seed": 0}'),
    # exit 3: a NaN increment rho_n from degree 59 on, and NaN weak ratios from degree 164 on
    ("ci_probe_laguerre_p1.5_nan", "probe --base laguerre --mass 0:1 --p 1.5 --n 120", None),
    ("ci_weak_laguerre_p4_nan", "weak-probe --base laguerre --mass 0:1 --p 4 --n 400", None),
    # exit 2
    ("ci_laguerre_mass_hermite_measure", "laguerre-mass", '{"measure": {"base": {"kind": "hermite"}, "masses": []}}'),
    ("ci_kernel_unread_flag", "kernel --p 3 --n 5", None),
    ("ci_endpoints_base_flag", "endpoints --base jacobi --alpha 0.5", None),
    ("ci_recurrence_string_n", "recurrence", '{"N": "10"}'),
    ("ci_recurrence_infinite_mass", "recurrence --mass 0:inf --n 3", None),
    ("ci_endpoints_unbuildable", "endpoints --alpha -5 --beta 0", None),
    ("ci_basis_nan_point", "basis --n 3", '{"points": [NaN, 0.5]}'),
    ("ci_kernel_nan_a", "kernel --n 3", '{"a": NaN}'),
    ("ci_commutator_infinite_t", "commutator --mass 0.3:1 --n 3", '{"t": Infinity}'),
    ("ci_conditions_zero_weight_at_mass", "check-conditions --mass 0.3:1 --p 3", '{"u": {"atMass": [0]}}'),
    ("ci_recurrence_bool_alpha", "recurrence --n 3", '{"measure": {"base": {"kind": "genjacobi", "alpha": true}}}'),
    ("ci_conditions_string_g", "check-conditions --p 3",
     '{"measure": {"base": {"kind": "genjacobi", "singularities": [{"t": 0, "gamma": 1}]}}, "u": {"g": "12"}}'),
    ("ci_conditions_huge_p", "check-conditions", '{"p": 1' + "0" * 400 + "}"),
    ("ci_probe_hermite_commutator", "probe --base hermite --mode commutator --p 3 --n 20", None),
    ("ci_weak_probe_strong_mode", "weak-probe --mode strong --n 20", None),
    ("ci_recurrence_u", "recurrence --n 3", '{"u": {"a": 1}}'),
    ("ci_weak_probe_v", "weak-probe --n 20", '{"v": {"a": 0.25}}'),
    # the L^p sweeps at N = 40
    # the commutator sweeps take the smooth symbol, which is finite on every base
    *((f"sweep_{measure}_{mode}_p{p}", f"probe {flags} --mode {mode} --p {p} --n 40",
       json.dumps({**keys, "symbol": "smooth_step"} if mode == "commutator" else keys))
      for measure, (flags, keys) in SWEEP_MEASURES.items()
      for mode in ("strong", "commutator", "maximal") for p in ("1.5", "3")),
]


def machine():
    """The CPU model and the OpenBLAS core and thread count, each None where it cannot be read.

    OpenBLAS is asked through the handle of ``numpy.linalg._umath_linalg``, as
    ``masspoly.opoly._dsterf`` finds LAPACK, under the names of numpy >= 2
    wheels and of a plain OpenBLAS.
    """
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    found = {}
    for what, restype in (("corename", ctypes.c_char_p), ("num_threads", ctypes.c_int)):
        for name in (f"scipy_openblas_get_{what}64_", f"openblas_get_{what}"):
            if hasattr(lib, name):
                call = getattr(lib, name)
                call.argtypes, call.restype = (), restype
                found[what] = call()
                break
    core = found.get("corename")
    return {"cpu": cpu, "openblas_core": core.decode() if core else None, "openblas_threads": found.get("num_threads")}


def run(argv, config=None):
    """{argv, config, exit, stderr, stdout} of ``masspoly.cli.main`` on ``argv``, with ``config`` as its --config text.

    stdout is parsed when it is not empty.  Every warning goes to stderr as
    ``Category: message``, without the file and line Python would print, and
    COLUMNS is pinned, since argparse wraps its usage line to the terminal.
    """
    out, err = io.StringIO(), io.StringIO()
    args = argv.split()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"), \
            warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        if isinstance(config, Path):
            config = config.read_text()
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(config)
            args += ["--config", str(path)]
        try:
            code = cli.main(args)
        except SystemExit as exc:  # an argparse error
            code = exc.code
    stdout = out.getvalue()
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return {"argv": argv.split(), "config": config, "exit": code, "stderr": stderr,
            "stdout": json.loads(stdout) if stdout else stdout}


def failure(record):
    """The error type and message of a failing ``run`` record, which must keep the CLI's failure contract.

    It exits 2 or 3, writes nothing to stdout, and writes one ``Type: message``
    line to stderr, so a leaked warning, which ``run`` adds as a second line,
    breaks it.  An argparse error exits 2 with its usage and one ``PROG:
    error: message`` line; its type is ``usage`` and its message all of
    stderr after ``usage: ``.
    """
    assert record["exit"] in (2, 3), record["exit"]
    assert record["stdout"] == "", record["stdout"]
    stderr = record["stderr"]
    assert stderr.endswith("\n"), stderr
    *usage, last = stderr.splitlines()
    if usage:
        prog = last.partition(": error: ")[0]
        assert record["exit"] == 2 and usage[0].startswith(f"usage: {prog} ") and ": error: " in last, stderr
        assert all(line.startswith(" ") for line in usage[1:]), stderr
        return "usage", stderr[len("usage: "):-1]
    kind, sep, message = last.partition(": ")
    assert sep and kind.isidentifier(), stderr
    return kind, message


def main():
    records = {name: run(argv, config) for name, argv, config in COMMANDS}
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "machine.json").write_text(json.dumps(machine(), indent=1) + "\n")
    for name, record in records.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(COMMANDS)} commands and machine.json to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
