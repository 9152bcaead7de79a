"""The golden CLI panel: every command of ``tools/golden.py`` prints what ``tests/golden/`` recorded.

Exit codes, stderr, keys, ints, strings, bools and verdicts match exactly.
Floats match bit for bit: Python's JSON float repr round-trips, so equal
parsed floats are equal printed bytes.  Two bands are stated here, and no
other float gets one:

- At another OpenBLAS thread count, the strong p = 2 entries, gamma and fit
  residual (ROADMAP item 25).  Between 1 and 2 threads on the recorded
  machine, 3-11 entries of 4 such commands moved, by at most 6 ulps (u = v =
  (1-x)^5 at N = 200; 5 ulps, 1.1e-15 relative, on Legendre + delta_1 at
  N = 1000), and gamma and the fit residual by at most 2.8e-16 and 3.0e-16
  absolute.  The band is 16 ulps and 1e-15 absolute, about three times that.
- On another CPU model or OpenBLAS core, every float, within 1e-12 relative
  or 1e-14 absolute (for gamma and residuals near 0).  Whether another CPU's
  kernels move p != 2 floats is unmeasured, so this band is a stated choice:
  the dense reference's rtol in ``test_norms.py``.  The test warns when it
  applies.

The commands run in one ``python -S`` process whose search path holds numpy
and ``src`` alone, where scipy cannot be found, so the panel is also the
check that the CLI runs on numpy alone.  Before its output is compared, each
command named in ``CHECKS`` must pass its check of the right value on that
live output, so a golden file regenerated from a wrong value cannot hide it.

Regenerate the files with ``python tools/golden.py``; see README, "Tests".
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden  # noqa: E402

ENTRY_ULPS = 16
FIT_ABS = 1e-15
MACHINE_REL, MACHINE_ABS = 1e-12, 1e-14
_P2_ENTRY = re.compile(r"\.report\.entries\[\d+\]\[1\]")


def _thread_band(path, got, want):
    """Whether a strong p = 2 float is within the thread-count band of its recorded value."""
    if _P2_ENTRY.fullmatch(path):
        return abs(got - want) <= ENTRY_ULPS * math.ulp(want)
    return path in (".report.gamma", ".report.fit_residual") and abs(got - want) <= FIT_ABS


def _machine_band(path, got, want):
    return math.isclose(got, want, rel_tol=MACHINE_REL, abs_tol=MACHINE_ABS)


RECORDED = json.loads((golden.GOLDEN / "machine.json").read_text())
HERE = golden.machine()
OTHER_MACHINE = any(HERE[key] is None or HERE[key] != RECORDED[key] for key in ("cpu", "openblas_core"))


def _band(stdout):
    """The band this machine's floats get on ``stdout``, or None for bit-identity."""
    if OTHER_MACHINE:
        warnings.warn(f"the golden floats were printed on {RECORDED}, this is {HERE}: every float is compared "
                      f"within {MACHINE_REL:g} relative or {MACHINE_ABS:g} absolute")
        return _machine_band
    report = stdout.get("report", {}) if isinstance(stdout, dict) else {}
    if HERE["openblas_threads"] != RECORDED["openblas_threads"] and report.get("mode") == "strong" \
            and report.get("p") == 2.0:
        return _thread_band
    return None


def _match(got, want, band, path=""):
    """``got`` is ``want``: the same types, keys and lengths, and equal values, a float unless ``band`` takes it."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _match(got[key], want[key], band, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _match(a, b, band, f"{path}[{i}]")
    elif isinstance(want, float) and got != want:
        assert band is not None and band(path, got, want), (path, got, want)
    else:
        assert got == want, (path, got, want)


def _p2_gap(out):
    return max(abs(v - 1) for _, v in out["report"]["entries"])


def _convex(dec):
    return dec["residual"] < 1e-8 and abs(dec["total"] - 1) <= 1e-12 and all(
        0 < c < 1 for c in dec["coefficients"].values())


def _each(prefix, check):
    return {name: check for name, _, _ in golden.COMMANDS if name.startswith(prefix)}


# command name -> a check of the right value on its live stdout, given the live stdout of every command
CHECKS = {
    # S_n is an orthogonal projection of L^2(nu): every p = 2 entry is 1, also where Gauss weights underflow
    "ci_probe_hermite_p2": lambda out, live: _p2_gap(out) <= 1e-10,
    "ci_probe_laguerre_a05_p2": lambda out, live: _p2_gap(out) <= 1e-10,
    "probe_laguerre_p2_n60": lambda out, live: _p2_gap(out) <= 1e-8,
    "ci_probe_legendre_p2_n500": lambda out, live: _p2_gap(out) <= 1e-8,
    # the basis's own loss of orthonormality on this measure (ROADMAP item 17) sets the 1e-7 gap; 6.3e-9 measured
    "ci_probe_legendre_p2_n1000": lambda out, live: _p2_gap(out) <= 1e-7,
    # the restricted weak type of S_n holds at the endpoint p = 4
    **_each("weak_legendre_p4_n", lambda out, live: out["report"]["verdict"] == "bounded"),
    # without masses the decomposition is K_n alone, with coefficient 1
    "ci_kernel_without_masses": lambda out, live: out["decomposition"]["total"] == 1
    and out["decomposition"]["coefficients"] == {"": 1.0},
    # L_n is a convex combination of the modified kernels
    **_each("kernel_two_mass_n", lambda out, live: _convex(out["decomposition"])),
    # the endpoints of the largest exponents are finite: both read 2
    "ci_endpoints_largest_alpha": lambda out, live: out["p0"] == out["p1"] == 2,
    # a report's config replays it
    "ci_laguerre_mass_replay": lambda out, live: out == live["ci_laguerre_mass_a05"],
    # one line per factor (the two ends and the singularity) in each of the three blocks
    "ci_check_conditions_genjacobi": lambda out, live: len(out["conditions"]["lines"]) == 9,
}

PANEL = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import golden
from masspoly import opoly
from masspoly.errors import EigenFailure
records = {name: golden.run(argv, config) for name, argv, config in golden.COMMANDS}
loaded = [name for name in ("scipy", "scipy._lib._util", "numpy.ma", "fractions", "masspoly.oracle")
          if name in sys.modules]
has_scipy, fallback = importlib.util.find_spec("scipy") is not None, None
if not has_scipy:
    try:
        opoly._dsterf(())  # the binding of a numpy whose LAPACK exports no dsterf
    except EigenFailure as exc:
        fallback = str(exc)
print(json.dumps({"records": records, "loaded": loaded, "scipy": has_scipy, "fallback": fallback}))
"""


def _run_panel(*flags, path):
    """Every golden command's record from one fresh process, the modules it loaded of those the CLI must not
    load, whether it finds scipy, and the message of ``_dsterf``'s fallback where it does not."""
    proc = subprocess.run([sys.executable, *flags, "-c", PANEL, str(golden.ROOT / "tools")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def numpy_alone(tmp_path_factory):
    # python -S on a search path of numpy and src alone, where scipy cannot be found at all
    packages, site = Path(np.__file__).resolve().parents[1], tmp_path_factory.mktemp("site")
    for name in ("numpy", "numpy.libs"):  # numpy.libs holds the wheel's bundled LAPACK
        if (packages / name).exists():
            (site / name).symlink_to(packages / name)
    return _run_panel("-S", path=[site, golden.ROOT / "src"])


def test_the_golden_files_are_the_command_list():
    names = [name for name, _, _ in golden.COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(path.stem for path in golden.GOLDEN.glob("*.json")) == sorted(names + ["machine"])
    assert set(CHECKS) <= set(names)


@pytest.mark.parametrize("name", [name for name, _, _ in golden.COMMANDS])
def test_command_prints_its_golden_output(name, numpy_alone):
    got = numpy_alone["records"][name]
    if name in CHECKS:
        live = {other: record["stdout"] for other, record in numpy_alone["records"].items()}
        assert CHECKS[name](got["stdout"], live), f"{name} fails its check in CHECKS"
    want = json.loads((golden.GOLDEN / f"{name}.json").read_text())
    assert {key: got[key] for key in ("argv", "config", "exit", "stderr")} == \
        {key: want[key] for key in ("argv", "config", "exit", "stderr")}
    _match(got["stdout"], want["stdout"], _band(want["stdout"]))


def test_the_panel_runs_where_scipy_cannot_be_found(numpy_alone):
    assert not numpy_alone["scipy"]
    assert numpy_alone["loaded"] == [], f"the CLI loaded {numpy_alone['loaded']}"
    fallback = numpy_alone["fallback"]
    assert fallback is not None and "dsterf" in fallback and "scipy" in fallback


def test_cli_jobs_run_on_numpy_alone(numpy_alone):
    # with scipy installed no command loads it, numpy.ma, fractions or the rational oracle, and every command
    # prints the bytes it prints where scipy cannot be found
    panel = _run_panel(path=[golden.ROOT / "src"])
    assert panel["scipy"]
    assert panel["loaded"] == [], f"the CLI loaded {panel['loaded']}"
    assert panel["records"] == numpy_alone["records"]
