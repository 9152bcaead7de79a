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

Regenerate the files with ``python tools/golden.py``; see README, "Tests".
"""

import json
import math
import re
import sys
import warnings
from pathlib import Path

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


def test_the_golden_files_are_the_command_list():
    names = [name for name, _, _ in golden.COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(path.stem for path in golden.GOLDEN.glob("*.json")) == sorted(names + ["machine"])


@pytest.mark.parametrize("name, argv, config", golden.COMMANDS, ids=[name for name, _, _ in golden.COMMANDS])
def test_command_prints_its_golden_output(name, argv, config):
    want = json.loads((golden.GOLDEN / f"{name}.json").read_text())
    got = golden.run(argv, config)
    assert {key: got[key] for key in ("argv", "config", "exit", "stderr")} == \
        {key: want[key] for key in ("argv", "config", "exit", "stderr")}
    _match(got["stdout"], want["stdout"], _band(want["stdout"]))
