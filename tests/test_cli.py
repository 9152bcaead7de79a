import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from masspoly import GenJacobiSpec, LaguerreSpec, MassPoint, MeasureSpec, legendre
from masspoly.cli import _COMMON, COMMANDS, build_parser
from masspoly.measure import measure_to_dict
from masspoly.opoly import classical_recurrence
from masspoly.oracle import oracle_recurrence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden  # noqa: E402

LEGENDRE_MASS = "--base legendre --mass 1:1"
LEGENDRE_INNER_MASS = "--base legendre --mass 0.3:1"
GENJACOBI_MEASURE = {
    "base": {"kind": "genjacobi", "alpha": 0.5, "beta": -0.5, "singularities": [{"t": 0.0, "gamma": 1.0}]},
    "masses": [{"location": -1.0, "mass": 0.5}, {"location": 1.0, "mass": 0.5}],
}


def _output(record):
    """The stdout of a ``golden.run`` record of a command that succeeds: exit 0 and nothing on stderr."""
    assert (record["exit"], record["stderr"]) == (0, ""), record
    return record["stdout"]


def test_recurrence_legendre():
    doc = _output(golden.run("recurrence --base legendre --n 10"))
    assert doc["schema_version"] == 1
    assert doc["command"] == "recurrence"
    rows = doc["rows"]
    assert rows[0][1] == pytest.approx(0.0)
    assert rows[0][2] == pytest.approx(2.0)
    assert rows[1][2] == pytest.approx(1.0 / 3.0)


def test_recurrence_with_mass_total_mass():
    doc = _output(golden.run("recurrence --base legendre --mass 1:1 --n 5"))
    assert doc["rows"][0][2] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("flags, spec", [
    ("--base legendre --mass 1:1", legendre([MassPoint(1.0, 1.0)])),
    ("--base legendre --mass=-1:0.5 --mass 1:0.5", legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 0.5)])),
    ("--base jacobi --alpha 1 --beta 1 --mass 0.5:0.25", MeasureSpec(GenJacobiSpec(1.0, 1.0), (MassPoint(0.5, 0.25),))),
    ("--base laguerre --mass 0:1", MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))),
])
def test_recurrence_with_masses_matches_oracle(flags, spec):
    rows = np.array(_output(golden.run(f"recurrence {flags} --n 10"))["rows"])
    al, be = oracle_recurrence(spec, 10)
    assert list(rows[:, 0]) == list(range(10))
    np.testing.assert_allclose(rows[:, 1], al[:10], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rows[:, 2], be[:10], rtol=1e-12, atol=0)


def test_json_output_is_deterministic(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for target in (first, second):
        _output(golden.run(f"recurrence --base legendre --n 8 --format json --out {target}"))
    assert first.read_bytes() == second.read_bytes()


def test_csv_output_carries_schema_version(tmp_path):
    target = tmp_path / "rec.csv"
    _output(golden.run(f"recurrence --base legendre --n 4 --format csv --out {target}"))
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[1].split(",")[0] == "k"


def test_out_file_written(tmp_path):
    target = tmp_path / "rec.json"
    assert _output(golden.run(f"recurrence --base legendre --n 4 --out {target}")) == ""
    text = target.read_text()
    assert json.loads(text)["command"] == "recurrence"
    # the golden panel compares parsed output, so the bytes of the layout are pinned here
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_kernel_decompose_flag():
    dec = _output(golden.run("kernel --base legendre --mass 0.3:1 --n 8 --decompose"))["decomposition"]
    assert dec["residual"] < 1e-8
    assert dec["total"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("base", ["legendre", "hermite"])
def test_kernel_decompose_without_masses_is_the_one_kernel(base):
    # with no mass the decomposition is K_n alone, whose coefficient (on the empty set of masses) is 1
    doc = _output(golden.run(f"kernel --base {base} --n 8 --decompose"))
    assert doc["config"]["decompose"] is True
    dec = doc["decomposition"]
    assert dec["coefficients"] == {"": 1.0} and dec["total"] == 1.0
    assert dec["residual"] < 1e-14


def test_partial_sum_and_maximal_run():
    for cmd in ("partial-sum", "maximal", "commutator", "basis"):
        assert _output(golden.run(f"{cmd} --base legendre --mass 0.3:1 --n 6"))["rows"], cmd


def test_pollard_reports_limits():
    doc = _output(golden.run("pollard --base legendre --mass 1:1 --n 16"))
    assert doc["residual"] < 1e-8
    assert abs(doc["r"] + 0.5) < 0.2
    assert abs(doc["s"] - 0.5) < 0.2


@pytest.mark.parametrize("n", ["16", "32", "64"])
def test_pollard_on_a_jacobi_endpoint_measure(n):
    doc = _output(golden.run(f"pollard --base jacobi --alpha 0.5 --beta -0.5 --mass=-1:0.5 --n {n}"))
    assert doc["residual"] < 1e-12


def test_probe_reports_agreement():
    doc = _output(golden.run("probe --base legendre --mass 1:1 --p 2 --n 40 --mode strong"))
    assert doc["report"]["verdict"] == "bounded"
    assert doc["agreement"] is True


def test_weak_probe_defaults_to_restricted():
    doc = _output(golden.run("weak-probe --base legendre --mass 1:1 --p 4 --n 30"))
    assert doc["report"]["mode"] == "restricted-weak"


def test_endpoints_legendre():
    doc = _output(golden.run("endpoints"))
    assert doc["p0"] == pytest.approx(4.0 / 3.0)
    assert doc["p1"] == pytest.approx(4.0)


def test_check_conditions_verdicts():
    assert _output(golden.run("check-conditions --base legendre --p 2"))["conditions"]["verdict"] is True
    assert _output(golden.run("check-conditions --base legendre --p 5"))["conditions"]["verdict"] is False


def test_laguerre_mass_table():
    rows = _output(golden.run("laguerre-mass --alpha 0 --n 10"))["rows"]
    assert rows[0][1] == pytest.approx(0.5)  # L_0(0,0) for total mass 2
    assert rows[1][2] == pytest.approx(2.0**0.5)  # Q_1(0)


def test_probe_takes_mass_values_alone_on_a_laguerre_base():
    doc = _output(golden.run("probe --base laguerre --mass 0:1 --p 3 --n 30", '{"u": {"atMass": [2.0]}}'))
    assert doc["report"]["u"]["atMass"] == [2.0]


@pytest.mark.parametrize("flags, base", [
    ("--base jacobi --alpha 0.5 --beta 0.5", GenJacobiSpec(0.5, 0.5)),
    ("--base laguerre --alpha 1", LaguerreSpec(1.0)),
])
def test_measure_flags_the_base_takes_still_run(flags, base):
    doc = _output(golden.run(f"recurrence {flags} --n 3"))
    assert doc["config"]["measure"] == measure_to_dict(MeasureSpec(base))
    rec = classical_recurrence(base, 3)
    assert np.array(doc["rows"])[:, 1:].tolist() == np.column_stack([rec.alphas, rec.betas]).tolist()


# (command, flags, config given with the flags or None): one case per row of COMMANDS
REPLAY_CASES = [
    ("recurrence", "--base laguerre --mass 0:1 --n 8 --seed 7", None),
    ("basis", "--base jacobi --alpha 0.5 --beta 0.5 --n 5", {"points": [0.1, 0.5, 0.95]}),
    ("kernel", f"{LEGENDRE_INNER_MASS} --n 8 --decompose", None),
    ("partial-sum", f"{LEGENDRE_INNER_MASS} --n 6", {"f_poly": [0.5, 0.0, 2.0]}),
    ("maximal", f"{LEGENDRE_INNER_MASS} --n 6", None),
    ("commutator", f"{LEGENDRE_INNER_MASS} --n 6", {"t": 0.2}),
    ("pollard", f"{LEGENDRE_MASS} --n 12", None),
    ("probe", f"{LEGENDRE_MASS} --p 3 --n 40 --seed 3", {"u": {"a": 0.25}, "v": {"a": 0.25}}),
    ("weak-probe", f"{LEGENDRE_MASS} --p 4 --n 20 --seed 5", None),
    ("laguerre-mass", "--alpha 0.5 --n 12", {"M": 2.0}),
    ("endpoints", "--alpha 0.5 --beta 0", None),
    ("check-conditions", f"{LEGENDRE_MASS} --p 3", {"u": {"a": 0.25}}),
]


@pytest.mark.parametrize("name, flags, cfg", REPLAY_CASES, ids=[case[0] for case in REPLAY_CASES])
def test_config_replays_byte_identical(tmp_path, name, flags, cfg):
    first, again = tmp_path / "first", tmp_path / "again"
    _output(golden.run(f"{name} {flags} --out {first}", cfg and json.dumps(cfg)))
    _output(golden.run(f"{name} --out {again}", json.dumps(json.loads(first.read_text())["config"])))
    assert again.read_bytes() == first.read_bytes()


def test_replay_cases_cover_every_command():
    assert sorted(case[0] for case in REPLAY_CASES) == sorted(COMMANDS)


def test_subcommands_keep_their_flags():
    # the common four, the measure flags unless the command builds its own measure, its parameters' flags
    common = {"-h", "--help", "--config", "--seed", "--out", "--format"}
    measure = {"--base", "--alpha", "--beta", "--mass"}
    own = {
        "recurrence": measure | {"--n"},
        "basis": measure | {"--n"},
        "kernel": measure | {"--n", "--decompose"},
        "partial-sum": measure | {"--n"},
        "maximal": measure | {"--n"},
        "commutator": measure | {"--n"},
        "pollard": measure | {"--n"},
        "probe": measure | {"--mode", "--p", "--n"},
        "weak-probe": measure | {"--mode", "--p", "--n"},
        "laguerre-mass": {"--alpha", "--n"},
        "endpoints": {"--alpha", "--beta"},
        "check-conditions": measure | {"--p"},
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(own)
    for name, sub in subparsers.choices.items():
        options = {opt for action in sub._actions for opt in action.option_strings}
        assert options == common | own[name], name
    assert sum(len(common | flags) - 2 for flags in own.values()) == 107  # -h and --help not counted


class _ReadLog(dict):
    """A dict that notes in ``seen`` each of its keys that is looked up."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


# the argv each command row runs on; a row that runs probe modes runs once per mode, with --mode
_ROW_ARGV = {
    "recurrence": "--n 3",
    "basis": "--n 3",
    "kernel": f"{LEGENDRE_INNER_MASS} --n 3",
    "partial-sum": f"{LEGENDRE_INNER_MASS} --n 3",
    "maximal": f"{LEGENDRE_INNER_MASS} --n 3",
    "commutator": f"{LEGENDRE_INNER_MASS} --n 3",
    "pollard": f"{LEGENDRE_MASS} --n 4",
    "probe": f"{LEGENDRE_INNER_MASS} --p 3 --n 20",
    "weak-probe": f"{LEGENDRE_INNER_MASS} --p 3 --n 20",
    "laguerre-mass": "--n 5",
    "endpoints": "",
    "check-conditions": f"{LEGENDRE_INNER_MASS} --p 3",
}
ROW_CASES = [(name, mode) for name, cmd in COMMANDS.items() for mode in cmd.modes or (None,)]


def _unread(name, mode):
    """The keys the row ``name`` accepts but does not read, in ``mode`` on a probe row, else with mode None.

    seed on the rows that run no probe, since only a probe draws random numbers; t and symbol in
    every mode of probe but the commutator's, which alone reads them; weak-probe accepts neither.
    probe --mode restricted-weak reads v, only to reject it.
    """
    if mode is None:
        return {"seed"}
    return set() if name == "weak-probe" or mode == "commutator" else {"t", "symbol"}


@pytest.mark.parametrize("name, mode", ROW_CASES, ids=[" ".join(filter(None, case)) for case in ROW_CASES])
def test_a_command_accepts_only_the_keys_it_reads(monkeypatch, name, mode):
    cmd, seen = COMMANDS[name], set()
    logged = dataclasses.replace(cmd, run=lambda spec, prm: cmd.run(spec, _ReadLog(prm, seen)))
    monkeypatch.setitem(COMMANDS, name, logged)
    _output(golden.run(f"{name} {_ROW_ARGV[name]}" + (f" --mode {mode}" if mode else "")))
    accepted = {key for key, _ in _COMMON + cmd.params}
    assert seen <= accepted
    assert accepted - seen == _unread(name, mode)


@pytest.mark.parametrize("argv", [
    f"probe {LEGENDRE_MASS} --mode strong --p 2 --n 40",
    f"weak-probe {LEGENDRE_MASS} --p 4 --n 40",
])
def test_a_probe_grid_of_n_plus_1_nodes_resolves_degree_n(argv):
    # a probe grid resolves degree N only with at least N + 1 Gauss nodes; FAILURES holds the grid of 10
    assert _output(golden.run(argv, '{"grid_size": 41}'))["report"]["verdict"] == "bounded"


@pytest.mark.parametrize("name", ["probe", "weak-probe"])
@pytest.mark.parametrize("argv, N, grid_size", [("", 60, 180), ("--n 20", 20, 96)])
def test_probe_defaults_are_degree_60_on_a_grid_of_max_3n_96(name, argv, N, grid_size):
    config = _output(golden.run(f"{name} {LEGENDRE_MASS} --p 4 {argv}"))["config"]
    assert (config["N"], config["grid_size"]) == (N, grid_size)


def _record(a=0.0, b=0.0, g=(), at_mass=()):
    return {"a": a, "b": b, "g": list(g), "atMass": list(at_mass)}


@pytest.mark.parametrize("mode, weights, recorded", [
    ("restricted-weak", {"u": {"a": 0.25}}, (_record(a=0.25), {})),
    ("restricted-weak", {}, ({}, {})),
    ("maximal", {"u": {"a": 0.25}, "v": {"b": 0.5}}, (_record(a=0.25), _record(b=0.5))),
    ("maximal", {}, ({}, {})),
    ("commutator", {"v": {"b": 0.5}}, ({}, _record(b=0.5))),
    ("strong", {"u": {"a": 0.25}}, (_record(a=0.25), {})),
    ("strong", {}, ({}, {})),
    ("strong", {"u": {"a": 0.25, "atMass": [3.0]}, "v": {"atMass": [0.5]}},
     (_record(a=0.25, at_mass=[3.0]), _record(at_mass=[0.5]))),
    ("restricted-weak", {"u": {"atMass": [3.0]}}, (_record(at_mass=[3.0]), {})),
])
def test_probe_reports_record_the_weights_used(mode, weights, recorded):
    doc = _output(golden.run(f"probe {LEGENDRE_INNER_MASS} --mode {mode} --p 3 --n 30", json.dumps(weights)))
    assert (doc["report"]["u"], doc["report"]["v"]) == recorded


def test_weight_lists_matching_the_measure_run():
    cfg = json.dumps({"measure": GENJACOBI_MEASURE, "u": {"g": [0.25], "atMass": [2.0, 0.5]}})
    doc = _output(golden.run("probe --p 3 --n 30 --mode maximal", cfg))
    assert doc["report"]["u"] == _record(g=[0.25], at_mass=[2.0, 0.5])


def test_restricted_weak_probe_reports_no_strong_type_conditions():
    # restricted weak type holds at the endpoint p = 4, where the strong-type conditions fail
    doc = _output(golden.run(f"probe {LEGENDRE_MASS} --p 4 --n 20 --mode restricted-weak"))
    assert doc["report"]["verdict"] == "bounded"
    assert set(doc) == {"command", "config", "report", "schema_version"}


def test_config_values_are_recorded_as_given():
    # an integer read as a real number stays an integer, so the recorded config replays byte for byte
    doc = _output(golden.run(f"check-conditions {LEGENDRE_MASS}", '{"p": 3, "u": {"a": 0.25}}'))
    assert json.dumps(doc["config"]["p"]) == "3"


def _svd_failure(spec, prm):
    raise np.linalg.LinAlgError("SVD did not converge")


HUGE = 10**400  # an int too large for a float
ONE_SINGULARITY = {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": 1.0}]}}
STRING_LOCATION = {"location": "1", "mass": 1}
NAN_GAMMA = {"measure": {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": math.nan}]}}}
LOG_EDGE = {"symbol": "log_edge"}  # log(1 - x): -inf at x = 1 and NaN at every node x > 1
LOG_EDGE_AT_1 = {"symbol": "log_edge", "points": [0.5, 1.0]}  # and so at the evaluation point x = 1
SYMBOL_HINT = ('choose one finite there with the config key "symbol", '
               "one of ('log_edge', 'log_interior', 'smooth_step')")
OFF_JACOBI = ("weight exponents a, b and g apply to generalized Jacobi bases: off [-1, 1] (1-x)^a (1+x)^b is not "
              "finite and positive; on the {} base a weight takes atMass only, got {}")
WEIGHT_KEYS = "weight has unknown key(s) ['{}']; expected some of ['a', 'b', 'g', 'atMass']"
SHORT_FIT = "a growth fit needs two distinct degrees in the top half of the sweep, got 4, 5"
COMMUTATOR_NAN = "commutator produced a NaN or infinite value"
LAGUERRE_DELTA0 = "--base laguerre --mass 0:1"
REJECTS_V = "config key 'v' is not read by weak-probe; it reads seed, u, mode, p, N, grid_size, measure"
NOT_RESTRICTED_WEAK = "mode must be one of ('restricted-weak',), got '{}'"
EDGE = "edge exponents must be finite and > -1, got alpha={}, beta=0.0"


def _built(command):
    """The measure ``command`` builds from alpha (and M or beta) at their defaults, as a mismatch names it."""
    built = COMMANDS[command].measure({"alpha": 0.0, "beta": 0.0, "M": 1.0})
    return json.dumps(measure_to_dict(built), sort_keys=True)


# every command that must fail: (argv; its --config as text, a JSON value or None; its exit code; the error type
# golden.failure reads, "usage" for an argparse error; the message, where "..." stands for any text; and, for the
# one row that needs it, a run function that replaces its command's)
FAILURES = [
    # a config, a flag or a measure the CLI cannot read
    ("recurrence --n 5", {"measure": {"base": {"kind": "genjacobi", "alpha": -2}}}, 2, "ExponentOutOfRange",
     EDGE.format("-2.0")),
    ("recurrence", "{not json", 2, "JSONDecodeError",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("recurrence --config /nonexistent/config.json", None, 2, "FileNotFoundError",
     "[Errno 2] No such file or directory: '/nonexistent/config.json'"),
    ("recurrence --base legendre --mass oops", None, 2, "SpecError",
     "mass must be given as location:mass, got 'oops'"),
    ("endpoints --alpha -0.6 --beta -0.7", None, 2, "NoEndpoint",
     "max(alpha, beta) = -0.6 <= -1/2: no finite endpoints"),
    # a numerical failure: LAPACK's, an overflow, a non-finite value in the output; no warning may reach stderr
    ("recurrence --n 4", None, 3, "LinAlgError", "SVD did not converge", _svd_failure),
    # rho_n is NaN at degree 68: |P_n|^{p'} overflows at nodes whose Gauss weight underflowed to 0
    (f"probe {LAGUERRE_DELTA0} --p 3 --n 80", None, 3, "NumericalBreakdown",
     "the strong probe at p = 3 has a non-finite entry at degree 68 on a grid of 241 nodes"),
    (f"probe {LAGUERRE_DELTA0} --p 1.5 --n 120", None, 3, "NumericalBreakdown",
     "the strong probe at p = 1.5 has a non-finite entry at degree 59 on a grid of 361 nodes"),
    ("probe --base hermite --mass 0:1 --p 3 --n 150", None, 3, "NumericalBreakdown",
     "the strong probe at p = 3 has a non-finite entry at degree 150 on a grid of 451 nodes"),
    # Laguerre P_k(x) overflows at the largest nodes of the 1201-point grid, before the p = 2 factorization
    (f"probe {LAGUERRE_DELTA0} --p 2 --n 400", None, 3, "NumericalBreakdown",
     "the basis table up to degree 400 overflowed on the grid of 1201 nodes: the p = 2 factors hold non-finite values"),
    ("commutator --base legendre --n 6", LOG_EDGE_AT_1, 3, "NumericalBreakdown", COMMUTATOR_NAN),
    # and nothing is written, to stdout or to --out
    *((f"commutator --base legendre --n 6 --format {fmt}{out}", LOG_EDGE_AT_1, 3, "NumericalBreakdown",
       COMMUTATOR_NAN) for fmt in ("json", "csv") for out in ("", " --out out.txt")),
    # a symbol that is not finite at a mass point or a grid node; log_edge is the probe's default symbol
    *((argv, config, 2, "NonFiniteWeight", f"symbol 'log_edge' is -inf at the mass point 1; {SYMBOL_HINT}")
      for argv, config in (("probe --mode commutator --mass 1:1", None), ("commutator --mass 1:1 --n 6", LOG_EDGE))),
    *((argv, LOG_EDGE, 2, "NonFiniteWeight", f"symbol 'log_edge' is nan at the grid node {node}; {SYMBOL_HINT}")
      for argv, node in (("probe --base hermite --mode commutator --p 3 --n 20", "1.01852"),
                         ("probe --base laguerre --mode commutator --p 3 --n 20", "1.1668"),
                         ("commutator --base laguerre --n 5", "1.26781"))),
    # an exponent a probe cannot take
    *((f"probe {LEGENDRE_MASS} --p {p} --n 20 --mode {mode}", None, 2, "SpecError", text) for p, mode, text in (
        ("0.5", "strong", "p must be in [1, inf), got 0.5"),
        ("0.5", "maximal", "p must be in [1, inf), got 0.5"),
        ("0.5", "commutator", "p must be in [1, inf), got 0.5"),
        ("1", "strong", "p = 1 has no finite conjugate exponent p'; use p > 1"),
        ("1", "commutator", "p = 1 has no finite conjugate exponent p'; use p > 1"))),
    # a power weight off [-1, 1]: u = (1 - x)^0.5 on a Laguerre base is NaN at every node x > 1
    (f"probe {LAGUERRE_DELTA0} --mode restricted-weak --p 4 --n 30", {"u": {"a": 0.5}}, 2, "NonFiniteWeight",
     OFF_JACOBI.format("laguerre", "a=0.5, b=0, g=[]")),
    (f"probe {LAGUERRE_DELTA0} --p 3 --n 30", {"u": {"a": 1.0}}, 2, "NonFiniteWeight",
     OFF_JACOBI.format("laguerre", "a=1, b=0, g=[]")),
    ("probe --base hermite --mass 0:1 --p 3 --n 30", {"u": {"b": 2.0}}, 2, "NonFiniteWeight",
     OFF_JACOBI.format("hermite", "a=0, b=2, g=[]")),
    # a sweep too short to fit: none starts below n = 4, and [4, 5] has one degree in the fitted half
    (f"weak-probe {LEGENDRE_MASS} --p 4 --n 3", None, 2, "SpecError",
     "a degree sweep starts at n = 4; N = 3 is too small"),
    (f"weak-probe {LEGENDRE_MASS} --p 4 --n 5", None, 2, "SpecError", SHORT_FIT),
    (f"probe {LEGENDRE_MASS} --p 3 --n 5", None, 2, "SpecError", SHORT_FIT),
    # measure flags next to a config "measure"
    *((f"recurrence {flags} --n 3", {"measure": GENJACOBI_MEASURE}, 2, "SpecError",
       f'{given} cannot be combined with a config "measure"')
      for flags, given in (("--base laguerre --mass 0:1", "--base, --mass"), ("--base jacobi", "--base"),
                           ("--alpha 1", "--alpha"), ("--beta 1", "--beta"), ("--mass 0:1", "--mass"))),
    # no command, and flags of parameters the command does not have
    ("", None, 2, "usage", "...\nmasspoly: error: the following arguments are required: command"),
    *((argv, None, 2, "usage", f"...\nmasspoly: error: unrecognized arguments: {unread}") for argv, unread in (
        ("recurrence --p 3", "--p 3"),
        ("kernel --p 3 --n 5", "--p 3"),
        ("check-conditions --n 7", "--n 7"),
        ("endpoints --n 5 --p 3", "--n 5 --p 3"),
        ("kernel --mode strong", "--mode strong"),
        ("probe --decompose", "--decompose"),
        # measure flags on a command that builds its own measure
        ("endpoints --base laguerre --mass 0:1", "--base laguerre --mass 0:1"),
        ("endpoints --mass 1:1", "--mass 1:1"),
        ("endpoints --base legendre --alpha 0.5", "--base legendre"),
        ("endpoints --base jacobi --alpha 0.5", "--base jacobi"),
        ("laguerre-mass --base legendre --n 10", "--base legendre"),
        ("laguerre-mass --mass 0:2 --n 10", "--mass 0:2"),  # the mass is M from the config, default 1
        ("laguerre-mass --beta 1 --n 10", "--beta 1"))),
    # a config "measure" that is not the one the command builds
    *((name, {"measure": measure}, 2, "SpecError", f'config "measure" {json.dumps(measure, sort_keys=True)} '
       f"is not the measure this command builds, {_built(name)}") for name, measure in (
        ("laguerre-mass", {"base": {"kind": "hermite"}, "masses": []}),
        ("laguerre-mass", {"base": {"kind": "laguerre", "alpha": 0.5}, "masses": [{"location": 0.0, "mass": 1.0}]}),
        ("endpoints", {"base": {"kind": "hermite"}, "masses": []}),
        ("endpoints", {"base": {"kind": "genjacobi", "alpha": 0.5, "beta": 0.0}, "masses": []}))),
    # a measure flag the base has no parameter for; the default base, legendre, has none
    *((f"recurrence {flags} --n 3", None, 2, "SpecError", f"--{key} is not a parameter of the {base} base")
      for flags, key, base in (("--base laguerre --beta 7", "beta", "laguerre"), ("--alpha 0.5", "alpha", "legendre"),
                               ("--base legendre --alpha 0.5", "alpha", "legendre"),
                               ("--base hermite --alpha 1", "alpha", "hermite"),
                               ("--base hermite --beta 1", "beta", "hermite"))),
    # a probe grid resolves degree N only with at least N + 1 Gauss nodes
    *((argv, {"grid_size": 10}, 2, "GridTooSmall",
       "a grid of 10 Gauss nodes resolves degrees up to 9; degree 40 needs a grid size of at least 41")
      for argv in (f"probe {LEGENDRE_MASS} --mode strong --p 2 --n 40", f"weak-probe {LEGENDRE_MASS} --p 4 --n 40")),
    (f"probe {LEGENDRE_MASS} --n 20", {"grid_size": -5}, 2, "GridTooSmall",
     "a grid needs at least one Gauss node, got grid size -5"),
    # a config key the command does not read; the degree alone sizes a basis, so grid_size is a probe key
    *((argv, {key: 5}, 2, "SpecError", f"config key {key!r} is not read by {argv.split()[0]}; it reads {reads}")
      for argv, key, reads in (
        ("recurrence --n 4", "gird_size", "seed, N, measure"),
        ("recurrence --n 4", "grid_size", "seed, N, measure"),
        (f"probe {LEGENDRE_MASS} --n 20", "grid-size", "seed, u, v, mode, p, N, grid_size, t, symbol, measure"),
        ("laguerre-mass --n 8", "m", "seed, alpha, M, N, measure"),
        # a weight on a command that reads none, and v on weak-probe, which takes u alone
        ("recurrence --n 3", "u", "seed, N, measure"),
        ("kernel --n 3", "v", "seed, n, a, points, decompose, measure"),
        (f"weak-probe {LEGENDRE_MASS} --n 20", "v", "seed, u, mode, p, N, grid_size, measure"),
        (f"weak-probe {LEGENDRE_MASS} --n 20", "symbol", "seed, u, mode, p, N, grid_size, measure"),
        (f"check-conditions {LEGENDRE_MASS}", "N", "seed, u, v, p, measure"))),
    *((f"{name} --n -1", None, 2, "DegreeOutOfRange", "degree -1 is below 0, the lowest degree a basis reaches")
      for name in ("recurrence", "laguerre-mass")),
    # the weak modes take no v
    *((f"{argv} {LEGENDRE_MASS} --p 4 --n 30", {"v": {"a": 0.25}}, 2, "SpecError", text) for argv, text in (
        ("weak-probe", REJECTS_V), ("weak-probe --mode restricted-weak", REJECTS_V),
        ("probe --mode restricted-weak", "the weak-type probe takes one weight, u, which also divides the input; "
                                         "v is not used"))),
    # weak-probe runs only the restricted-weak probe: its --mode offers that alone, so argparse rejects the others
    *((f"weak-probe {LEGENDRE_MASS} --p 3 --n 20 --mode {mode}", {}, 2, "usage",
       f"...[--mode {{restricted-weak}}]...\nmasspoly weak-probe: error: argument --mode: invalid choice: '{mode}' "
       "(choose from 'restricted-weak')") for mode in ("strong", "maximal", "commutator")),
    *((f"weak-probe {LEGENDRE_MASS} --p 3 --n 20", {"mode": mode}, 2, "SpecError", NOT_RESTRICTED_WEAK.format(mode))
      for mode in ("maximal", "strong")),
    # the weak mode is gone
    *((f"{command} {LEGENDRE_MASS} --mode weak --p 4 --n 30", None, 2, "usage",
       f"...\nmasspoly {command}: error: argument --mode: invalid choice: 'weak' (choose from {choices})")
      for command, choices in (("probe", "'strong', 'restricted-weak', 'maximal', 'commutator'"),
                               ("weak-probe", "'restricted-weak'"))),
    (f"probe {LEGENDRE_MASS} --p 4 --n 30", {"mode": "weak"}, 2, "SpecError",
     "mode must be one of ('strong', 'restricted-weak', 'maximal', 'commutator'), got 'weak'"),
    (f"weak-probe {LEGENDRE_MASS} --p 4 --n 30", {"mode": "weak"}, 2, "SpecError", NOT_RESTRICTED_WEAK.format("weak")),
    # a misspelt weight key would run unweighted
    (f"weak-probe {LEGENDRE_MASS} --p 4 --n 30", {"u": {"alpha": 0.25}}, 2, "SpecError", WEIGHT_KEYS.format("alpha")),
    (f"probe {LEGENDRE_MASS} --p 3 --n 30", {"v": {"a": 0.25, "at_mass": [2.0]}}, 2, "SpecError",
     WEIGHT_KEYS.format("at_mass")),
    (f"check-conditions {LEGENDRE_MASS} --p 3", {"u": {"A": 0.25}}, 2, "SpecError", WEIGHT_KEYS.format("A")),
    # a misspelt measure key would build another measure
    *(("recurrence --n 2", {"measure": measure}, 2, "SpecError", text) for measure, text in (
        ({"base": {"kind": "genjacobi", "alfa": 0.5}},
         "genjacobi base has unknown key(s) ['alfa']; expected some of ['kind', 'alpha', 'beta', 'singularities']"),
        ({"base": {"kind": "laguerre", "beta": 0.5}},
         "laguerre base has unknown key(s) ['beta']; expected some of ['kind', 'alpha']"),
        ({"base": {"kind": "hermite"}, "mass": [{"location": 0, "mass": 1}]},
         "measure has unknown key(s) ['mass']; expected some of ['base', 'masses']"),
        ({"base": {"kind": "hermite"}, "masses": [{"location": 0, "mass": 1, "weight": 2}]},
         "masses[0] has unknown key(s) ['weight']; expected some of ['location', 'mass']"),
        ({"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": 1.0, "g": 1.0}]}},
         "singularities[0] has unknown key(s) ['g']; expected some of ['t', 'gamma']"))),
    # a weight list with the wrong length for the measure
    (f"probe {LEGENDRE_MASS} --p 3 --n 30", {"u": {"atMass": [3.0, 5.0]}}, 2, "SpecError",
     "weight atMass has 2 entries, but the measure has 1 mass points"),
    (f"weak-probe {LEGENDRE_MASS} --p 4 --n 30", {"u": {"g": [0.5]}}, 2, "SpecError",
     "weight g has 1 entries, but the measure has 0 base singularities"),
    ("probe --p 3 --n 30", {"v": {"atMass": [2.0]}}, 2, "SpecError",
     "weight atMass has 1 entries, but the measure has 0 mass points"),
    (f"check-conditions {LEGENDRE_MASS} --p 3", {"u": {"g": [0.5]}}, 2, "SpecError",
     "weight g has 1 entries, but the measure has 0 base singularities"),
    ("probe --p 3 --n 30 --mode maximal", {"measure": GENJACOBI_MEASURE, "u": {"g": [0.5, 0.5]}}, 2, "SpecError",
     "weight g has 2 entries, but the measure has 1 base singularities"),
    # a config value of the wrong JSON type
    *((argv, config, 2, "SpecError", text) for argv, config, text in (
        ("recurrence", {"N": "10"}, 'config key \'N\' must be an integer, got "10"'),
        ("recurrence", {"N": 10.5}, "config key 'N' must be an integer, got 10.5"),
        ("recurrence", {"N": None}, "config key 'N' must be an integer, got null"),
        ("recurrence", {"N": True}, "config key 'N' must be an integer, got true"),  # would run as N = 1
        (f"probe {LEGENDRE_MASS}", {"p": "3"}, 'config key \'p\' must be a number, got "3"'),
        (f"probe {LEGENDRE_MASS}", {"grid_size": 100.5}, "config key 'grid_size' must be an integer, got 100.5"),
        (f"probe {LEGENDRE_MASS} --p 3", {"seed": "x"}, 'config key \'seed\' must be an integer, got "x"'),
        (f"probe {LEGENDRE_MASS} --p 2", {"seed": "x"}, 'config key \'seed\' must be an integer, got "x"'),
        ("basis", {"points": 5}, "config key 'points' must be a list of numbers, got 5"),
        ("partial-sum", {"f_poly": [1.0, "x"]}, 'config key \'f_poly\' must be a list of numbers, got [1.0, "x"]'),
        (f"kernel {LEGENDRE_INNER_MASS}", {"decompose": 1}, "config key 'decompose' must be true or false, got 1"),
        ("laguerre-mass", {"M": False}, "config key 'M' must be a number, got false"),
        ("commutator", {"symbol": 2}, "config key 'symbol' must be a string, got 2"),
        (f"weak-probe {LEGENDRE_MASS}", {"u": 0.25}, "config key 'u' must be a weight object or null, got 0.25"),
        # a non-finite number is no number
        ("basis --n 3", {"points": [math.nan, 0.5]}, "config key 'points' must be a list of numbers, got [NaN, 0.5]"),
        ("kernel --n 3", {"a": math.nan}, "config key 'a' must be a number, got NaN"),
        (f"commutator {LEGENDRE_INNER_MASS} --n 3", {"t": math.inf}, "config key 't' must be a number, got Infinity"),
        (f"probe {LEGENDRE_MASS}", {"p": -math.inf}, "config key 'p' must be a number, got -Infinity"),
        # nor is an int too large for a float
        ("check-conditions", {"p": HUGE}, f"config key 'p' must be a number, got {HUGE}"),
        (f"commutator {LEGENDRE_INNER_MASS} --n 3", {"t": HUGE}, f"config key 't' must be a number, got {HUGE}"),
        # a measure or weight value is read by the same JSON types, and a missing key is named where it is missing
        ("probe --p 3 --n 20", {"measure": {"base": {"kind": "genjacobi", "alpha": True, "beta": "0.5"},
                                            "masses": [STRING_LOCATION]}, "u": {"a": "0.25"}},
         "genjacobi base key 'alpha' must be a number, got true"),
        ("recurrence --n 3", {"measure": {"base": {"kind": "genjacobi", "beta": "0.5"}}},
         'genjacobi base key \'beta\' must be a number, got "0.5"'),
        ("recurrence --n 3", {"measure": {"base": {"kind": "genjacobi"}, "masses": [STRING_LOCATION]}},
         'masses[0] key \'location\' must be a number, got "1"'),
        ("check-conditions --p 3", {"u": {"a": "0.25"}}, 'weight key \'a\' must be a number, got "0.25"'),
        ("check-conditions --p 3", {"measure": ONE_SINGULARITY, "u": {"g": "12"}},
         'weight key \'g\' must be a list of numbers, got "12"'),
        (f"check-conditions {LEGENDRE_INNER_MASS} --p 3", {"u": {"atMass": "5"}},
         'weight key \'atMass\' must be a list of numbers, got "5"'),
        (f"check-conditions {LEGENDRE_INNER_MASS} --p 3", {"u": {"atMass": [5], "a": True}},
         "weight key 'a' must be a number, got true"),
        ("recurrence --n 3", {"measure": {"base": {"kind": "genjacobi"}, "masses": [{"mass": 1}]}},
         "masses[0] lacks the required key(s) ['location']"),
        ("recurrence --n 3", {"measure": {"base": {"kind": "genjacobi", "singularities": "0.5:1"}}},
         'genjacobi base key \'singularities\' must be a list, got "0.5:1"'))),
    # a non-finite or out-of-domain measure or weight
    ("recurrence --mass 0:inf --n 3", None, 2, "MassNotPositive", "mass at 0.0 must be positive and finite, got inf"),
    ("recurrence --base hermite --mass inf:1 --n 3", None, 2, "SpecError",
     "mass location inf is not a finite point of the support [-inf, inf]"),
    *((argv, config, 2, "ExponentOutOfRange", text) for argv, config, text in (
        ("recurrence --base jacobi --alpha inf --n 3", None, EDGE.format("inf")),
        ("recurrence --base jacobi --alpha nan --n 3", None, EDGE.format("nan")),
        ("recurrence --n 3", NAN_GAMMA, "singularity exponent at t=0.0 must be finite and > -1, got nan"),
        ("endpoints --alpha inf", None, EDGE.format("inf")),
        # a measure that cannot be built, which the recorded config would not replay
        ("endpoints --alpha -5 --beta 0", None, EDGE.format("-5.0")),
        ("laguerre-mass --alpha nan --n 5", None, "Laguerre alpha must be finite and > -1, got nan"),
        # an int too large for a float reads as an infinity
        ("recurrence --n 3", {"measure": {"base": {"kind": "genjacobi", "alpha": HUGE}}}, EDGE.format("inf")))),
    ("check-conditions --p 3", {"u": {"a": math.nan}}, 2, "NonFiniteWeight",
     "weight exponents a, b and g must be finite, got a=nan, b=0, g=[]"),
    # check-conditions reads no weight values, but a weight cannot be built with one outside (0, inf)
    (f"check-conditions {LEGENDRE_INNER_MASS} --p 3", {"u": {"atMass": [0]}}, 2, "SpecError",
     "weight values at the mass points must be in (0, inf), got atMass=[0.0]"),
    ("check-conditions --p 3", {"u": {"a": -HUGE}}, 2, "NonFiniteWeight",
     "weight exponents a, b and g must be finite, got a=-inf, b=0, g=[]"),
]


def _config_text(config):
    return config if config is None or isinstance(config, str) else json.dumps(config)


@pytest.mark.parametrize("row", FAILURES, ids=[
    " ".join(filter(None, ("masspoly", row[0], (_config_text(row[1]) or "")[:60]))) for row in FAILURES])
def test_a_failing_command_prints_one_typed_line_and_nothing_else(monkeypatch, tmp_path, row):
    argv, config, code, error, text, *run = row
    monkeypatch.chdir(tmp_path)  # where --out out.txt would be written
    if run:
        name = argv.split()[0]
        monkeypatch.setitem(COMMANDS, name, dataclasses.replace(COMMANDS[name], run=run[0]))
    record = golden.run(argv, _config_text(config))
    assert record["exit"] == code
    got, message = golden.failure(record)
    assert got == error
    assert re.fullmatch(".*".join(map(re.escape, text.split("..."))), message, re.DOTALL), message
    assert list(tmp_path.iterdir()) == []
