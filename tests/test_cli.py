import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from masspoly import GenJacobiSpec, LaguerreSpec, MassPoint, MeasureSpec, legendre
from masspoly.cli import _COMMON, COMMANDS, build_parser, main
from masspoly.measure import measure_to_dict
from masspoly.opoly import classical_recurrence
from masspoly.oracle import oracle_recurrence


def fresh_python(*args):
    """Run python with ``args`` in a fresh process, so numpy's RuntimeWarnings reach the real stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_recurrence_legendre(capsys):
    code, doc = run_json(capsys, "recurrence", "--base", "legendre", "--n", "10")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "recurrence"
    rows = doc["rows"]
    assert rows[0][1] == pytest.approx(0.0)
    assert rows[0][2] == pytest.approx(2.0)
    assert rows[1][2] == pytest.approx(1.0 / 3.0)


def test_recurrence_with_mass_total_mass(capsys):
    code, doc = run_json(capsys, "recurrence", "--base", "legendre", "--mass", "1:1", "--n", "5")
    assert code == 0
    assert doc["rows"][0][2] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("flags, spec", [
    (["--base", "legendre", "--mass", "1:1"], legendre([MassPoint(1.0, 1.0)])),
    (["--base", "legendre", "--mass=-1:0.5", "--mass", "1:0.5"],
     legendre([MassPoint(-1.0, 0.5), MassPoint(1.0, 0.5)])),
    (["--base", "jacobi", "--alpha", "1", "--beta", "1", "--mass", "0.5:0.25"],
     MeasureSpec(GenJacobiSpec(1.0, 1.0), (MassPoint(0.5, 0.25),))),
    (["--base", "laguerre", "--mass", "0:1"], MeasureSpec(LaguerreSpec(0.0), (MassPoint(0.0, 1.0),))),
])
def test_recurrence_with_masses_matches_oracle(capsys, flags, spec):
    code, doc = run_json(capsys, "recurrence", *flags, "--n", "10")
    assert code == 0
    rows = np.array(doc["rows"])
    al, be = oracle_recurrence(spec, 10)
    assert list(rows[:, 0]) == list(range(10))
    np.testing.assert_allclose(rows[:, 1], al[:10], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rows[:, 2], be[:10], rtol=1e-12, atol=0)


def test_invalid_exponent_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"measure": {"base": {"kind": "genjacobi", "alpha": -2}}}')
    code = main(["recurrence", "--config", str(cfg), "--n", "5"])
    assert code == 2


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["recurrence", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_2():
    assert main(["recurrence", "--config", "/nonexistent/config.json"]) == 2


def test_bad_mass_flag_exits_2():
    assert main(["recurrence", "--base", "legendre", "--mass", "oops"]) == 2


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "recurrence", "--base", "legendre", "--n", "8", "--format", "json")
    _, second = run(capsys, "recurrence", "--base", "legendre", "--n", "8", "--format", "json")
    assert first == second


def test_csv_output_carries_schema_version(capsys):
    code, out = run(capsys, "recurrence", "--base", "legendre", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[1].split(",")[0] == "k"


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "rec.json"
    code = main(["recurrence", "--base", "legendre", "--n", "4", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["command"] == "recurrence"


def test_kernel_decompose_flag(capsys):
    code, doc = run_json(
        capsys, "kernel", "--base", "legendre", "--mass", "0.3:1", "--n", "8", "--decompose"
    )
    assert code == 0
    dec = doc["decomposition"]
    assert dec["residual"] < 1e-8
    assert dec["total"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("base", ["legendre", "hermite"])
def test_kernel_decompose_without_masses_is_the_one_kernel(capsys, base):
    # with no mass the decomposition is K_n alone, whose coefficient (on the empty set of masses) is 1
    code, doc = run_json(capsys, "kernel", "--base", base, "--n", "8", "--decompose")
    assert code == 0
    assert doc["config"]["decompose"] is True
    dec = doc["decomposition"]
    assert dec["coefficients"] == {"": 1.0} and dec["total"] == 1.0
    assert dec["residual"] < 1e-14


def test_partial_sum_and_maximal_run(capsys):
    for cmd in ("partial-sum", "maximal", "commutator", "basis"):
        code, doc = run_json(capsys, cmd, "--base", "legendre", "--mass", "0.3:1", "--n", "6")
        assert code == 0, cmd
        assert doc["rows"], cmd


def test_pollard_reports_limits(capsys):
    code, doc = run_json(capsys, "pollard", "--base", "legendre", "--mass", "1:1", "--n", "16")
    assert code == 0
    assert doc["residual"] < 1e-8
    assert abs(doc["r"] + 0.5) < 0.2
    assert abs(doc["s"] - 0.5) < 0.2


@pytest.mark.parametrize("n", ["16", "32", "64"])
def test_pollard_on_a_jacobi_endpoint_measure(capsys, n):
    code, doc = run_json(capsys, "pollard", "--base", "jacobi", "--alpha", "0.5", "--beta", "-0.5",
                         "--mass=-1:0.5", "--n", n)
    assert code == 0
    assert doc["residual"] < 1e-12


def test_lapack_failure_exits_3(capsys, monkeypatch):
    def fail(spec, prm):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(COMMANDS, "recurrence", dataclasses.replace(COMMANDS["recurrence"], run=fail))
    assert main(["recurrence", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert "LinAlgError: SVD did not converge" in captured.err and captured.out == ""


@pytest.mark.parametrize("base, p, n, error", [
    # rho_n is NaN at degree 68: |P_n|^{p'} overflows at nodes whose Gauss weight underflowed to 0
    ("laguerre", 3, 80, "the strong probe at p = 3 has a non-finite entry at degree 68 on a grid of 241 nodes"),
    ("laguerre", 1.5, 120, "the strong probe at p = 1.5 has a non-finite entry at degree 59 on a grid of 361 nodes"),
    ("hermite", 3, 150, "the strong probe at p = 3 has a non-finite entry at degree 150 on a grid of 451 nodes"),
    ("laguerre", 2, 400, "the basis table up to degree 400 overflowed on the grid of 1201 nodes: "
                         "the p = 2 factors hold non-finite values"),
])
def test_probe_overflow_exits_3_with_one_stderr_line(base, p, n, error):
    proc = fresh_python("-m", "masspoly.cli", "probe", "--base", base, "--mass", "0:1", "--p", str(p), "--n", str(n))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"NumericalBreakdown: {error}\n"


def test_commutator_infinite_symbol_exits_3_with_one_stderr_line(tmp_path):
    # the log(1 - x) symbol is -inf at the evaluation point x = 1
    cfg = tmp_path / "log_edge.json"
    cfg.write_text('{"symbol": "log_edge", "points": [0.5, 1.0]}')
    proc = fresh_python("-m", "masspoly.cli", "commutator", "--base", "legendre", "--n", "6", "--config", str(cfg))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "NumericalBreakdown: commutator produced a NaN or infinite value\n"


@pytest.mark.parametrize("argv", [
    ["probe", "--mode", "commutator", "--mass", "1:1"],  # log_edge is the probe's default symbol
    ["commutator", "--mass", "1:1", "--n", "6"],
])
def test_symbol_infinite_at_a_mass_point_is_named(capsys, tmp_path, argv):
    if argv[0] == "commutator":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"symbol": "log_edge"}')
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "NonFiniteWeight: symbol 'log_edge' is -inf at the mass point 1;" in captured.err
    assert 'config key "symbol"' in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["probe", "--base", "hermite", "--mode", "commutator", "--p", "3", "--n", "20"],
    ["probe", "--base", "laguerre", "--mode", "commutator", "--p", "3", "--n", "20"],
    ["commutator", "--base", "laguerre", "--n", "5"],
])
def test_symbol_not_finite_at_a_grid_node_exits_2(capsys, tmp_path, argv):
    # log_edge is log(1 - x), NaN at every node x > 1 of a Hermite or Laguerre grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"symbol": "log_edge"}')
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "NonFiniteWeight: symbol 'log_edge' is nan at the grid node 1." in captured.err
    assert 'config key "symbol"' in captured.err
    assert captured.out == ""


def test_probe_reports_agreement(capsys):
    code, doc = run_json(
        capsys, "probe", "--base", "legendre", "--mass", "1:1", "--p", "2", "--n", "40",
        "--mode", "strong",
    )
    assert code == 0
    assert doc["report"]["verdict"] == "bounded"
    assert doc["agreement"] is True


@pytest.mark.parametrize("p, mode", [
    ("0.5", "strong"), ("0.5", "maximal"), ("0.5", "commutator"), ("1", "strong"), ("1", "commutator"),
])
def test_probe_rejects_bad_exponent_exits_2(capsys, p, mode):
    code = main(["probe", "--base", "legendre", "--mass", "1:1", "--p", p, "--n", "20", "--mode", mode])
    assert code == 2
    assert "SpecError" in capsys.readouterr().err


def test_weak_probe_defaults_to_restricted(capsys):
    code, doc = run_json(capsys, "weak-probe", "--base", "legendre", "--mass", "1:1", "--p", "4", "--n", "30")
    assert code == 0
    assert doc["report"]["mode"] == "restricted-weak"


def test_endpoints_legendre(capsys):
    code, doc = run_json(capsys, "endpoints")
    assert code == 0
    assert doc["p0"] == pytest.approx(4.0 / 3.0)
    assert doc["p1"] == pytest.approx(4.0)


def test_endpoints_undefined_exits_2():
    assert main(["endpoints", "--alpha", "-0.6", "--beta", "-0.7"]) == 2


def test_check_conditions_verdicts(capsys):
    code, doc = run_json(capsys, "check-conditions", "--base", "legendre", "--p", "2")
    assert code == 0
    assert doc["conditions"]["verdict"] is True
    code, doc = run_json(capsys, "check-conditions", "--base", "legendre", "--p", "5")
    assert doc["conditions"]["verdict"] is False


def test_laguerre_mass_table(capsys):
    code, doc = run_json(capsys, "laguerre-mass", "--alpha", "0", "--n", "10")
    assert code == 0
    rows = doc["rows"]
    assert rows[0][1] == pytest.approx(0.5)  # L_0(0,0) for total mass 2
    assert rows[1][2] == pytest.approx(2.0**0.5)  # Q_1(0)


def test_weak_probe_rejects_bad_weight_exits_2(capsys, tmp_path):
    # u = (1 - x)^0.5 on a Laguerre base is NaN at every node x > 1
    cfg = tmp_path / "u.json"
    cfg.write_text('{"u": {"a": 0.5}}')
    code = main(["probe", "--base", "laguerre", "--mass", "0:1", "--config", str(cfg),
                 "--mode", "restricted-weak", "--p", "4", "--n", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert "NonFiniteWeight" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("base, u", [("laguerre", '{"a": 1.0}'), ("hermite", '{"b": 2.0}')])
def test_probe_rejects_power_weights_off_jacobi_bases_exits_2(capsys, tmp_path, base, u):
    cfg = tmp_path / "u.json"
    cfg.write_text(f'{{"u": {u}}}')
    code = main(["probe", "--base", base, "--mass", "0:1", "--config", str(cfg), "--p", "3", "--n", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert "apply to generalized Jacobi bases" in captured.err
    assert captured.out == ""


def test_probe_takes_mass_values_alone_on_a_laguerre_base(capsys, tmp_path):
    cfg = tmp_path / "u.json"
    cfg.write_text('{"u": {"atMass": [2.0]}}')
    code, doc = run_json(capsys, "probe", "--base", "laguerre", "--mass", "0:1", "--config", str(cfg),
                         "--p", "3", "--n", "30")
    assert code == 0
    assert doc["report"]["u"]["atMass"] == [2.0]


def test_overflowed_basis_table_exits_3_before_the_p2_factorization(capsys):
    # Laguerre P_k(x) overflows at the largest nodes of the 1201-point grid
    with np.errstate(all="ignore"):
        code = main(["probe", "--base", "laguerre", "--mass", "0:1", "--p", "2", "--n", "400"])
    captured = capsys.readouterr()
    assert code == 3
    assert ("NumericalBreakdown: the basis table up to degree 400 overflowed on the grid of 1201 nodes"
            in captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_exits_3_and_writes_nothing(capsys, tmp_path, fmt):
    # the log(1 - x) symbol is -inf at the evaluation point x = 1
    cfg = tmp_path / "log_edge.json"
    cfg.write_text('{"symbol": "log_edge", "points": [0.5, 1.0]}')
    argv = ["commutator", "--base", "legendre", "--n", "6", "--config", str(cfg), "--format", fmt]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "NumericalBreakdown" in captured.err
    assert captured.out == ""
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == 3
    assert not target.exists()


LEGENDRE_MASS = ["--base", "legendre", "--mass", "1:1"]
LEGENDRE_INNER_MASS = ["--base", "legendre", "--mass", "0.3:1"]


@pytest.mark.parametrize("argv", [
    ["weak-probe", *LEGENDRE_MASS, "--p", "4", "--n", "3"],  # no degree sweep starts below n = 4
    ["weak-probe", *LEGENDRE_MASS, "--p", "4", "--n", "5"],  # sweep [4, 5]: one degree in the fitted half
    ["probe", *LEGENDRE_MASS, "--p", "3", "--n", "5"],
])
def test_sweep_too_short_to_fit_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "SpecError" in captured.err
    assert captured.out == ""


GENJACOBI_MEASURE = {
    "base": {"kind": "genjacobi", "alpha": 0.5, "beta": -0.5, "singularities": [{"t": 0.0, "gamma": 1.0}]},
    "masses": [{"location": -1.0, "mass": 0.5}, {"location": 1.0, "mass": 0.5}],
}


@pytest.mark.parametrize("flags", [
    ["--base", "laguerre", "--mass", "0:1"], ["--base", "jacobi"], ["--alpha", "1"], ["--beta", "1"], ["--mass", "0:1"],
])
def test_measure_flags_next_to_config_measure_exit_2(capsys, tmp_path, flags):
    cfg = tmp_path / "measure.json"
    cfg.write_text(json.dumps({"measure": GENJACOBI_MEASURE}))
    code = main(["recurrence", "--config", str(cfg), *flags, "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "SpecError" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    # flags of parameters the command does not have
    ["recurrence", "--p", "3"],
    ["kernel", "--p", "3", "--n", "5"],
    ["check-conditions", "--n", "7"],
    ["endpoints", "--n", "5", "--p", "3"],
    ["kernel", "--mode", "strong"],
    ["probe", "--decompose"],
    # measure flags on a command that builds its own measure
    ["endpoints", "--base", "laguerre", "--mass", "0:1"],
    ["endpoints", "--mass", "1:1"],
    ["endpoints", "--base", "legendre", "--alpha", "0.5"],
    ["endpoints", "--base", "jacobi", "--alpha", "0.5"],
    ["laguerre-mass", "--base", "legendre", "--n", "10"],
    ["laguerre-mass", "--mass", "0:2", "--n", "10"],  # the mass is M from the config, default 1
    ["laguerre-mass", "--beta", "1", "--n", "10"],
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: unrecognized arguments: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, measure", [
    ("laguerre-mass", {"base": {"kind": "hermite"}, "masses": []}),
    ("laguerre-mass", {"base": {"kind": "laguerre", "alpha": 0.5}, "masses": [{"location": 0.0, "mass": 1.0}]}),
    ("endpoints", {"base": {"kind": "hermite"}, "masses": []}),
    ("endpoints", {"base": {"kind": "genjacobi", "alpha": 0.5, "beta": 0.0}, "masses": []}),
])
def test_config_measure_contradicting_a_command_measure_exits_2(capsys, tmp_path, name, measure):
    # the command builds its measure from alpha (and M or beta) at their defaults here
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"measure": measure}))
    code = main([name, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "SpecError" in captured.err
    assert json.dumps(measure, sort_keys=True) in captured.err
    built = COMMANDS[name].measure({"alpha": 0.0, "beta": 0.0, "M": 1.0})
    assert json.dumps(measure_to_dict(built), sort_keys=True) in captured.err


@pytest.mark.parametrize("flags", [
    ["--base", "laguerre", "--beta", "7"],
    ["--alpha", "0.5"],  # the default base, legendre, has no alpha
    ["--base", "legendre", "--alpha", "0.5"],
    ["--base", "hermite", "--alpha", "1"],
    ["--base", "hermite", "--beta", "1"],
])
def test_measure_flag_the_base_has_no_parameter_for_exits_2(capsys, flags):
    code = main(["recurrence", *flags, "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "SpecError" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, base", [
    (["--base", "jacobi", "--alpha", "0.5", "--beta", "0.5"], GenJacobiSpec(0.5, 0.5)),
    (["--base", "laguerre", "--alpha", "1"], LaguerreSpec(1.0)),
])
def test_measure_flags_the_base_takes_still_run(capsys, flags, base):
    code, doc = run_json(capsys, "recurrence", *flags, "--n", "3")
    assert code == 0
    assert doc["config"]["measure"] == measure_to_dict(MeasureSpec(base))
    rec = classical_recurrence(base, 3)
    assert np.array(doc["rows"])[:, 1:].tolist() == np.column_stack([rec.alphas, rec.betas]).tolist()

# (command, flags, config given with the flags or None): one case per row of COMMANDS
REPLAY_CASES = [
    ("recurrence", ["--base", "laguerre", "--mass", "0:1", "--n", "8", "--seed", "7"], None),
    ("basis", ["--base", "jacobi", "--alpha", "0.5", "--beta", "0.5", "--n", "5"], {"points": [0.1, 0.5, 0.95]}),
    ("kernel", [*LEGENDRE_INNER_MASS, "--n", "8", "--decompose"], None),
    ("partial-sum", [*LEGENDRE_INNER_MASS, "--n", "6"], {"f_poly": [0.5, 0.0, 2.0]}),
    ("maximal", [*LEGENDRE_INNER_MASS, "--n", "6"], None),
    ("commutator", [*LEGENDRE_INNER_MASS, "--n", "6"], {"t": 0.2}),
    ("pollard", [*LEGENDRE_MASS, "--n", "12"], None),
    ("probe", [*LEGENDRE_MASS, "--p", "3", "--n", "40", "--seed", "3"], {"u": {"a": 0.25}, "v": {"a": 0.25}}),
    ("weak-probe", [*LEGENDRE_MASS, "--p", "4", "--n", "20", "--seed", "5"], None),
    ("laguerre-mass", ["--alpha", "0.5", "--n", "12"], {"M": 2.0}),
    ("endpoints", ["--alpha", "0.5", "--beta", "0"], None),
    ("check-conditions", [*LEGENDRE_MASS, "--p", "3"], {"u": {"a": 0.25}}),
]


@pytest.mark.parametrize("name, flags, cfg", REPLAY_CASES, ids=[case[0] for case in REPLAY_CASES])
def test_config_replays_byte_identical(capsys, tmp_path, name, flags, cfg):
    if cfg is not None:
        given = tmp_path / "given.json"
        given.write_text(json.dumps(cfg))
        flags = flags + ["--config", str(given)]
    code, first = run(capsys, name, *flags)
    assert code == 0
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(json.loads(first)["config"]))
    code, again = run(capsys, name, "--config", str(replay))
    assert code == 0
    assert again == first


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
    "recurrence": ["--n", "3"],
    "basis": ["--n", "3"],
    "kernel": [*LEGENDRE_INNER_MASS, "--n", "3"],
    "partial-sum": [*LEGENDRE_INNER_MASS, "--n", "3"],
    "maximal": [*LEGENDRE_INNER_MASS, "--n", "3"],
    "commutator": [*LEGENDRE_INNER_MASS, "--n", "3"],
    "pollard": [*LEGENDRE_MASS, "--n", "4"],
    "probe": [*LEGENDRE_INNER_MASS, "--p", "3", "--n", "20"],
    "weak-probe": [*LEGENDRE_INNER_MASS, "--p", "3", "--n", "20"],
    "laguerre-mass": ["--n", "5"],
    "endpoints": [],
    "check-conditions": [*LEGENDRE_INNER_MASS, "--p", "3"],
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
def test_a_command_accepts_only_the_keys_it_reads(monkeypatch, capsys, name, mode):
    cmd, seen = COMMANDS[name], set()
    logged = dataclasses.replace(cmd, run=lambda spec, prm: cmd.run(spec, _ReadLog(prm, seen)))
    monkeypatch.setitem(COMMANDS, name, logged)
    assert main([name, *_ROW_ARGV[name], *(["--mode", mode] if mode else [])]) == 0
    capsys.readouterr()
    accepted = {key for key, _ in _COMMON + cmd.params}
    assert seen <= accepted
    assert accepted - seen == _unread(name, mode)


# a probe grid resolves degree N only with at least N + 1 Gauss nodes

@pytest.mark.parametrize("argv", [
    ["probe", *LEGENDRE_MASS, "--mode", "strong", "--p", "2", "--n", "40"],
    ["weak-probe", *LEGENDRE_MASS, "--p", "4", "--n", "40"],
])
@pytest.mark.parametrize("grid_size, code", [(10, 2), (41, 0)])
def test_probe_grid_must_resolve_the_top_degree(capsys, tmp_path, argv, grid_size, code):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid_size": grid_size}))
    assert main([*argv, "--config", str(cfg)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "GridTooSmall" in captured.err and "at least 41" in captured.err
        assert captured.out == ""
    else:
        assert json.loads(captured.out)["report"]["verdict"] == "bounded"


@pytest.mark.parametrize("name", ["probe", "weak-probe"])
@pytest.mark.parametrize("argv, N, grid_size", [([], 60, 180), (["--n", "20"], 20, 96)])
def test_probe_defaults_are_degree_60_on_a_grid_of_max_3n_96(capsys, name, argv, N, grid_size):
    assert main([name, *LEGENDRE_MASS, "--p", "4", *argv]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["N"], config["grid_size"]) == (N, grid_size)


def test_probe_grid_without_nodes_names_the_grid_size(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"grid_size": -5}')
    assert main(["probe", *LEGENDRE_MASS, "--n", "20", "--config", str(cfg)]) == 2
    assert "grid size -5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, reads", [
    (["recurrence", "--n", "4"], "gird_size", "seed, N, measure"),
    (["recurrence", "--n", "4"], "grid_size", "seed, N, measure"),
    (["probe", *LEGENDRE_MASS, "--n", "20"], "grid-size", "seed, u, v, mode, p, N, grid_size, t, symbol, measure"),
    (["laguerre-mass", "--n", "8"], "m", "seed, alpha, M, N, measure"),
    # a weight on a command that reads none, and v on weak-probe, which takes u alone
    (["recurrence", "--n", "3"], "u", "seed, N, measure"),
    (["kernel", "--n", "3"], "v", "seed, n, a, points, decompose, measure"),
    (["weak-probe", *LEGENDRE_MASS, "--n", "20"], "v", "seed, u, mode, p, N, grid_size, measure"),
    (["weak-probe", *LEGENDRE_MASS, "--n", "20"], "symbol", "seed, u, mode, p, N, grid_size, measure"),
    (["check-conditions", *LEGENDRE_MASS], "N", "seed, u, v, p, measure"),
])
def test_unknown_config_keys_are_rejected(capsys, tmp_path, argv, key, reads):
    # the degree alone sizes a basis, so grid_size is a key of the probe commands only
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({key: 5}))
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SpecError: config key {key!r} is not read by {argv[0]}; it reads {reads}\n"


@pytest.mark.parametrize("argv", [["recurrence", "--n", "-1"], ["laguerre-mass", "--n", "-1"]])
def test_a_negative_degree_exits_2_and_names_its_bound(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DegreeOutOfRange: degree -1 is below 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["weak-probe"],
    ["weak-probe", "--mode", "restricted-weak"],
    ["probe", "--mode", "restricted-weak"],
])
def test_weak_modes_reject_v(capsys, tmp_path, argv):
    cfg = tmp_path / "v.json"
    cfg.write_text('{"v": {"a": 0.25}}')
    assert main([*argv, *LEGENDRE_MASS, "--p", "4", "--n", "30", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "SpecError" in captured.err and captured.out == ""


@pytest.mark.parametrize("mode, flag", [("strong", True), ("maximal", True), ("commutator", True),
                                        ("maximal", False), ("strong", False)])
def test_weak_probe_runs_only_the_restricted_weak_probe(capsys, tmp_path, mode, flag):
    cfg = tmp_path / "mode.json"
    cfg.write_text("{}" if flag else json.dumps({"mode": mode}))
    argv = ["weak-probe", *LEGENDRE_MASS, "--p", "3", "--n", "20", "--config", str(cfg)]
    if flag:
        # --mode offers restricted-weak alone, so argparse rejects the others
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mode", mode])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"invalid choice: '{mode}'" in captured.err and "[--mode {restricted-weak}]" in captured.err
    else:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"SpecError: mode must be one of ('restricted-weak',), got '{mode}'" in captured.err
    assert captured.out == ""


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
def test_probe_reports_record_the_weights_used(capsys, tmp_path, mode, weights, recorded):
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps(weights))
    code, doc = run_json(capsys, "probe", *LEGENDRE_INNER_MASS, "--mode", mode, "--p", "3", "--n", "30",
                         "--config", str(cfg))
    assert code == 0
    assert (doc["report"]["u"], doc["report"]["v"]) == recorded


@pytest.mark.parametrize("command", ["probe", "weak-probe"])
def test_weak_mode_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *LEGENDRE_MASS, "--mode", "weak", "--p", "4", "--n", "30"])
    assert exc.value.code == 2
    assert "invalid choice: 'weak'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["probe", "weak-probe"])
def test_weak_mode_config_exits_2(capsys, tmp_path, command):
    cfg = tmp_path / "mode.json"
    cfg.write_text('{"mode": "weak"}')
    assert main([command, *LEGENDRE_MASS, "--p", "4", "--n", "30", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "SpecError" in captured.err and "mode must be one of" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, cfg", [
    # a misspelt weight key would run unweighted
    (["weak-probe", *LEGENDRE_MASS, "--p", "4", "--n", "30"], {"u": {"alpha": 0.25}}),
    (["probe", *LEGENDRE_MASS, "--p", "3", "--n", "30"], {"v": {"a": 0.25, "at_mass": [2.0]}}),
    (["check-conditions", *LEGENDRE_MASS, "--p", "3"], {"u": {"A": 0.25}}),
    # a misspelt measure key would build another measure
    (["recurrence", "--n", "2"], {"measure": {"base": {"kind": "genjacobi", "alfa": 0.5}}}),
    (["recurrence", "--n", "2"], {"measure": {"base": {"kind": "laguerre", "beta": 0.5}}}),
    (["recurrence", "--n", "2"], {"measure": {"base": {"kind": "hermite"}, "mass": [{"location": 0, "mass": 1}]}}),
    (["recurrence", "--n", "2"],
     {"measure": {"base": {"kind": "hermite"}, "masses": [{"location": 0, "mass": 1, "weight": 2}]}}),
    (["recurrence", "--n", "2"],
     {"measure": {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": 1.0, "g": 1.0}]}}}),
    # a weight list with the wrong length for the measure
    (["probe", *LEGENDRE_MASS, "--p", "3", "--n", "30"], {"u": {"atMass": [3.0, 5.0]}}),
    (["weak-probe", *LEGENDRE_MASS, "--p", "4", "--n", "30"], {"u": {"g": [0.5]}}),
    (["probe", "--p", "3", "--n", "30"], {"v": {"atMass": [2.0]}}),
    (["check-conditions", *LEGENDRE_MASS, "--p", "3"], {"u": {"g": [0.5]}}),
    (["probe", "--p", "3", "--n", "30", "--mode", "maximal"],
     {"measure": GENJACOBI_MEASURE, "u": {"g": [0.5, 0.5]}}),
])
def test_unknown_keys_and_mismatched_weight_lists_exit_2(capsys, tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "SpecError" in captured.err and captured.out == ""


def test_weight_lists_matching_the_measure_run(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": GENJACOBI_MEASURE, "u": {"g": [0.25], "atMass": [2.0, 0.5]}}))
    code, doc = run_json(capsys, "probe", "--p", "3", "--n", "30", "--mode", "maximal", "--config", str(cfg))
    assert code == 0
    assert doc["report"]["u"] == _record(g=[0.25], at_mass=[2.0, 0.5])


HUGE = 10**400  # an int too large for a float
ONE_SINGULARITY = {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": 1.0}]}}
STRING_LOCATION = {"location": "1", "mass": 1}


@pytest.mark.parametrize("argv, cfg, message", [
    (["recurrence"], {"N": "10"}, 'config key \'N\' must be an integer, got "10"'),
    (["recurrence"], {"N": 10.5}, "config key 'N' must be an integer, got 10.5"),
    (["recurrence"], {"N": None}, "config key 'N' must be an integer, got null"),
    (["recurrence"], {"N": True}, "config key 'N' must be an integer, got true"),  # would run as N = 1
    (["probe", *LEGENDRE_MASS], {"p": "3"}, 'config key \'p\' must be a number, got "3"'),
    (["probe", *LEGENDRE_MASS], {"grid_size": 100.5}, "config key 'grid_size' must be an integer, got 100.5"),
    (["probe", *LEGENDRE_MASS, "--p", "3"], {"seed": "x"}, 'config key \'seed\' must be an integer, got "x"'),
    (["probe", *LEGENDRE_MASS, "--p", "2"], {"seed": "x"}, 'config key \'seed\' must be an integer, got "x"'),
    (["basis"], {"points": 5}, "config key 'points' must be a list of numbers, got 5"),
    (["partial-sum"], {"f_poly": [1.0, "x"]}, 'config key \'f_poly\' must be a list of numbers, got [1.0, "x"]'),
    (["kernel", *LEGENDRE_INNER_MASS], {"decompose": 1}, "config key 'decompose' must be true or false, got 1"),
    (["laguerre-mass"], {"M": False}, "config key 'M' must be a number, got false"),
    (["commutator"], {"symbol": 2}, "config key 'symbol' must be a string, got 2"),
    (["weak-probe", *LEGENDRE_MASS], {"u": 0.25}, "config key 'u' must be a weight object or null, got 0.25"),
    # a non-finite number is no number
    (["basis", "--n", "3"], {"points": [math.nan, 0.5]}, "config key 'points' must be a list of numbers, got [NaN, 0.5]"),
    (["kernel", "--n", "3"], {"a": math.nan}, "config key 'a' must be a number, got NaN"),
    (["commutator", *LEGENDRE_INNER_MASS, "--n", "3"], {"t": math.inf}, "config key 't' must be a number, got Infinity"),
    (["probe", *LEGENDRE_MASS], {"p": -math.inf}, "config key 'p' must be a number, got -Infinity"),
    # nor is an int too large for a float
    (["check-conditions"], {"p": HUGE}, f"config key 'p' must be a number, got {HUGE}"),
    (["commutator", *LEGENDRE_INNER_MASS, "--n", "3"], {"t": HUGE}, f"config key 't' must be a number, got {HUGE}"),
    # a measure or weight value is read by the same JSON types, and a missing key is named where it is missing
    (["probe", "--p", "3", "--n", "20"],
     {"measure": {"base": {"kind": "genjacobi", "alpha": True, "beta": "0.5"}, "masses": [STRING_LOCATION]},
      "u": {"a": "0.25"}},
     "genjacobi base key 'alpha' must be a number, got true"),
    (["recurrence", "--n", "3"], {"measure": {"base": {"kind": "genjacobi", "beta": "0.5"}}},
     'genjacobi base key \'beta\' must be a number, got "0.5"'),
    (["recurrence", "--n", "3"], {"measure": {"base": {"kind": "genjacobi"}, "masses": [STRING_LOCATION]}},
     'masses[0] key \'location\' must be a number, got "1"'),
    (["check-conditions", "--p", "3"], {"u": {"a": "0.25"}}, 'weight key \'a\' must be a number, got "0.25"'),
    (["check-conditions", "--p", "3"], {"measure": ONE_SINGULARITY, "u": {"g": "12"}},
     'weight key \'g\' must be a list of numbers, got "12"'),
    (["check-conditions", *LEGENDRE_INNER_MASS, "--p", "3"], {"u": {"atMass": "5"}},
     'weight key \'atMass\' must be a list of numbers, got "5"'),
    (["check-conditions", *LEGENDRE_INNER_MASS, "--p", "3"], {"u": {"atMass": [5], "a": True}},
     "weight key 'a' must be a number, got true"),
    (["recurrence", "--n", "3"], {"measure": {"base": {"kind": "genjacobi"}, "masses": [{"mass": 1}]}},
     "masses[0] lacks the required key(s) ['location']"),
    (["recurrence", "--n", "3"], {"measure": {"base": {"kind": "genjacobi", "singularities": "0.5:1"}}},
     'genjacobi base key \'singularities\' must be a list, got "0.5:1"'),
])
def test_config_values_of_the_wrong_json_type_exit_2(capsys, tmp_path, argv, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SpecError: {message}\n"


def test_restricted_weak_probe_reports_no_strong_type_conditions(capsys):
    # restricted weak type holds at the endpoint p = 4, where the strong-type conditions fail
    code, doc = run_json(capsys, "probe", *LEGENDRE_MASS, "--p", "4", "--n", "20", "--mode", "restricted-weak")
    assert code == 0
    assert doc["report"]["verdict"] == "bounded"
    assert set(doc) == {"command", "config", "report", "schema_version"}


def test_config_values_are_recorded_as_given(capsys, tmp_path):
    # an integer read as a real number stays an integer, so the recorded config replays byte for byte
    path = tmp_path / "cfg.json"
    path.write_text('{"p": 3, "u": {"a": 0.25}}')
    code, doc = run_json(capsys, "check-conditions", *LEGENDRE_MASS, "--config", str(path))
    assert code == 0
    assert json.dumps(doc["config"]["p"]) == "3"


NAN_GAMMA = {"measure": {"base": {"kind": "genjacobi", "singularities": [{"t": 0.0, "gamma": math.nan}]}}}


@pytest.mark.parametrize("argv, cfg, error", [
    (["recurrence", "--mass", "0:inf", "--n", "3"], None, "MassNotPositive"),
    (["recurrence", "--base", "hermite", "--mass", "inf:1", "--n", "3"], None, "SpecError"),
    (["recurrence", "--base", "jacobi", "--alpha", "inf", "--n", "3"], None, "ExponentOutOfRange"),
    (["recurrence", "--base", "jacobi", "--alpha", "nan", "--n", "3"], None, "ExponentOutOfRange"),
    (["recurrence", "--n", "3"], NAN_GAMMA, "ExponentOutOfRange"),
    (["check-conditions", "--p", "3"], {"u": {"a": math.nan}}, "NonFiniteWeight"),
    (["endpoints", "--alpha", "inf"], None, "ExponentOutOfRange"),
    # a measure that cannot be built, which the recorded config would not replay
    (["endpoints", "--alpha", "-5", "--beta", "0"], None, "ExponentOutOfRange"),
    # check-conditions reads no weight values, but a weight cannot be built with one outside (0, inf)
    (["check-conditions", *LEGENDRE_INNER_MASS, "--p", "3"], {"u": {"atMass": [0]}}, "SpecError"),
    (["laguerre-mass", "--alpha", "nan", "--n", "5"], None, "ExponentOutOfRange"),
    # an int too large for a float reads as an infinity
    (["recurrence", "--n", "3"], {"measure": {"base": {"kind": "genjacobi", "alpha": HUGE}}}, "ExponentOutOfRange"),
    (["check-conditions", "--p", "3"], {"u": {"a": -HUGE}}, "NonFiniteWeight"),
])
def test_non_finite_or_out_of_domain_measures_exit_2(capsys, tmp_path, argv, cfg, error):
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{error}: ")
