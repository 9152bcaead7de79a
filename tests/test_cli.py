import json

import numpy as np
import pytest

from masspoly import GenJacobiSpec, LaguerreSpec, MassPoint, MeasureSpec, legendre
from masspoly.cli import main
from masspoly.oracle import oracle_recurrence


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


def test_probe_laguerre_mass_p2_is_projection(capsys):
    # at p = 2 with unit weights every S_n is an orthogonal projection in L^2(nu)
    code, doc = run_json(capsys, "probe", "--base", "laguerre", "--mass", "0:1", "--p", "2", "--n", "60")
    assert code == 0
    vals = np.array([v for _, v in doc["report"]["entries"]])
    assert np.all(np.abs(vals - 1.0) < 1e-8)


def test_weak_probe_defaults_to_restricted(capsys):
    code, doc = run_json(capsys, "weak-probe", "--base", "legendre", "--mass", "1:1", "--p", "4", "--n", "30")
    assert code == 0
    assert doc["report"]["mode"] == "restricted-weak"


def test_endpoints_legendre(capsys):
    code, doc = run_json(capsys, "endpoints", "--base", "legendre")
    assert code == 0
    assert doc["p0"] == pytest.approx(4.0 / 3.0)
    assert doc["p1"] == pytest.approx(4.0)


def test_endpoints_undefined_exits_2():
    assert main(["endpoints", "--base", "jacobi", "--alpha", "-0.6", "--beta", "-0.7"]) == 2


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
