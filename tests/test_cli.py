import json
import math

import numpy as np
import pytest

from septrans.cli import main, read_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_builtin_passes(capsys):
    code, out = run(capsys, "validate", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "kinetic_positive_definite" in names
    assert "loop_restriction_residual" in names
    assert all(c["passed"] for c in doc["checks"])


def test_validate_failure_exit_one(capsys):
    # f0 > 1/2 destroys the nondegenerate maximum of the reduced potential
    code, out = run(capsys, "validate", "--model", "pendula_identical",
                    "--params", "f0=0.6")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "potential_maximum_nondegenerate" in failed


def test_validate_csv_format(capsys):
    code, out = run(capsys, "validate", "--model", "pendula_identical",
                    "--params", "f0=0.1", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.split(",")[1] == "pass" for l in lines)


def test_missing_model_is_usage_error(capsys):
    code, _ = run(capsys, "validate")
    assert code == 2


def test_missing_params_is_usage_error(capsys):
    code, _ = run(capsys, "riccati", "--model", "neumann")
    assert code == 2


def test_bad_param_value_is_usage_error(capsys):
    code, _ = run(capsys, "riccati", "--model", "neumann",
                  "--params", "lambda1=x", "lambda2=2")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code = main(["riccati", "--model", "neumann", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_riccati_table(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _ = run(capsys, "riccati", "--model", "neumann",
                  "--params", "lambda1=1", "lambda2=2",
                  "--grid", "0:2:41", "--out", str(out_file))
    assert code == 0
    comments, header, rows = read_table(str(out_file))
    assert header == ["q1", "Tu"]
    assert float(comments["T0"]) == pytest.approx(2.0, abs=1e-14)
    assert float(comments["Delta"]) == pytest.approx(4.0, abs=1e-14)
    assert comments["blow_up"] == "false"
    assert rows.shape == (41, 2)
    assert rows[0, 0] == 0.0 and rows[0, 1] == pytest.approx(2.0, abs=1e-14)
    assert rows[-1, 1] == pytest.approx(0.625, abs=1e-7)


def test_riccati_roundtrip_is_bit_exact(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    run(capsys, "riccati", "--model", "pendula_identical", "--params",
        "f0=0.18", "--grid", "0:3:21", "--out", str(out_file))
    _, _, rows = read_table(str(out_file))
    # 17 significant digits reproduce the binary doubles exactly
    from septrans.models import builtin_model
    from septrans.riccati import solve_riccati
    sol = solve_riccati(builtin_model("pendula_identical", [0.18]), 3.0)
    for q1, Tu in rows:
        assert Tu == sol(q1)


def test_riccati_json_format(capsys):
    code, out = run(capsys, "riccati", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2",
                    "--grid", "0:2:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["q1", "Tu"]
    assert len(doc["rows"]) == 5


def test_riccati_blow_up_exit_three(capsys):
    code = main(["riccati", "--model", "neumann", "--params", "lambda1=1",
                 "lambda2=2", "--cap", "1.5"])
    capsys.readouterr()
    assert code == 3


def test_negative_rtol_is_usage_error(capsys):
    code = main(["riccati", "--model", "neumann", "--params", "lambda1=1",
                 "lambda2=2", "--rtol=-1e-9"])
    capsys.readouterr()
    assert code == 2


def test_transversality_sphere(capsys):
    code, out = run(capsys, "transversality", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "transversal"
    assert doc["gap"] == pytest.approx(0.75, abs=1e-7)
    assert doc["q1_star"] == 2.0


def test_transversality_torus_tangent(capsys):
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "tangent"
    # an explicit --rtol is used as given, even when it equals the
    # Riccati default; the verdict's own default solve is tighter
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0", "--rtol", "1e-9")
    assert code == 0
    assert abs(json.loads(out)["gap"]) > 1e3 * abs(doc["gap"])


def test_transversality_csv(capsys):
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0.18", "--format", "csv")
    assert code == 0
    assert "# verdict = transversal" in out


def test_melnikov_table(capsys):
    code, out = run(capsys, "melnikov", "--model", "pendula_weak",
                    "--params", "lam=1", "--grid=-2:2:9")
    assert code == 0
    lines = out.splitlines()
    comments = {l[1:].split("=", 1)[0].strip(): l.split("=", 1)[1].strip()
                for l in lines if l.startswith("#")}
    assert float(comments["ddL0"]) == pytest.approx(-8.0, abs=1e-9)
    assert comments["verdict"] == "perturbed_loop_transversal"
    data = np.array([[float(c) for c in l.split(",")]
                     for l in lines if "," in l and not l[0].isalpha()
                     and not l.startswith("#")])
    assert data.shape == (9, 2)
    assert abs(data[4, 1]) < 1e-12  # L~(0) = 0


def test_melnikov_rejects_other_models(capsys):
    code, _ = run(capsys, "melnikov", "--model", "neumann",
                  "--params", "lambda1=1", "lambda2=2")
    assert code == 2


def test_melnikov_near_threshold_note(capsys):
    code, out = run(capsys, "melnikov", "--model", "pendula_weak",
                    "--params", "lam=3.6808", "--grid=-1:1:5")
    assert code == 0
    assert "near_threshold" in out


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nmodel = neumann\n"
        "[params]\nlambda1 = 1\nlambda2 = 2\n"
        "[solver]\nrtol = 1e-8\n"
        "[output]\nformat = json\n")
    code, out = run(capsys, "riccati", "--config", str(cfg), "--grid", "0:2:3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    # flag wins over the file
    code, out = run(capsys, "riccati", "--config", str(cfg),
                    "--grid", "0:2:3", "--format", "csv")
    assert code == 0
    assert out.startswith("#")


def test_config_file_missing(capsys):
    code = main(["riccati", "--config", "/nonexistent.ini"])
    capsys.readouterr()
    assert code == 2


def test_sweep_ordered_output(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _ = run(capsys, "sweep", "--model", "pendula_identical",
                  "--sweep", "f0=0:0.3:4", "--out", str(out_file))
    assert code == 0
    comments, header, rows = read_table(str(out_file))
    assert comments["sweep_param"] == "f0"
    assert header[0] == "f0"
    assert np.allclose(rows[:, 0], np.linspace(0.0, 0.3, 4))
    # f0 = 0 is the tangent separable case, the rest are transversal
    assert rows[0, -1] == 0.0
    assert np.all(rows[1:, -1] == 1.0)
    # Tu column matches the constant-coupling closed form
    for f0, Tu in zip(rows[1:, 0], rows[1:, 1]):
        b = math.sqrt(1.0 - 2.0 * f0)
        assert Tu == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-8)


def test_sweep_requires_spec(capsys):
    code, _ = run(capsys, "sweep", "--model", "pendula_identical",
                  "--params", "f0=0.1")
    assert code == 2


def test_module_entry_point():
    import os
    import subprocess
    import sys
    import septrans
    # the child process imports the same septrans as this one
    src = os.path.dirname(os.path.dirname(septrans.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    r = subprocess.run([sys.executable, "-m", "septrans", "validate",
                        "--model", "neumann", "--params", "lambda1=1",
                        "lambda2=2"], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True
