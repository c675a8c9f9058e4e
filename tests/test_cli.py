import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from septrans import riccati
from septrans.charts import chart_transversality
from septrans.cli import (FMT, _finite_or_null, build_parser, failure,
                          format_json, format_table, main, make_model)
from septrans.models import ConstructionError, HypothesesError, builtin_model
from septrans.numerics import parse_grid
from septrans.riccati import SolverOptions
from test_rk45 import GOLDEN


def read_table(path: str):
    """Re-read a table made by cli.format_table: (comments, header, rows)."""
    comments: dict = {}
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    comments[k.strip()] = v.strip()
                continue
            if not header:
                header = [c.strip() for c in line.split(",")]
                continue
            rows.append([float(c) for c in line.split(",")])
    return comments, header, np.array(rows)


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


@pytest.mark.parametrize("model, params", [
    ("neumann", ["lambda1=1e200", "lambda2=2e200"]),
    ("pendula_weak", ["lam=1e300"])])
def test_validate_of_an_overflow_is_silent(capsys, model, params):
    # the coefficients overflow to inf and nan: the checks fail, with
    # nothing on stderr and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate", "--model", model, "--params", *params])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert strict_json(out)["ok"] is False


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


def test_param_without_value_is_usage_error(capsys):
    code, _ = run(capsys, "riccati", "--model", "neumann",
                  "--params", "lambda1", "lambda2=2")
    assert code == 2


def test_grid_spec_needs_three_fields():
    with pytest.raises(ValueError, match="grid spec must be a:b:n"):
        parse_grid("0:1")


def test_grid_spec_with_a_non_integer_n_is_usage_error(capsys):
    with pytest.raises(ValueError, match="integer n, got '0:2:1e3'"):
        parse_grid("0:2:1e3")
    code = main(["riccati", "--model", "neumann", "--params", "lambda1=1",
                 "lambda2=2", "--grid", "0:2:1e3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: grid spec needs numbers a, b and an "
                            "integer n, got '0:2:1e3'\n")


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
    assert "blow_up" not in comments
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


def test_riccati_rows_match_the_solver_golden(capsys):
    # the pieces and the writer end to end: neumann's Tu on the 9-point
    # grid is test_rk45's golden slope, printed at FMT
    code, out = run(capsys, "riccati", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2", "--grid", "0:2:9")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "q1,Tu"
    want = GOLDEN[("neumann", (1.0, 2.0), "plain")][2]
    assert [line.split(",")[1] for line in lines[1:]] == [
        FMT % float.fromhex(h) for h in want]


def value_by_value_table(stream, comments, header, rows):
    """format_table's reference: each value formatted on its own and a write
    per line."""
    for k, v in comments.items():
        if isinstance(v, float):
            v = FMT % v
        stream.write("# %s = %s\n" % (k, v))
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(FMT % x for x in row) + "\n")


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
               -1e-300, 0.1, 2.0]


@pytest.mark.parametrize("rows", [
    [], [(0.0, 1.0)], [EDGE_VALUES[i:i + 5] for i in range(6)],
    [(v, -v, 3) for v in EDGE_VALUES]])
def test_write_table_bytes_match_value_by_value(rows):
    header = ["c%d" % i for i in range(len(rows[0]) if rows else 2)]
    comments = {"model": "neumann", "x": math.nan, "y": -0.0, "z": 5e-324,
                "n": 3, "flag": "true"}
    want = io.StringIO()
    value_by_value_table(want, comments, header, rows)
    assert format_table(comments, header, rows) == want.getvalue()


def test_write_json_bytes_match_json_dump():
    doc = {"model": "pendula_weak", "params": {"lam": 2.5},
           "rows": [(0.0, math.nan), [math.inf, -0.0], (5e-324, 1e300)],
           "nested": {"a": [{"b": (1, -math.inf, "c")}], "d": None,
                      "e": True, "f": []},
           "empty": {}}
    got, want = format_json(doc), io.StringIO()
    json.dump(_finite_or_null(doc), want, indent=2, allow_nan=False)
    want.write("\n")
    assert got == want.getvalue()
    back = json.loads(got)
    assert back["rows"][0] == [0.0, None] and back["rows"][1][0] is None
    assert back["nested"]["a"][0]["b"] == [1, None, "c"]


def test_riccati_json_format(capsys):
    code, out = run(capsys, "riccati", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2",
                    "--grid", "0:2:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["q1", "Tu"]
    assert len(doc["rows"]) == 5


def test_riccati_reports_startup_sensitivity_ok(capsys):
    args = ("riccati", "--model", "neumann", "--params", "lambda1=1",
            "lambda2=2", "--grid", "0:2:5")
    code, out = run(capsys, *args)
    assert code == 0
    assert "# startup_sensitivity_ok = true" in out.splitlines()
    code, out = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["comments"]["startup_sensitivity_ok"] == "true"


def test_riccati_reports_startup_sensitivity_not_ok(capsys):
    # on pendula_identical [0.35, 0.1] the start-up error reaches the
    # matching point at 4e-4, above 100 rtol
    args = ("riccati", "--model", "pendula_identical", "--params", "f0=0.35",
            "f1=0.1", "--grid", "0:3:4")
    code, out = run(capsys, *args)
    assert code == 0
    assert "# startup_sensitivity_ok = false" in out.splitlines()
    code, out = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out)["comments"]["startup_sensitivity_ok"] == "false"


def test_riccati_blow_up_exit_three(capsys):
    # on pendula_identical [2, -1.9] the slope passes the cap 1e8 at q1 =
    # 2.37514, before the matching point pi
    code = main(["riccati", "--model", "pendula_identical", "--params",
                 "f0=2", "f1=-1.9"])
    capsys.readouterr()
    assert code == 3


def test_start_beyond_cap_exit_three(capsys, monkeypatch):
    # neumann [1, 2] starts at T0 = 2
    monkeypatch.setattr(riccati, "CAP", 0.3)
    code = main(["transversality", "--model", "neumann", "--params",
                 "lambda1=1", "lambda2=2"])
    assert "beyond the cap" in capsys.readouterr().err
    assert code == 3


def test_blow_up_in_flight_exit_three(capsys, monkeypatch):
    # on pendula_identical [0.45] the slope rises from T0 = 0.66 past 1
    # before the matching point pi
    monkeypatch.setattr(riccati, "CAP", 1.0)
    code = main(["transversality", "--model", "pendula_identical",
                 "--params", "f0=0.45"])
    err = capsys.readouterr().err
    assert code == 3
    assert "q1=2.9517" in err and "q1_target" in err


def test_step_floor_exit_three_is_not_a_blow_up(capsys, monkeypatch):
    # a slope solve that ends on dop853's step-size floor, with no event
    original = riccati.solve_ivp

    def stalled(*args, **kwargs):
        sol = original(*args, **kwargs)
        sol.success, sol.event = False, None
        return sol

    monkeypatch.setattr(riccati, "solve_ivp", stalled)
    code = main(["transversality", "--model", "neumann", "--params",
                 "lambda1=1", "lambda2=2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "step size fell below its floor" in err and "blow-up" not in err


@pytest.mark.parametrize("model, params, epsilon", [
    ("neumann", ["lambda1=1", "lambda2=2"], "5"),
    ("pendula_identical", ["f0=0.2"], "3.5")])
def test_start_at_or_past_matching_point_is_usage_error(capsys, model,
                                                        params, epsilon):
    code = main(["transversality", "--model", model, "--params", *params,
                 "--epsilon", epsilon])
    assert "epsilon" in capsys.readouterr().err
    assert code == 2


@pytest.mark.parametrize("model, params, epsilon, ceiling", [
    # the defaults 1e-4 of the domain, 2 pi 1e-4 and 8e-4, printed so that
    # they read back as themselves
    ("pendula_identical", ["f0=0.2"], "3", "0.0006283185307179586"),
    ("neumann", ["lambda1=1", "lambda2=2"], "1e-3", "0.0008")])
def test_start_offset_above_its_default_is_usage_error(capsys, model, params,
                                                       epsilon, ceiling):
    # a wider start read transversal at f0 = 0.2 (gap +1.43, where the
    # default start gives -0.516)
    code = main(["transversality", "--model", model, "--params", *params,
                 "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "epsilon=%g" % float(epsilon) in captured.err
    assert "ceiling %s" % ceiling in captured.err


@pytest.mark.parametrize("spec", ["1.5:inf:3", "-1e308:1e308:3",
                                  "1:1e308:3"])
def test_non_finite_grid_is_usage_error(capsys, spec):
    # an infinite end, a span b - a that overflows, or a finite span whose
    # (b - a) * (n - 1), which each point's formula forms, overflows
    with pytest.raises(ValueError, match="finite"):
        parse_grid(spec)
    code = main(["sweep", "--model", "neumann", "--params", "lambda1=1",
                 "--sweep", "lambda2=" + spec])
    assert capsys.readouterr().out == ""
    assert code == 2


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


def test_transversality_torus_tangent(capsys, monkeypatch):
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "tangent"
    # an explicit --rtol is the first rung, used as given: at 1e-12 it
    # decides in one solve, tighter than the default's deciding 1e-11
    rtols = []
    original = riccati.solve_ivp

    def recording(fun, t_span, y0, rtol, *args, **kwargs):
        rtols.append(rtol)
        return original(fun, t_span, y0, rtol, *args, **kwargs)

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0", "--rtol", "1e-12")
    assert code == 0 and rtols == [1e-12]
    model = builtin_model("pendula_identical", [0.0])
    given = chart_transversality(
        model, opts=SolverOptions(rtol=1e-12, sensitivity_check=False))
    assert json.loads(out)["gap"] == given.gap
    assert abs(given.gap) < abs(doc["gap"])


def test_cosine_index_above_the_cap_is_refused_unbuilt(capsys):
    # f50000000 would take a 50,000,001-entry list (about 10 GB with its
    # params dict); the refusal comes before any list is built
    import tracemalloc
    from septrans.cli import MAX_COSINE_INDEX, UsageError
    big = {"f0": 0.2, "f%d" % (MAX_COSINE_INDEX + 1): 1e-9}
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="up to f%d" % MAX_COSINE_INDEX):
            make_model("pendula_identical", big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    code, _ = run(capsys, "validate", "--model", "pendula_identical",
                  "--params", "f0=0.2", "f50000000=1e-9")
    assert code == 2
    assert make_model("pendula_identical", {"f0": 0.2, "f%d"
                                            % MAX_COSINE_INDEX: 0.0})


def test_grid_size_above_the_cap_is_refused_unbuilt(capsys):
    # the refusal names the cap and comes before the grid's list is built;
    # the cap itself is a valid size
    import tracemalloc
    from septrans.numerics import MAX_GRID_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_GRID_POINTS=%d"
                           % MAX_GRID_POINTS):
            parse_grid("0:1:%d" % (MAX_GRID_POINTS + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    for args in (["riccati", "--model", "neumann", "--params", "lambda1=1",
                  "lambda2=2", "--grid", "0:2:%d" % (MAX_GRID_POINTS + 1)],
                 ["sweep", "--model", "pendula_weak", "--sweep",
                  "lam=1:2:%d" % (MAX_GRID_POINTS + 1)]):
        code, _ = run(capsys, *args)
        assert code == 2
    assert len(parse_grid("0:1:%d" % MAX_GRID_POINTS)) == MAX_GRID_POINTS


def test_zero_coefficients_cost_nothing(capsys, monkeypatch):
    # 20,000 zero cosine terms change no figure of the report and cost no
    # cos in a jet call
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0.2", "f20000=0")
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("params") == {"f0": 0.2, "f20000": 0.0}
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0.2")
    want = json.loads(out)
    del want["params"]
    assert doc == want
    models = [make_model("pendula_identical", params)
              for params in ({"f0": 0.2, "f20000": 0.0}, {"f0": 0.2})]
    calls = []
    cos = math.cos
    monkeypatch.setattr(math, "cos", lambda x: calls.append(x) or cos(x))
    for m in models:
        m.jet(1.0)
    # cos q1, which the coupling's f0 + f1 cos q1 reuses, and cos(q1 / 2)
    assert len(calls) == 4 and calls[:2] == calls[2:]


def test_transversality_csv(capsys):
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0.18", "--format", "csv")
    assert code == 0
    assert "# verdict = transversal" in out


# the two outputs that are not plain tables, byte for byte: neumann's jet
# is arithmetic and sqrt alone, so these bits are the same on every
# supported Python
NEUMANN_BYTES = {
    ("validate", "csv"): (
        "kinetic_positive_definite,pass,min b110=1; min det B0=1 on "
        "257-point grid\n"
        "critical_point_at_origin,pass,V0(0)=-0.00e+00; V0'(0)=-0.00e+00; "
        "V1(0)=0.00e+00\n"
        "potential_maximum_nondegenerate,pass,A=[[1; -0];[-0; 4]]; det=4\n"
        "potential_negative_on_interior,pass,max interior V0=-0.000488\n"
        "no_first_order_kinetic_term,pass,structural: B1 fields do not "
        "exist\n"
        "loop_restriction_residual,pass,max residual 0 on 257-point grid\n"),
    ("transversality", "csv"): (
        "# model = neumann\n"
        "q1_star,Tu,Ts_hat,gap,tol\n"
        "2,0.62500000002342648,-0.12500000002342648,0.75000000004685297,"
        "1.9999999999999999e-06\n"
        "# verdict = transversal\n"),
    ("transversality", "json"): (
        '{\n  "model": "neumann",\n  "params": {\n    "lambda1": 1.0,\n'
        '    "lambda2": 2.0\n  },\n  "q1_star": 2.0,\n'
        '  "Tu": 0.6250000000234265,\n  "Ts_hat": -0.12500000002342648,\n'
        '  "gap": 0.750000000046853,\n  "tol": 2e-06,\n'
        '  "tol_tangent": 2e-10,\n  "verdict": "transversal",\n'
        '  "rtol": 1e-09\n}\n'),
}


@pytest.mark.parametrize("command, fmt", sorted(NEUMANN_BYTES))
def test_neumann_report_bytes(capsys, command, fmt):
    code, out = run(capsys, command, "--model", "neumann", "--params",
                    "lambda1=1", "lambda2=2", "--format", fmt)
    assert code == 0
    assert out == NEUMANN_BYTES[command, fmt]


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


def test_melnikov_reports_quadrature_diagnostics(capsys):
    argv = ["melnikov", "--model", "pendula_weak", "--params", "lam=2",
            "--grid=-2:2:5"]
    code, out = run(capsys, *argv)
    assert code == 0
    comments = {l[1:].split("=", 1)[0].strip(): float(l.split("=", 1)[1])
                for l in out.splitlines()
                if l.startswith("#") and l[1:].split("=", 1)[0].strip()
                in ("t_cut", "tail_bound", "quad_error")}
    # the widest window, at |s| = 2: 19.05 past |s|
    from septrans import melnikov
    pert = builtin_model("pendula_weak", [2.0]).perturbation
    assert comments["t_cut"] == melnikov._window(2.0, melnikov._rule(pert))[0]
    assert 0.0 <= comments["tail_bound"] <= 1e-12
    assert 0.0 <= comments["quad_error"] <= 1e-12
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert {k: json.loads(out)["comments"][k] for k in comments} == comments


def test_melnikov_comment_order(capsys):
    # keys and order only: the last digits of the values vary with libm
    # and numpy
    want = ["model", "dL0", "ddL0", "verdict", "t_cut", "tail_bound",
            "quad_error", "dL_t_cut", "dL_tail_bound", "dL_quad_error",
            "dL_error_bound", "near_threshold"]
    argv = ["melnikov", "--model", "pendula_weak", "--params", "lam=3.675",
            "--grid=-2:2:5"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert [l[1:].split("=", 1)[0].strip() for l in out.splitlines()
            if l.startswith("#")] == want
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["comments"]) == want


def test_melnikov_non_finite_derivative_exits_three(capsys, monkeypatch):
    from septrans import melnikov

    def nan_slope(pert, diag=None):
        diag.update(error_bound=1e-12)
        return math.nan, -8.0

    monkeypatch.setattr(melnikov, "melnikov_derivatives", nan_slope)
    code = main(["melnikov", "--model", "pendula_weak", "--params", "lam=1",
                 "--grid=-1:1:3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure:")


def test_melnikov_reports_derivative_quadrature(capsys):
    # dL0 and ddL0 come from their own integrals, at s = 0
    argv = ["melnikov", "--model", "pendula_weak", "--params", "lam=2",
            "--grid=-2:2:5"]
    code, out = run(capsys, *argv)
    assert code == 0
    keys = ("dL_t_cut", "dL_tail_bound", "dL_quad_error", "dL_error_bound")
    comments = {l[1:].split("=", 1)[0].strip(): float(l.split("=", 1)[1])
                for l in out.splitlines()
                if l.startswith("#") and l[1:].split("=", 1)[0].strip() in keys}
    assert set(comments) == set(keys)
    # the s-jet's own window at s = 0, 19.95
    from septrans import melnikov
    pert = builtin_model("pendula_weak", [2.0]).perturbation
    assert comments["dL_t_cut"] == melnikov._window(
        0.0, melnikov._rule(pert, jet=True))[0]
    assert 0.0 < comments["dL_tail_bound"] <= 1e-12
    assert 0.0 <= comments["dL_quad_error"] <= 1e-12
    # the bound that the verdict's thresholds are
    assert 0.0 < comments["dL_error_bound"] <= 1e-11
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert {k: json.loads(out)["comments"][k] for k in keys} == comments


def test_melnikov_rejects_other_models(capsys):
    code, _ = run(capsys, "melnikov", "--model", "neumann",
                  "--params", "lambda1=1", "lambda2=2")
    assert code == 2


def test_melnikov_large_lam_is_silent(capsys):
    # exp overflows on the far nodes; a RuntimeWarning would be an error
    # here and text on stderr from the command line
    code = main(["melnikov", "--model", "pendula_weak", "--params", "lam=40"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "# verdict = perturbed_loop_transversal" in captured.out


def test_melnikov_over_node_budget_exits_three(capsys, monkeypatch):
    # lam = 5e4 at |s| = 4 would need 10,284,205 nodes; the quadrature
    # refuses before numpy allocates them
    from septrans import melnikov
    real = np.linspace

    def linspace(start, stop, num, *args, **kwargs):
        assert num <= melnikov.NODE_BUDGET
        return real(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)
    code = main(["melnikov", "--model", "pendula_weak", "--params", "lam=5e4",
                 "--grid=-4:4:3"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and "budget" in err
    assert "needs 10284205 nodes" in err


OVERFLOW = "coefficient overflow: -2*V0/beta = nan at q1=0"


@pytest.mark.parametrize("argv, message", [
    # the proven rule's windows need 1.8e302 nodes
    (["melnikov", "--model", "pendula_weak", "--params", "lam=1e300",
      "--grid=-1:1:3"], "budget"),
    # and an infinite count at lam 1e308, whose strip width 0.93 pi / (2
    # lam) is subnormal, not the 0 of an overflowing 2 lam
    (["melnikov", "--model", "pendula_weak", "--params", "lam=1e308",
      "--grid=-1:1:3"], "budget"),
    # the loop speed q1dot underflows to 0 in the slope solve
    (["riccati", "--model", "pendula_identical", "--params", "f0=0.2",
      "--grid=0:3.14:3", "--epsilon", "1e-300"], "q1dot"),
    (["transversality", "--model", "neumann", "--params", "lambda1=1e-300",
      "lambda2=2"], "q1dot"),
    # lam**2 * 0 is nan: the loop's radicand overflows, which is not a
    # missing loop
    (["riccati", "--model", "pendula_weak", "--params", "lam=1e300"],
     OVERFLOW),
    (["transversality", "--model", "pendula_weak", "--params", "lam=1e300"],
     OVERFLOW),
    (["transversality", "--model", "neumann", "--params", "lambda1=1e200",
      "lambda2=2e200"], OVERFLOW),
], ids=["melnikov", "melnikov-1e308", "riccati", "transversality",
        "riccati-overflow", "transversality-overflow", "neumann-overflow"])
def test_extreme_parameters_exit_three(capsys, argv, message):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:")
    assert message in err


def test_start_derivative_past_the_error_scale_exits_three(capsys):
    # f1 and f2 cancel in the potential, but the slope equation's start
    # derivative, -9.4e304, over its error scale overflows: not a loop
    # speed that underflows
    code = main(["transversality", "--model", "pendula_identical", "--params",
                 "f0=0.2", "f1=1e308", "f2=-1e308"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: slope equation's start "
                          "derivative -9.42478e+304 over the error scale ")
    assert "q1dot" not in err


def test_hypothesis_failure_is_exit_one():
    assert failure(HypothesesError("no saddle")) == (
        1, "hypothesis failure: no saddle")


def test_hypothesis_failure_of_the_verdict_exits_one(capsys, monkeypatch):
    from septrans import cli

    def no_reversibility(model, **kwargs):
        return chart_transversality(replace(model, reversibility=None),
                                    **kwargs)

    monkeypatch.setattr(cli, "chart_transversality", no_reversibility)
    code = main(["transversality", "--model", "neumann", "--params",
                 "lambda1=1", "lambda2=2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("hypothesis failure: ")
    assert captured.err.count("\n") == 1


def test_sweep_row_of_underflowing_loop_speed_is_nan(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _ = run(capsys, "sweep", "--model", "neumann", "--params",
                  "lambda2=2", "--sweep", "lambda1=1e-300:1:3",
                  "--out", str(out_file))
    assert code == 3
    comments, _, rows = read_table(str(out_file))
    assert "q1dot" in comments["error_1e-300"]
    assert np.all(np.isnan(rows[0, 1:]))
    assert np.all(np.isfinite(rows[1:]))


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


NEUMANN_INI = "[run]\nmodel = neumann\n[params]\nlambda1 = 1\nlambda2 = 2\n"


def test_config_entry_in_any_section_is_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(NEUMANN_INI.replace("[run]\n", "[run]\nrtol = 1e-7\n"))
    args = ("riccati", "--grid", "0:2:3")
    code, out = run(capsys, *args, "--config", str(cfg))
    assert code == 0
    code, flags_out = run(capsys, *args, "--model", "neumann", "--params",
                          "lambda1=1", "lambda2=2", "--rtol", "1e-7")
    assert code == 0
    assert out == flags_out
    code, default_out = run(capsys, *args, "--model", "neumann", "--params",
                            "lambda1=1", "lambda2=2")
    assert out != default_out


@pytest.mark.parametrize("text", [
    NEUMANN_INI + "[solver]\nrtol = -1\n",
    NEUMANN_INI + "[output]\nformat = JSON\n",
    NEUMANN_INI + "[solver]\nrtool = 1e-3\n",
    NEUMANN_INI + "[solver]\nrt = 1e-3\n",
    "model = neumann\n",
    NEUMANN_INI + "[solver]\nrtol = inf\n",
], ids=["negative-rtol", "format-JSON", "misspelt-key", "abbreviated-key",
        "no-section-header", "infinite-rtol"])
def test_bad_config_file_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code, out = run(capsys, "riccati", "--config", str(cfg), "--grid", "0:2:3")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag", [
    "--tol=-1", "--tol=nan", "--rtol=nan", "--epsilon=nan", "--cap=0",
    "--rtol=inf", "--atol=inf", "--epsilon=inf", "--cap=inf", "--tol=inf",
    "--rtol=1e-300", "--rtol=5e-324",
])
def test_non_positive_setting_is_usage_error(capsys, flag):
    # a negative --tol would make the tangent f0 = 0 read "transversal", an
    # infinite one every verdict "inconclusive", and an infinite rtol would
    # leave the steps to the step-size cap alone; an rtol below MIN_RTOL
    # made dop853's first trial step nan
    # (--atol and --cap are no flags of transversality, refused all the same)
    code, out = run(capsys, "transversality", "--model", "pendula_identical",
                    "--params", "f0=0", flag)
    assert code == 2
    assert out == ""


# the flags each command reads besides --model, --params, --config, --out
# and --format, and a valid value of each
SOLVER = ("--rtol", "--epsilon")
READS = {"validate": (), "riccati": SOLVER + ("--grid",),
         "transversality": SOLVER + ("--tol",), "melnikov": ("--grid",),
         "sweep": SOLVER + ("--tol", "--sweep")}
VALUES = {"--rtol": "1e-7", "--atol": "1e-10", "--epsilon": "1e-3",
          "--cap": "1e6", "--tol": "1e-6", "--grid": "0:1:3",
          "--sweep": "lambda2=1.5:2.5:3"}
VALID = {"melnikov": ["--model", "pendula_weak", "--params", "lam=2"],
         "sweep": ["--model", "neumann", "--params", "lambda1=1",
                   "--sweep", "lambda2=1.5:2.5:3"]}
REFUSED = [(command, flag) for command in READS for flag in VALUES
           if flag not in READS[command]]


def valid_argv(command):
    return [command, *VALID.get(command, ["--model", "neumann", "--params",
                                          "lambda1=1", "lambda2=2"])]


@pytest.mark.parametrize("command, flag", REFUSED)
def test_flag_the_command_does_not_read_is_usage_error(capsys, command, flag):
    code = main(valid_argv(command) + [flag, VALUES[flag]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: %s" % flag in captured.err


def test_config_entry_the_command_does_not_read_is_usage_error(tmp_path,
                                                               capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solver]\nrtol = 1e-7\n")
    code = main(valid_argv("melnikov") + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--rtol=1e-7" in captured.err


@pytest.mark.parametrize("command", READS)
def test_help_lists_the_flags_the_command_reads(capsys, command):
    import re
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help", "--model", "--params", "--config", "--out",
                      "--format", *READS[command]}


@pytest.mark.parametrize("flag", [["--to", "5"], ["--rt", "1e-3"]])
def test_abbreviated_flag_is_usage_error(capsys, flag):
    # argparse would otherwise read --to as --tol and --rt as --rtol
    code, out = run(capsys, "transversality", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2", *flag)
    assert code == 2
    assert out == ""


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "run.ini"
    cfg.write_text(NEUMANN_INI + "[solver]\nrtol = 1e-7\n"
                   "[output]\nformat = json\n")
    runs = [("riccati", "--config", str(cfg), "--grid", "0:2:3"),
            ("riccati", "--model", "neumann", "--params", "lambda1=0.5",
             "lambda2=0.6", "--grid", "0:2:3"),
            ("riccati", "--params", "lambda1=1", "lambda2=2"),
            ("validate", "--model", "pendula_weak", "--params", "lam=2")]
    first = []
    for argv in runs:
        build_parser.cache_clear()
        first.append(run(capsys, *argv))
    build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in runs] == first
    assert [code for code, _out in first] == [0, 0, 2, 0]


def test_config_params_merge_with_flags(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(NEUMANN_INI)
    code, out = run(capsys, "validate", "--config", str(cfg),
                    "--params", "lambda2=3", "--params", "lambda1=0.5")
    assert code == 0
    assert json.loads(out)["params"] == {"lambda1": 0.5, "lambda2": 3.0}


def test_sweep_of_a_misspelt_parameter_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _ = run(capsys, "sweep", "--model", "neumann", "--params",
                  "lambda1=1", "lambda2=2", "--sweep", "lamda2=2:3:3",
                  "--out", str(out_file))
    assert code == 2
    _, _, rows = read_table(str(out_file))
    assert np.all(np.isnan(rows[:, 1:]))


@pytest.mark.parametrize("model,params,culprit", [
    ("neumann", ["lambda1=1", "lambda2=2", "lam=7"], "lam"),
    ("pendula_identical", ["f0=0.2", "foo=1"], "foo"),
    ("pendula_weak", ["lam=nan"], "lam"),
])
def test_bad_parameter_is_usage_error(capsys, model, params, culprit):
    # a name the model does not take, or a value that is not finite
    code = main(["validate", "--model", model, "--params", *params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "parameter %s " % culprit in captured.err


def test_construction_error_keeps_its_type_and_exits_two(capsys):
    with pytest.raises(ConstructionError, match="lambda >= 1"):
        make_model("pendula_weak", {"lam": 0.5})
    code = main(["transversality", "--model", "pendula_weak", "--params",
                 "lam=0.5"])
    assert code == 2
    assert capsys.readouterr().err == ("error: pendula_weak requires "
                                       "lambda >= 1\n")


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


def strict_json(text: str):
    """text parsed as strict JSON, which has no NaN or Infinity token."""
    def non_finite(token):
        raise ValueError("non-JSON token %s" % token)
    return json.loads(text, parse_constant=non_finite)


def test_sweep_json_is_the_table_as_one_document(tmp_path, capsys):
    args = ("sweep", "--model", "pendula_identical", "--params", "f1=-0.1",
            "--sweep", "f0=0.05:0.4:3")
    csv_file = tmp_path / "sweep.csv"
    run(capsys, *args, "--out", str(csv_file))
    code, out = run(capsys, *args, "--format", "json")
    assert code == 2
    doc = json.loads(out)
    comments, header, rows = read_table(str(csv_file))
    assert doc["header"] == header
    assert set(doc["comments"]) == set(comments)
    # the failed row's nan is null in JSON and nan in the table
    assert np.array_equal(np.array(doc["rows"], dtype=float), rows,
                          equal_nan=True)


def test_sweep_json_failed_row_is_strict_json(capsys):
    # f0 = 0.6 breaks the saddle hypothesis; its row is null in JSON
    code, out = run(capsys, "sweep", "--model", "pendula_identical",
                    "--sweep", "f0=0.3:0.6:3", "--format", "json")
    assert code == 2
    rows = strict_json(out)["rows"]
    assert rows[-1] == [0.6, None, None, None, None]
    assert all(None not in row for row in rows[:-1])


def test_validate_json_failed_loop_is_strict_json(capsys, monkeypatch):
    # no built-in fails the loop construction, so stand one in for it: V0 > 0
    # on (0, 1), where the residual is nan
    from septrans import cli
    from septrans.models import HamiltonianModel

    one, zero = (lambda q1: 1.0), (lambda q1: 0.0)
    no_loop = HamiltonianModel(
        b110=one, b120=zero, b220=one, b112=zero, b122=zero, b222=zero,
        V0=lambda q1: q1 * q1 * (1.0 - q1), V1=zero, Y=one,
        domain=(0.0, 2.0))
    monkeypatch.setattr(cli, "make_model", lambda *args, **kwargs: no_loop)
    code, out = run(capsys, "validate", "--model", "neumann",
                    "--params", "lambda1=1", "lambda2=2")
    assert code == 1
    entry = strict_json(out)["checks"][-1]
    assert entry["name"] == "loop_restriction_residual"
    assert (entry["passed"], entry["worst"]) == (False, None)


def test_inconsistent_v1_fails_every_command_that_reads_it(capsys,
                                                            monkeypatch):
    # a V1 off by 0.1: the verdict's solve stops with exit 1, and validate
    # reports the restriction failed
    from dataclasses import replace
    from septrans import cli

    make_model = cli.make_model

    def off(*args, **kwargs):
        m = make_model(*args, **kwargs)
        return replace(m, V1=lambda q1, v1=m.V1: v1(q1) + 0.1)

    monkeypatch.setattr(cli, "make_model", off)
    params = ("--model", "pendula_identical", "--params", "f0=0.2")
    for argv in (("transversality",) + params,
                 ("sweep",) + params + ("--sweep", "f0=0.1:0.3:3")):
        assert main(list(argv)) == 1
        assert "inconsistent V1" in capsys.readouterr().err
    code, out = run(capsys, "validate", *params)
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert "loop_restriction_residual" in failed


def test_sweep_keeps_going_past_a_failed_point(tmp_path, capsys):
    # f(0) = f0 + f1 < 0 at the first value only
    out_file = tmp_path / "sweep.csv"
    params = ("--model", "pendula_identical", "--params", "f1=-0.1")
    code, _ = run(capsys, "sweep", *params, "--sweep", "f0=0.05:0.4:5",
                  "--out", str(out_file))
    assert code == 2
    comments, header, rows = read_table(str(out_file))
    assert rows.shape == (5, 5)
    assert np.all(np.isnan(rows[0, 1:]))
    assert "f(0)=-0.05" in comments["error_%.17g" % rows[0, 0]]
    assert sum(k.startswith("error_") for k in comments) == 1
    for f0, Tu, Ts_hat, gap, _code in rows[1:]:
        code, out = run(capsys, "transversality", *params, "f0=%.17g" % f0)
        assert code == 0
        doc = json.loads(out)
        assert (Tu, Ts_hat, gap) == (doc["Tu"], doc["Ts_hat"], doc["gap"])


def test_sweep_requires_spec(capsys):
    code, _ = run(capsys, "sweep", "--model", "pendula_identical",
                  "--params", "f0=0.1")
    assert code == 2


def septrans_command(*args) -> list[str]:
    return [sys.executable, "-m", "septrans", *args]


def child_env() -> dict:
    """The environment of a child process that imports the same septrans as
    this one, with its stdout block-buffered as it is by default."""
    import septrans
    src = os.path.dirname(os.path.dirname(septrans.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point():
    r = subprocess.run(septrans_command("validate", "--model", "neumann",
                                        "--params", "lambda1=1", "lambda2=2"),
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_reader_closing_the_pipe_exits_141_without_traceback():
    # the reader takes one line of a table far larger than the pipe holds
    proc = subprocess.Popen(
        septrans_command("riccati", "--model", "neumann", "--params",
                         "lambda1=1", "lambda2=2", "--grid", "0:2:20000"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert proc.stdout.readline() == b"# model = neumann\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 141
    assert "Traceback" not in err


@pytest.mark.skipif(shutil.which("head") is None, reason="needs head(1)")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_head_closing_an_unbuffered_pipe_exits_141(fmt):
    # `PYTHONUNBUFFERED=1 septrans riccati ... | head -1`: each write of
    # the unbuffered stdout is one raw write, and head closes the pipe
    # while the table, far larger than the pipe holds, is being written
    with subprocess.Popen(
            septrans_command("riccati", "--model", "neumann", "--params",
                             "lambda1=1", "lambda2=2", "--grid", "0:2:20000",
                             "--format", fmt),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**child_env(), "PYTHONUNBUFFERED": "1"}) as proc:
        head = subprocess.Popen(["head", "-1"], stdin=proc.stdout,
                                stdout=subprocess.PIPE)
        proc.stdout.close()     # head alone holds the read end
        first = head.communicate(timeout=60)[0]
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert first in (b"# model = neumann\n", b"{\n")
    assert code == 141
    assert err == b""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pipe_closed_before_a_short_report_exits_141(fmt):
    # the report fits the stdout buffer, so it reaches the pipe only at a
    # flush: inside main, not at the interpreter's exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            septrans_command("transversality", "--model", "neumann",
                             "--params", "lambda1=1", "lambda2=2",
                             "--format", fmt),
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
            timeout=60)
    finally:
        os.close(write_end)
    assert r.returncode == 141
    assert r.stderr == b""


@pytest.mark.parametrize("args", [
    ("validate", "--model", "neumann", "--params", "lambda1=1", "lambda2=2"),
    ("sweep", "--model", "pendula_identical", "--sweep", "f0=0:0.3:4")])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, args):
    # a file in a missing directory, and a directory: exit 2 and one error
    # line, not a traceback and exit 1
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = main([*args, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot write --out %r: "
                                       % str(target))
        assert captured.err.count("\n") == 1


WRITE_FAILURE_COMMANDS = [
    ("validate", "--model", "neumann", "--params", "lambda1=1", "lambda2=2"),
    ("riccati", "--model", "neumann", "--params", "lambda1=1", "lambda2=2"),
    # two failing rows print their own lines first
    ("sweep", "--model", "neumann", "--params", "lambda1=1",
     "--sweep", "lambda2=0.5:2:4")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["--out", "stdout", "closed"])
@pytest.mark.parametrize("args", WRITE_FAILURE_COMMANDS,
                         ids=[a[0] for a in WRITE_FAILURE_COMMANDS])
def test_output_that_cannot_be_written_exits_2(args, target):
    # a full device, as --out or as stdout, and a stdout closed at start
    # (sh's >&-): exit 2 and one error line, not a traceback and exit 1
    argv = septrans_command(*args)
    if target == "--out":
        argv += ["--out", "/dev/full"]
    with open("/dev/full", "wb") as full:
        r = subprocess.run(
            argv, stdout=subprocess.DEVNULL if target == "--out" else full,
            stderr=subprocess.PIPE, env=child_env(), timeout=60,
            preexec_fn=(lambda: os.close(1)) if target == "closed" else None)
    err = r.stderr.decode().splitlines()
    rows = 2 if args[0] == "sweep" else 0
    assert r.returncode == 2, err
    assert len(err) == rows + 1, err
    assert all(line.startswith("lambda2=") for line in err[:rows])
    assert err[-1].startswith("error: cannot write %s: "
                              % ("--out '/dev/full'" if target == "--out"
                                 else "stdout"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["full", "closed", "pipe"])
@pytest.mark.parametrize("args", [("validate", "--help"), ("--help",)],
                         ids=["validate", "top"])
def test_help_that_cannot_be_written_exits_as_stdout_does(args, target,
                                                          unbuffered):
    # a full device and a stdout closed at start exit 2 with one error
    # line, a pipe whose reader closed exits 141 with none: the help was
    # lost with exit 0
    env = {**child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    r = subprocess.run(septrans_command(*args), capture_output=True,
                       env=env, timeout=60)
    assert r.returncode == 0 and r.stdout.startswith(b"usage: septrans")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open("/dev/full", "wb") as full:
            r = subprocess.run(
                septrans_command(*args),
                stdout=write_end if target == "pipe" else full,
                stderr=subprocess.PIPE, env=env, timeout=60,
                preexec_fn=(lambda: os.close(1)) if target == "closed"
                else None)
    finally:
        os.close(write_end)
    if target == "pipe":
        assert (r.returncode, r.stderr) == (141, b"")
    else:
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error: cannot write stdout: ")
        assert r.stderr.count(b"\n") == 1


STDERR_FAILURE_COMMANDS = [
    ("riccati", "--model", "neumann", "--params", "lambda1=2", "lambda2=1"),
    ("transversality", "--model", "neumann", "--params", "lambda1=1e-300",
     "lambda2=2"),
    ("sweep", "--model", "neumann", "--params", "lambda1=1",
     "--sweep", "lambda2=0.5:2:4")]


@functools.cache
def writable_stderr_run(args: tuple) -> tuple[int, bytes, bytes]:
    r = subprocess.run(septrans_command(*args), capture_output=True,
                       env=child_env(), timeout=60)
    return r.returncode, r.stdout, r.stderr


def run_with_stderr(args, state: str, unbuffered: bool):
    """args run with stderr on a full device, closed at start (sh's 2>&-)
    or on a pipe whose read end is closed: (exit code, stdout)."""
    env = {**child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open("/dev/full", "wb") as full:
            r = subprocess.run(
                septrans_command(*args), stdout=subprocess.PIPE,
                stderr=full if state == "full" else write_end, env=env,
                timeout=60,
                preexec_fn=(lambda: os.close(2)) if state == "closed"
                else None)
    finally:
        os.close(write_end)
    return r.returncode, r.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("state", ["full", "closed", "pipe"])
@pytest.mark.parametrize("args", STDERR_FAILURE_COMMANDS,
                         ids=[a[0] for a in STDERR_FAILURE_COMMANDS])
def test_stderr_that_cannot_be_written_changes_no_exit_code(args, state,
                                                            unbuffered):
    # exit 2, 3 and 2 (sweep's two failing rows) on a writable stderr; a
    # stderr that cannot be written changes neither the code nor stdout
    code, out, err = writable_stderr_run(args)
    assert code == {"riccati": 2, "transversality": 3, "sweep": 2}[args[0]]
    assert err.count(b"\n") == (2 if args[0] == "sweep" else 1)
    assert out.startswith(b"# model = neumann\n") == (args[0] == "sweep")
    assert run_with_stderr(args, state, unbuffered) == (code, out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("state", ["full", "closed", "pipe"])
def test_argparse_usage_error_on_an_unwritable_stderr_exits_2(state):
    # argparse's own message goes through the one writer too
    assert run_with_stderr(("validate", "--bogus"), state, False) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_stdout_and_stderr_on_a_full_device_exit_2(unbuffered):
    env = {**child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    with open("/dev/full", "wb") as full:
        r = subprocess.run(
            septrans_command("validate", "--model", "neumann", "--params",
                             "lambda1=1", "lambda2=2"),
            stdout=full, stderr=full, env=env, timeout=60)
    assert r.returncode == 2


@pytest.mark.skipif(not (os.path.exists("/dev/full")
                         and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/full and /proc/self/fd")
def test_an_unwritable_out_leaves_no_descriptor_open(capsys):
    # the failed stream is pointed at devnull, and the descriptor opened
    # for that is closed again
    args = ("validate", "--model", "neumann", "--params", "lambda1=1",
            "lambda2=2", "--out", "/dev/full")
    assert run(capsys, *args)[0] == 2
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        assert run(capsys, *args)[0] == 2
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("lam, rtol", [(2.0, 1e-12),
                                       (2.759886874077371, 1e-14)])
def test_transversality_reports_the_rtol_that_decided(capsys, lam, rtol):
    # by default a tangent verdict decides at the second rung, 1e-9 / 100,
    # which the report prints as 1e-11, not 1.0000000000000001e-11; a
    # first rung at rtol, given with --rtol, decides at once
    code, out = run(capsys, "transversality", "--model", "pendula_weak",
                    "--params", "lam=%r" % lam)
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "tangent" and doc["rtol"] == 1e-11
    assert '"rtol": 1e-11\n' in out
    code, out = run(capsys, "transversality", "--model", "pendula_weak",
                    "--params", "lam=%r" % lam, "--rtol", repr(rtol))
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "tangent" and doc["rtol"] == rtol


@pytest.mark.parametrize("lam", [300.0, 3000.0, 1e4])
def test_weak_coupling_past_lam_40_reads_tangent(capsys, lam):
    # the slope climbs to about lam before it falls to 0 at pi; judged
    # against the end slopes alone, lam 1e4 read transversal
    code, out = run(capsys, "transversality", "--model", "pendula_weak",
                    "--params", "lam=%r" % lam)
    assert code == 0
    assert json.loads(out)["verdict"] == "tangent"


def test_a_tol_below_the_tangent_threshold_reads_tangent(capsys):
    # gap 4.3e-12 at rtol 1e-11 is above this tol but has no room over the
    # rung's tolerance to read transversal
    code, out = run(capsys, "transversality", "--model", "pendula_weak",
                    "--params", "lam=2", "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["verdict"] == "tangent"
