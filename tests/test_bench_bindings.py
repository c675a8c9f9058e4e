"""The traced benchmark (bench/tracing.py) rebinds septrans names from
outside and reads solver diagnostics by key.  These tests run its binding
plan, its counted solve and traced ops of three workloads, so that a rename
in septrans fails here rather than in a benchmark run.  They read the bench
files and change nothing in them."""

import math
from pathlib import Path

import pytest

import septrans
import septrans.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads
    return tracing, workloads


def test_coeff_calls_per_rhs_runs(bench):
    tracing, _ = bench
    tracing.Tracer(septrans)
    calls = tracing.coeff_calls_per_rhs(
        septrans, [("pendula_identical", [0.25, -0.125], math.pi)])
    assert math.isfinite(calls) and calls > 0


def test_traced_ops_record_their_spans(bench, capsys):
    tracing, workloads = bench
    tracer = tracing.Tracer(septrans)
    tracer.install()
    try:
        workloads.crosscheck_values("pendula_identical", [0.2, 0.05])
        assert septrans.cli.main(["transversality", "--model",
                                  "pendula_identical", "--params",
                                  "f0=0.2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "models.builtin_model", "loops.loop_profile",
            "riccati.solve_sens", "riccati.solve_plain", "riccati.oracle",
            "charts.transversality", "equilibrium.linearize"} <= names
    assert all(s.attrs["nfev"] > 0 for s in tracer.spans
               if s.name.startswith("riccati.solve"))


def test_traced_melnikov_records_its_spans(bench, capsys):
    tracing, _ = bench
    tracer = tracing.Tracer(septrans)
    tracer.install()
    try:
        assert septrans.cli.main(["melnikov", "--model", "pendula_weak",
                                  "--params", "lam=2", "--grid=-1:1:3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    points = [s for s in tracer.spans if s.name == "melnikov.point"]
    assert len(points) == 3
    assert all({"tail_bound", "quad_error"} <= set(s.attrs) for s in points)
    assert any(s.name == "melnikov.derivatives" for s in tracer.spans)
