import math

import numpy as np
import pytest

from septrans.charts import (ChartTransition, Jet2, ReversibilityError,
                             StableJet, chart_transversality,
                             identity_transition, inversion_transition,
                             jet_transport_stable, stable_from_reversibility,
                             stable_jet_from_unstable, torus_shift_transition,
                             torus_transversality, transversality_verdict)
from septrans.loops import loop_profile
from septrans.models import builtin_model
from septrans.riccati import SolverOptions, solve_riccati


def test_inversion_transition_preserves_loop_line():
    tr = inversion_transition()
    for q1 in (0.5, 1.0, 2.0, 6.0):
        x, y = tr.chi(q1, 0.0)
        assert y == 0.0
        assert x == tr.chi0(q1)
    assert tr.chi0(2.0) == 2.0  # fixed point = matching point


def test_inversion_jet_matches_finite_differences():
    tr = inversion_transition()
    h = 1e-5
    for q1 in (0.7, 2.0, 3.5):
        j = tr.jet2(q1)
        for i in range(2):
            d1 = (tr.chi(q1, h)[i] - tr.chi(q1, -h)[i]) / (2 * h)
            d2 = (tr.chi(q1, h)[i] - 2 * tr.chi(q1, 0.0)[i]
                  + tr.chi(q1, -h)[i]) / (h * h)
            assert d1 == pytest.approx(
                (j.dchi1_dq2, j.dchi2_dq2)[i], abs=1e-8)
            assert d2 == pytest.approx(
                (j.d2chi1_dq22, j.d2chi2_dq22)[i], rel=1e-5, abs=1e-6)


def test_jet_transport_identity():
    jet = StableJet(dS0=lambda q: 0.3 * q, ddS0=lambda q: 0.3,
                    S1=lambda q: 0.1 * q, dS1=lambda q: 0.1,
                    T=lambda q: 2.0 + q, interval=(0.0, 5.0))
    assert jet_transport_stable(jet, identity_transition(), 1.5) == \
        pytest.approx(3.5, abs=1e-14)


def test_jet_transport_torus_shift():
    jet = StableJet(dS0=lambda q: 0.0, ddS0=lambda q: 0.0,
                    S1=lambda q: 0.0, dS1=lambda q: 0.0,
                    T=lambda q: math.cos(q), interval=(-7.0, 7.0))
    q1 = 4.0
    assert jet_transport_stable(jet, torus_shift_transition(), q1) == \
        pytest.approx(math.cos(q1 - 2 * math.pi), abs=1e-14)


def test_jet_transport_polynomial_ground_truth():
    # chi(q1, q2) = (q1 + a q2^2, q2 (1 + b q1)) keeps the loop line;
    # S(q1, q2) = c1 q1 + c2 q1^2 + c3 q2 + c4 q1 q2 + c5 q2^2.
    # Hand-expanded second q2-derivative of the composition at (q1, 0):
    #   2 a c1 + 4 a c2 q1 + c4 ... see expansion below.
    a, b = 0.7, -0.4
    c1, c2, c3, c4, c5 = 0.3, -0.2, 0.9, 1.1, 0.8

    tr = ChartTransition(
        chi=lambda q1, q2: (q1 + a * q2 * q2, q2 * (1.0 + b * q1)),
        chi0=lambda q1: q1,
        jet2=lambda q1: Jet2(dchi1_dq2=0.0, dchi2_dq2=1.0 + b * q1,
                             d2chi1_dq22=2.0 * a, d2chi2_dq22=0.0,
                             dchi1_dq1=1.0))
    jet = StableJet(dS0=lambda q: c1 + 2 * c2 * q, ddS0=lambda q: 2 * c2,
                    S1=lambda q: c3 + c4 * q, dS1=lambda q: c4,
                    T=lambda q: 2 * c5, interval=(-10.0, 10.0))
    for q1 in (-0.5, 0.0, 1.3):
        # composition: S(chi) = c1(q1 + a q2^2) + c2(q1 + a q2^2)^2
        #   + c3 q2 (1+b q1) + c4 (q1 + a q2^2) q2 (1+b q1) + c5 q2^2 (1+b q1)^2
        # d2/dq2^2 at q2=0:
        expect = (2 * a * c1 + 4 * a * c2 * q1
                  + 2 * c5 * (1.0 + b * q1) ** 2)
        assert jet_transport_stable(jet, tr, q1) == pytest.approx(
            expect, abs=1e-12)


def test_jet_transport_reproduces_inversion_formula():
    # for the sphere model the transported slope has the closed form
    # 32*l1/(q1^2+4)^2 - (16/q1^4) * Tu(4/q1)
    l1, l2 = 1.0, 2.0
    m = builtin_model("neumann", [l1, l2])
    p = loop_profile(m)
    sol = solve_riccati(m, 5.0, opts=SolverOptions(sensitivity_check=False),
                        profile=p)
    jet = stable_jet_from_unstable(sol, p, r1=1)
    tr = inversion_transition()
    for q1 in np.linspace(0.9, 4.4, 20):
        got = jet_transport_stable(jet, tr, q1)
        expect = (32.0 * l1 / (q1 * q1 + 4.0) ** 2
                  - 16.0 / q1 ** 4 * sol(4.0 / q1))
        assert got == pytest.approx(expect, abs=1e-12)


def test_stable_from_reversibility_sphere_sign():
    m = builtin_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    Ts, Ts_hat = stable_from_reversibility(sol, m)
    assert Ts_hat is None
    for q1 in (0.5, 1.0, 2.0):
        assert Ts(q1) == -sol(q1)


def test_stable_from_reversibility_torus():
    m = builtin_model("pendula_identical", [0.2])
    sol = solve_riccati(m, math.pi + 0.5,
                        opts=SolverOptions(sensitivity_check=False))
    Ts, Ts_hat = stable_from_reversibility(sol, m)
    assert Ts_hat(math.pi) == pytest.approx(-sol(math.pi), abs=1e-14)
    q1 = math.pi - 0.3
    assert Ts_hat(q1) == pytest.approx(-sol(2 * math.pi - q1), abs=1e-14)


def test_stable_requires_declared_reversibility():
    from dataclasses import replace
    m = replace(builtin_model("neumann", [1.0, 2.0]), reversibility=None)
    sol = solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    with pytest.raises(ReversibilityError):
        stable_from_reversibility(sol, m)


def test_direct_stable_solve_matches_reversibility():
    for params in ([0.1], [0.25, -0.125]):
        m = builtin_model("pendula_identical", params)
        sol_u = solve_riccati(m, math.pi,
                              opts=SolverOptions(sensitivity_check=False))
        sol_s = solve_riccati(m, math.pi, stable=True,
                              opts=SolverOptions(sensitivity_check=False))
        _, Ts_hat = stable_from_reversibility(sol_u, m)
        assert sol_s(math.pi) == pytest.approx(Ts_hat(math.pi), abs=1e-8)


def test_verdict_classification():
    r = transversality_verdict(0.625, -0.125, q1_star=2.0)
    assert r.verdict == "transversal"
    assert r.gap == pytest.approx(0.75, abs=1e-12)
    assert transversality_verdict(0.0, 5e-13).verdict == "tangent"
    assert transversality_verdict(1.0, 1.0 - 5e-8).verdict == "inconclusive"


def test_verdict_never_flips_without_inconclusive_band():
    # widening tol moves transversal -> inconclusive -> tangent in order
    gap_values = np.logspace(-14, -2, 40)
    for g in gap_values:
        r = transversality_verdict(1.0 + g, 1.0)
        assert r.verdict in ("transversal", "tangent", "inconclusive")
        if r.verdict == "transversal":
            assert abs(r.gap) > r.tol_tangent
        if r.verdict == "tangent":
            assert abs(r.gap) < r.tol


def test_verdict_rejects_nonfinite():
    with pytest.raises(ValueError):
        transversality_verdict(math.inf, 0.0)


def test_sphere_transversality_report():
    m = builtin_model("neumann", [1.0, 2.0])
    r = chart_transversality(m, 2.0, inversion_transition())
    assert r.verdict == "transversal"
    assert r.Tu == pytest.approx(0.625, abs=1e-8)
    assert r.Ts_hat == pytest.approx(0.5 - 0.625, abs=1e-8)
    assert r.gap == pytest.approx(0.75, abs=1e-7)


def test_torus_transversality_constant_coupling():
    m = builtin_model("pendula_identical", [0.1])
    r = torus_transversality(m)
    assert r.verdict == "transversal"
    b = math.sqrt(0.8)
    assert r.Tu == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-8)


def test_torus_transversality_separable_tangent():
    r = torus_transversality(builtin_model("pendula_identical", [0.0]))
    assert r.verdict == "tangent"


def test_torus_transversality_cosine_coupling():
    r = torus_transversality(builtin_model("pendula_identical",
                                           [0.25, -0.125]))
    assert r.verdict == "transversal"
    assert r.Tu < 0


@pytest.mark.parametrize("name,params", [
    ("pendula_identical", [0.1]), ("pendula_identical", [0.0]),
    ("pendula_identical", [0.25, -0.125]), ("pendula_weak", [2.0])])
def test_torus_verdict_is_jet_transport_through_the_shift(name, params):
    made = builtin_model(name, params)
    m = made[0] if isinstance(made, tuple) else made
    r = chart_transversality(m, math.pi, torus_shift_transition())
    assert r == torus_transversality(m)
    assert m.matching[0] == math.pi
    assert r == chart_transversality(m, *m.matching)


def test_torus_transversality_requires_structure():
    with pytest.raises(ReversibilityError):
        torus_transversality(builtin_model("neumann", [1.0, 2.0]))
