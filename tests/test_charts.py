import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings

from septrans.charts import (MIN_RTOL, ChartTransition, Jet2, StableJet,
                             chart_transversality, inversion_transition,
                             jet_transport_stable, stable_from_reversibility,
                             stable_jet_from_unstable, torus_shift_transition,
                             torus_transversality, transversality_verdict)
from septrans import riccati
from septrans.models import HypothesesError, builtin_model
from septrans.numerics import central_diff
from septrans.riccati import SolverOptions, solve_riccati
from test_models import admissible_models

# the rtol of the first solve every periodic verdict took before the ladder
# started at the Riccati defaults
TIGHT = SolverOptions(rtol=1e-12, sensitivity_check=False)


def inversion_chi(q1, q2):
    """The sphere model's chart transition chi(q) = 4 q / |q|^2, which
    inversion_transition gives by chi0 and jet2."""
    r2 = q1 * q1 + q2 * q2
    return (4.0 * q1 / r2, 4.0 * q2 / r2)


def test_inversion_transition_preserves_loop_line():
    tr = inversion_transition()
    for q1 in (0.5, 1.0, 2.0, 6.0):
        x, y = inversion_chi(q1, 0.0)
        assert y == 0.0
        assert x == tr.chi0(q1)
    assert tr.chi0(2.0) == 2.0  # fixed point = matching point


def test_inversion_jet_matches_finite_differences():
    tr, chi = inversion_transition(), inversion_chi
    h = 1e-5
    for q1 in (0.7, 2.0, 3.5):
        j = tr.jet2(q1)
        for i in range(2):
            d1 = (chi(q1, h)[i] - chi(q1, -h)[i]) / (2 * h)
            d2 = (chi(q1, h)[i] - 2 * chi(q1, 0.0)[i]
                  + chi(q1, -h)[i]) / (h * h)
            assert d1 == pytest.approx(
                (j.dchi1_dq2, j.dchi2_dq2)[i], abs=1e-8)
            assert d2 == pytest.approx(
                (j.d2chi1_dq22, j.d2chi2_dq22)[i], rel=1e-5, abs=1e-6)


def test_jet_transport_identity():
    # chi(q1, q2) = (q1, q2)
    identity = ChartTransition(chi0=lambda q1: q1,
                               jet2=lambda q1: Jet2(0.0, 1.0, 0.0, 0.0))
    q = identity.chi0(1.5)
    jet = StableJet(dS0=0.3 * q, ddS0=0.3, S1=0.1 * q, dS1=0.1, T=2.0 + q)
    assert jet_transport_stable(jet, identity.jet2(1.5)) == \
        pytest.approx(3.5, abs=1e-14)


def test_jet_transport_torus_shift():
    tr = torus_shift_transition()
    q1 = 4.0
    jet = StableJet(dS0=0.0, ddS0=0.0, S1=0.0, dS1=0.0,
                    T=math.cos(tr.chi0(q1)))
    assert jet_transport_stable(jet, tr.jet2(q1)) == \
        pytest.approx(math.cos(q1 - 2 * math.pi), abs=1e-14)


def test_jet_transport_polynomial_ground_truth():
    # chi(q1, q2) = (q1 + a q2^2, q2 (1 + b q1)) keeps the loop line;
    # S(q1, q2) = c1 q1 + c2 q1^2 + c3 q2 + c4 q1 q2 + c5 q2^2.
    # Hand-expanded second q2-derivative of the composition at (q1, 0):
    #   2 a c1 + 4 a c2 q1 + c4 ... see expansion below.
    a, b = 0.7, -0.4
    c1, c2, c3, c4, c5 = 0.3, -0.2, 0.9, 1.1, 0.8

    tr = ChartTransition(
        chi0=lambda q1: q1,
        jet2=lambda q1: Jet2(dchi1_dq2=0.0, dchi2_dq2=1.0 + b * q1,
                             d2chi1_dq22=2.0 * a, d2chi2_dq22=0.0))
    for q1 in (-0.5, 0.0, 1.3):
        q = tr.chi0(q1)
        jet = StableJet(dS0=c1 + 2 * c2 * q, ddS0=2 * c2, S1=c3 + c4 * q,
                        dS1=c4, T=2 * c5)
        # composition: S(chi) = c1(q1 + a q2^2) + c2(q1 + a q2^2)^2
        #   + c3 q2 (1+b q1) + c4 (q1 + a q2^2) q2 (1+b q1) + c5 q2^2 (1+b q1)^2
        # d2/dq2^2 at q2=0:
        expect = (2 * a * c1 + 4 * a * c2 * q1
                  + 2 * c5 * (1.0 + b * q1) ** 2)
        assert jet_transport_stable(jet, tr.jet2(q1)) == pytest.approx(
            expect, abs=1e-12)


def test_jet_transport_reproduces_inversion_formula():
    # for the sphere model the transported slope has the closed form
    # 32*l1/(q1^2+4)^2 - (16/q1^4) * Tu(4/q1)
    l1, l2 = 1.0, 2.0
    m = builtin_model("neumann", [l1, l2])
    sol = solve_riccati(m, 5.0, opts=SolverOptions(sensitivity_check=False))
    tr = inversion_transition()
    for q1 in np.linspace(0.9, 4.4, 20):
        jet = stable_jet_from_unstable(sol, tr.chi0(q1), m.reversibility)
        got = jet_transport_stable(jet, tr.jet2(q1))
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


@pytest.mark.parametrize("name, params", [
    ("neumann", [1.0, 2.0]), ("pendula_identical", [0.25, -0.125]),
    ("pendula_weak", [2.0])])
def test_jet_slope_is_the_reversibility_slope(name, params):
    # the two reversibility constructions give the same stable slope, bit
    # for bit: on (eps, 2] for r1 = 1, on [-pi, -eps) for r1 = -1
    m = builtin_model(name, params)
    r1 = m.reversibility[0]
    target = 2.0 if r1 == 1 else math.pi
    sol = solve_riccati(m, target, opts=SolverOptions(sensitivity_check=False))
    Ts, _ = stable_from_reversibility(sol, m)
    eps = sol.epsilon_start
    for x in np.linspace(eps, target, 13)[1:]:
        q = r1 * float(x)
        assert stable_jet_from_unstable(sol, q, m.reversibility).T == Ts(q)


@pytest.mark.parametrize("name, params", [
    ("neumann", [1.2, 3.0]), ("pendula_identical", [0.2, 0.05]),
    ("pendula_weak", [2.5])])
def test_transported_stable_jet_has_the_loop_momenta(name, params):
    # the loop lies in both manifolds, so at q1* the transported stable
    # generating function has the unstable one's orders 0 and 1: dS0 and S1
    m = builtin_model(name, params)
    q1_star, tr = m.matching
    sol = solve_riccati(m, max(q1_star, tr.chi0(q1_star)),
                        opts=SolverOptions(sensitivity_check=False))
    jet = stable_jet_from_unstable(sol, tr.chi0(q1_star), m.reversibility)
    j = tr.jet2(q1_star)
    ds0, s1, _ds1 = sol.profile(q1_star)[6:]
    assert jet.dS0 * central_diff(tr.chi0, q1_star, h=1e-5) == (
        pytest.approx(ds0, abs=1e-8))
    assert jet.dS0 * j.dchi1_dq2 + jet.S1 * j.dchi2_dq2 == (
        pytest.approx(s1, abs=1e-8))


def test_stable_jet_outside_the_solved_interval_raises():
    m = builtin_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    with pytest.raises(ValueError, match="beyond the solved interval"):
        stable_jet_from_unstable(sol, 2.5, (1, 1))
    with pytest.raises(ValueError, match="below the solved interval"):
        stable_jet_from_unstable(sol, 1.0, (-1, -1))


def test_stable_requires_declared_reversibility():
    m = replace(builtin_model("neumann", [1.0, 2.0]), reversibility=None)
    sol = solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    with pytest.raises(HypothesesError):
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


def test_verdict_scale_takes_the_largest_slope_along_the_path():
    r = transversality_verdict(0.0, 5e-13, slope_max=3000.0)
    assert r.tol == pytest.approx(3e-3)
    assert r.tol_tangent == pytest.approx(3e-7)
    # a gap of 1.35e-5 is 4.5e-9 of that scale: not transversal
    assert transversality_verdict(0.0, 1.35e-5).verdict == "transversal"
    assert transversality_verdict(0.0, 1.35e-5,
                                  slope_max=3000.0).verdict == "inconclusive"


def test_a_rung_decides_only_with_room_over_its_tolerance():
    # transversal needs a gap above 1e4 rtol scale, tangent rtol at most a
    # tenth of tol_tangent / scale, so 1e-11 and not 1e-9
    assert transversality_verdict(1.0 + 2e-6, 1.0,
                                  rtol=1e-9).verdict == "inconclusive"
    assert transversality_verdict(1.0 + 2e-6, 1.0,
                                  rtol=1e-11).verdict == "transversal"
    assert transversality_verdict(0.0, 5e-13,
                                  rtol=1e-9).verdict == "inconclusive"
    r = transversality_verdict(0.0, 5e-13, rtol=1e-11)
    assert r.verdict == "tangent" and r.rtol == 1e-11
    # a scale at which 10 (1e-11 scale) rounds above 1e-10 scale
    assert transversality_verdict(0.0, 5e-13, slope_max=3.0206947378593334,
                                  rtol=1e-11).verdict == "tangent"


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
    r = chart_transversality(m)
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


@pytest.mark.parametrize("lam", [1.0, 2.5, 5.0, 12.0, 20.0, 40.0,
                                 2.759886874077371, 2.760153213303326,
                                 2.7637133533383347, 2.7642735433858463]
                         + np.linspace(2.7597, 2.7643, 50).tolist())
def test_weak_coupling_is_tangent_by_construction(lam):
    # the manifolds of pendula_weak coincide for every admissible lam; the
    # verdict's rungs must land the gap below tol_tangent (with RK45 it
    # read inconclusive from lam 12 on: gaps 1.2e-10 to 3.2e-9).  In the
    # band near 2.76 a solve at rtol 1e-12 accepts one step with an error
    # far above its tolerance and reads gaps of 1.2e-10 to 8e-10; the
    # ladder, from rtol 1e-9, decides the band's 50 evenly spaced lam
    m = builtin_model("pendula_weak", [lam])
    r = chart_transversality(m)
    assert r.verdict == "tangent", r.gap


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(admissible_models())
def test_default_verdict_equals_the_tight_first_solve(m):
    # starting at the Riccati defaults gives the verdict of starting at the
    # tight solve, and a transversal Tu within 1e-8 of it
    r = chart_transversality(m)
    ref = chart_transversality(m, opts=TIGHT)
    assert r.verdict == ref.verdict
    if r.verdict == "transversal":
        assert abs(r.Tu - ref.Tu) <= 1e-8


@pytest.mark.parametrize("name, params", [
    ("neumann", [1.2, 3.0]), ("pendula_identical", [0.2, 0.05]),
    ("pendula_weak", [2.5])])
def test_verdict_reads_the_slope_at_a_mesh_point(monkeypatch, name, params):
    # T is read at each solve's target, its last mesh point, so the verdict
    # makes no rhs evaluation beyond its solves' own: no interpolant (a
    # tangent verdict takes two solves, at rtol 1e-9 and 1e-11)
    calls, solves = [], []

    def counting(fun, *args, **kwargs):
        def rhs(t, y):
            calls.append(t)
            return fun(t, y)

        solves.append(original(rhs, *args, **kwargs))
        return solves[-1]

    original = riccati.solve_ivp
    monkeypatch.setattr(riccati, "solve_ivp", counting)
    m = builtin_model(name, params)
    chart_transversality(m)
    assert len(calls) == sum(s.nfev for s in solves)


def test_torus_transversality_cosine_coupling():
    r = torus_transversality(builtin_model("pendula_identical",
                                           [0.25, -0.125]))
    assert r.verdict == "transversal"
    assert r.Tu < 0


@pytest.mark.parametrize("name,params", [
    ("pendula_identical", [0.1]), ("pendula_identical", [0.0]),
    ("pendula_identical", [0.25, -0.125]), ("pendula_weak", [2.0])])
def test_torus_verdict_is_jet_transport_through_the_shift(name, params):
    m = builtin_model(name, params)
    r = chart_transversality(
        replace(m, matching=(math.pi, torus_shift_transition())))
    assert r == torus_transversality(m)
    assert m.matching[0] == math.pi
    assert r == chart_transversality(m)


def test_chart_verdict_reads_the_models_matching():
    # the torus verdict sets (pi, the shift) in place of the model's own
    m = builtin_model("pendula_identical", [0.1])
    with pytest.raises(ValueError, match="no matching point"):
        chart_transversality(replace(m, matching=None))
    assert torus_transversality(replace(m, matching=None)) == (
        torus_transversality(m))


def test_torus_transversality_requires_structure():
    with pytest.raises(HypothesesError):
        torus_transversality(builtin_model("neumann", [1.0, 2.0]))


def test_torus_form_requires_r1_minus_one():
    m = replace(builtin_model("pendula_identical", [0.2]),
                reversibility=(1, 1))
    with pytest.raises(HypothesesError, match="needs reversibility with "
                       "r1=-1"):
        torus_transversality(m)
    sol = solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    with pytest.raises(HypothesesError, match="torus form requires r1 = -1"):
        stable_from_reversibility(sol, m)


@pytest.mark.parametrize("f", [
    [1e-3], [0.0, 1e-3], [0.0, 0.0, 1e-3], [0.0, 0.0, 0.0, 1e-3],
    [1e-3, 5e-4, -3e-4], [1e-2, 2e-3]])
def test_identical_pendula_gap_to_first_order(f):
    # pendula_identical is pendula_weak's sheet at lam = 1 with Y - f, whose
    # Melnikov second derivative gives gap = 2 sum f_k / (4 k^2 - 1) +
    # O(|f|^2); the mean over +-f cancels the second order.  The worst
    # ratio to the bound is 0.30, at [1e-3]
    opts = SolverOptions(rtol=1e-12, sensitivity_check=False)

    def gap(coeffs):
        m = builtin_model("pendula_identical", coeffs, strict=False)
        return chart_transversality(m, opts=opts).gap

    first = 2.0 * sum(c / (4 * k * k - 1) for k, c in enumerate(f))
    size = sum(map(abs, f))
    plus, minus = gap(f), gap([-c for c in f])
    assert abs((plus - minus) / 2.0 - first) <= 10.0 * size ** 3
    assert abs(plus - first) <= 10.0 * size ** 2


def test_chart_verdict_requires_declared_reversibility():
    m = replace(builtin_model("neumann", [1, 2]), reversibility=None)
    with pytest.raises(HypothesesError, match="without reversibility"):
        chart_transversality(m)


def solve_rtols(monkeypatch):
    """Rebinds riccati.solve_ivp to record the rtol of each solve in the
    returned list."""
    rtols = []
    original = riccati.solve_ivp

    def recording(fun, t_span, y0, rtol, *args, **kwargs):
        rtols.append(rtol)
        return original(fun, t_span, y0, rtol, *args, **kwargs)

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    return rtols


# the rungs of a default verdict: a transversal gap far above the
# tolerance decides at the first, rtol 1e-9; a tangent one needs rtol
# 1e-11, a tenth of the tangent threshold
DEFAULT_RUNGS = {"neumann": [1e-9], "pendula_identical": [1e-9],
                 "pendula_weak": [1e-9, 1e-11]}


@pytest.mark.parametrize("name, params, rtol", [
    ("neumann", [1.2, 3.0], 1e-9), ("pendula_identical", [0.2, 0.05], 1e-12),
    ("pendula_weak", [2.0], 1e-12)])
def test_a_verdict_that_decides_takes_one_solve(monkeypatch, name, params,
                                                rtol):
    rtols = solve_rtols(monkeypatch)
    m = builtin_model(name, params)
    r = chart_transversality(m)
    assert r.verdict != "inconclusive"
    rungs = DEFAULT_RUNGS[name]
    assert rtols == rungs and r.rtol == rungs[-1]
    assert asdict(r)["rtol"] == rungs[-1]
    # a first rung at rtol, given, decides in one solve
    rtols.clear()
    r = chart_transversality(m, opts=SolverOptions(
        rtol=rtol, sensitivity_check=False))
    assert r.verdict != "inconclusive"
    assert rtols == [rtol] and r.rtol == rtol
    assert asdict(r)["rtol"] == rtol


# the (rtol, atol) pairs dop853 received while atol was a setting of its
# own, at its defaults: a slope solve's atol is rtol / 1000 on every rung
@pytest.mark.parametrize("route, name, params, pairs", [
    ("verdict", "neumann", [1.2, 3.0], [(1e-9, 1e-12)]),
    ("verdict", "pendula_weak", [2.759886874077371],
     [(1e-9, 1e-12), (1e-11, 1e-14)]),
    ("verdict", "pendula_weak", [1e4], [(1e-9, 1e-12), (1e-11, 1e-14)]),
    ("oracle", "neumann", [1.2, 3.0], [(1e-11, 1e-12)])])
def test_dop853_receives_the_pinned_tolerance_pairs(monkeypatch, route, name,
                                                    params, pairs):
    seen = []
    original = riccati.solve_ivp

    def recording(fun, t_span, y0, rtol, atol, **kwargs):
        seen.append((rtol, atol))
        return original(fun, t_span, y0, rtol, atol, **kwargs)

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    m = builtin_model(name, params)
    if route == "oracle":
        riccati.riccati_to_linear_oracle(m, m.matching[0])
    else:
        chart_transversality(m)
    assert seen == pairs


def test_first_step_cap_costs_no_evaluations(monkeypatch):
    # the slope solve's first step is at most its start offset epsilon.
    # pendula_weak lam 1e4's heuristic step is 0.0016 epsilon, so its two
    # rungs keep their steps; neumann [1e-3, 2]'s heuristic step was
    # longer and rejected, and the cap takes 48 evaluations off its 68,822
    nfevs = []
    original = riccati.solve_ivp

    def recording(*args, **kwargs):
        res = original(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    r = chart_transversality(builtin_model("pendula_weak", [1e4]))
    assert (r.verdict, r.rtol) == ("tangent", 1e-11)
    assert sum(nfevs) == 34864
    nfevs.clear()
    r = chart_transversality(builtin_model("neumann", [1e-3, 2.0]))
    assert r.verdict == "transversal"
    assert sum(nfevs) <= 68822


def test_an_inconclusive_verdict_is_solved_again_at_rtol_over_100(
        monkeypatch):
    # from a first rung at rtol 1e-12: gap 8.0e-10 there, above
    # tol_tangent 2.8e-10; 7.5e-15 at 1e-14
    rtols = solve_rtols(monkeypatch)
    m = builtin_model("pendula_weak", [2.761452380952381])
    r = chart_transversality(m, opts=TIGHT)
    assert rtols == [1e-12, 1e-14]
    assert r.verdict == "tangent" and r.rtol == 1e-14
    assert abs(r.gap) < 1e-13


def test_a_gap_above_tol_but_within_the_rungs_room_climbs_one_rung(
        monkeypatch):
    # gap -3e-6: above tol 1e-6, below 1e4 rtol scale = 1e-5 at rtol 1e-9
    rtols = solve_rtols(monkeypatch)
    m = builtin_model("pendula_identical", [1.5e-6])
    r = chart_transversality(m)
    assert r.tol < abs(r.gap) < 1e-5
    assert r.verdict == "transversal"
    assert rtols == [1e-9, 1e-11] and r.rtol == 1e-11


@pytest.mark.parametrize("name, params, rungs", [
    ("neumann", [1.2, 3.0], [1e-9, 1e-11, 1e-13]),
    ("pendula_identical", [0.2, 0.05], [1e-9, 1e-11, 1e-13])])
def test_the_rungs_stop_above_the_rtol_floor(monkeypatch, name, params,
                                             rungs):
    # a tol above every gap keeps the verdict inconclusive on every rung
    rtols = solve_rtols(monkeypatch)
    m = builtin_model(name, params)
    r = chart_transversality(m, tol=1e9)
    assert r.verdict == "inconclusive"
    assert rtols == pytest.approx(rungs, rel=1e-12)
    assert r.rtol == rtols[-1] and rtols[-1] / 100 < MIN_RTOL
