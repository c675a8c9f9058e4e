import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from septrans.charts import transversality_verdict
from septrans.melnikov import (lambda0_threshold, melnikov_derivatives,
                               melnikov_potential, perturbed_loop_verdict,
                               reduced_melnikov, xi_max)
from septrans.models import (CoefficientJet, PerturbationModel, _weak_h,
                             builtin_model)


def weak(lam):
    return builtin_model("pendula_weak", [lam]).perturbation


def closed_form_lam1(s):
    return -4.0 * math.tanh(s / 2.0) * (s / math.cosh(s / 2.0) ** 2
                                        + 2.0 * math.tanh(s / 2.0))


def test_potential_zero_on_central_loop():
    pert = weak(1.0)
    assert melnikov_potential(pert, s=0.0) == pytest.approx(0.0, abs=1e-13)
    assert melnikov_potential(pert, q=pert.kappa(0.0)) == pytest.approx(
        0.0, abs=1e-12)


def test_potential_lam1_closed_form():
    pert = weak(1.0)
    for s in (0.5, 1.0, -1.5, 2.5):
        assert melnikov_potential(pert, s=s) == pytest.approx(
            closed_form_lam1(s), abs=1e-9)


def test_potential_at_located_point():
    pert = weak(1.0)
    q = pert.kappa(1.0)
    assert melnikov_potential(pert, q=(q[0], q[1])) == pytest.approx(
        closed_form_lam1(1.0), abs=1e-9)


def test_located_point_needs_locate_hook():
    pert = replace(weak(1.0), locate=None)
    with pytest.raises(ValueError, match="locate"):
        melnikov_potential(pert, q=pert.kappa(1.0))
    assert melnikov_potential(pert, s=1.0) == pytest.approx(
        closed_form_lam1(1.0), abs=1e-9)


def test_constant_perturbation_gives_zero():
    pert = replace(weak(1.5), h_star=lambda q1, q2, p1, p2: 3.0,
                   h_star_at_O=3.0, d_integrand_ds=None,
                   d2_integrand_ds2=None)
    assert melnikov_potential(pert, s=0.8) == pytest.approx(0.0, abs=1e-12)
    d1, d2 = melnikov_derivatives(pert)
    assert abs(d1) < 1e-9 and abs(d2) < 1e-6


def test_reduced_potential_shape():
    pert = weak(1.0)
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    res = reduced_melnikov(pert, grid)
    L = res.L_samples
    assert L[2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(L[[0, 1, 3, 4]] < 0)
    assert L[0] == pytest.approx(L[4], abs=1e-10)
    assert L[1] == pytest.approx(L[3], abs=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reduced_potential_reports_worst_quadrature():
    # a short window makes every tail bound visible; the grid ends on its
    # most benign point, so the worst values come from earlier points
    pert = replace(weak(2.0), decay_rate=10.0)
    grid = [-3.0, -1.0, 0.0]
    res = reduced_melnikov(pert, grid)
    diags = [{} for _ in grid]
    for s, d in zip(grid, diags):
        melnikov_potential(pert, s=s, diag=d)
    for key in ("t_cut", "tail_bound", "quad_error"):
        assert res.quadrature_diag[key] == max(d[key] for d in diags)
        assert res.quadrature_diag[key] > diags[-1][key]


def test_reduced_potential_matches_closed_form_at_three():
    res = reduced_melnikov(weak(1.0), [3.0])
    assert res.L_samples[0] == pytest.approx(closed_form_lam1(3.0), abs=1e-6)


def test_evenness_property():
    pert = weak(2.2)
    grid = np.linspace(0.2, 2.6, 7)
    Lp = reduced_melnikov(pert, grid).L_samples
    Lm = reduced_melnikov(pert, -grid).L_samples
    scale = max(1.0, np.max(np.abs(Lp)))
    assert np.max(np.abs(Lp - Lm)) < 1e-8 * scale


def test_first_integral_property():
    pert = weak(1.5)
    s = 0.7
    vals = []
    for tau in (-1.0, 0.0, 1.0):
        x = pert.loop_family(tau, s)
        vals.append(melnikov_potential(pert, q=(x[0], x[1])))
    assert max(vals) - min(vals) < 1e-8


def test_quadrature_tail_robustness():
    pert = weak(1.3)
    base = melnikov_potential(pert, s=1.1)
    stretched = replace(pert, time_scale=2.0 * pert.time_scale + 40.0)
    assert abs(melnikov_potential(stretched, s=1.1) - base) < 1e-10


def test_far_section_point_is_finite_and_silent():
    # exp and cosh overflow at the far nodes of the wide window at s = 200
    pert = weak(3.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = melnikov_potential(pert, s=200.0)
    assert far == pytest.approx(melnikov_potential(pert, s=40.0), abs=1e-12)


def test_derivatives_lam1():
    d1, d2 = melnikov_derivatives(weak(1.0))
    assert abs(d1) < 1e-9
    assert d2 == pytest.approx(-8.0, abs=1e-6)


def test_derivatives_fallback_matches_analytic():
    pert = weak(2.0)
    d1a, d2a = melnikov_derivatives(pert)
    blind = replace(pert, d_integrand_ds=None, d2_integrand_ds2=None)
    d1f, d2f = melnikov_derivatives(blind)
    assert d1f == pytest.approx(d1a, abs=1e-6)
    assert d2f == pytest.approx(d2a, abs=1e-5)


def test_derivatives_report_their_quadrature():
    # the analytic route integrates at s = 0; the fallback's differences
    # read the potential at s = 0, +-h and +-h/2 with h = 1e-3
    pert = weak(2.0)
    blind = replace(pert, d_integrand_ds=None, d2_integrand_ds2=None)
    for p, t_cut in ((pert, 40.0), (blind, 40.0 + 1e-3 * 2.0)):
        diag = {}
        melnikov_derivatives(p, diag=diag)
        assert set(diag) == {"t_cut", "tail_bound", "quad_error"}
        assert diag["t_cut"] == t_cut
        assert 0.0 <= diag["tail_bound"] <= 1e-12
        assert 0.0 <= diag["quad_error"] <= 1e-12


def test_second_derivative_consistent_with_samples():
    pert = weak(2.0)
    h = 0.05
    grid = [-2 * h, -h, 0.0, h, 2 * h]
    L = reduced_melnikov(pert, grid).L_samples
    dd_fd = (-L[4] + 16 * L[3] - 30 * L[2] + 16 * L[1] - L[0]) / (12 * h * h)
    _, dd = melnikov_derivatives(pert)
    assert dd_fd == pytest.approx(dd, abs=1e-5 * max(1.0, abs(dd)))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 3.6])
def test_nondegenerate_band(lam):
    d1, d2 = melnikov_derivatives(weak(lam))
    assert d2 < 0
    res = perturbed_loop_verdict("B", derivs=(d1, d2))
    assert res.verdict == "perturbed_loop_transversal"


def test_case_a_regular_perturbation():
    # a loop along which the unperturbed manifolds are already transverse
    report = transversality_verdict(2.0, -2.0)
    res = perturbed_loop_verdict("A", report=report)
    assert res.case_label == "A"
    assert res.verdict == "perturbed_loop_transversal"
    tangent = transversality_verdict(0.0, 0.0)
    assert perturbed_loop_verdict("A", report=tangent).verdict == "inapplicable"


def test_case_b_needs_derivs():
    with pytest.raises(ValueError, match="derivs"):
        perturbed_loop_verdict("B")


def test_case_b_degenerate_for_zero_perturbation():
    res = perturbed_loop_verdict("B", derivs=(0.0, 0.0))
    assert res.verdict == "degenerate"


def _assert_single_candidate_at_half(s):
    L = -(np.asarray(s) - 0.5) ** 2  # critical point at s = 0.5, not at 0
    res = perturbed_loop_verdict("B", derivs=(1.0, -2.0), s_grid=s,
                                 L_samples=L)
    assert res.verdict == "inapplicable"
    (c,) = res.quadrature_diag["critical_candidates"]
    assert abs(c - 0.5) < 1e-12


def test_case_b_noncritical_reports_candidates():
    _assert_single_candidate_at_half(np.linspace(-2.0, 2.0, 20))


@pytest.mark.parametrize("s", [
    # non-uniform: difference quotients of a quadratic are exact at
    # interval midpoints, whatever the spacing
    [-2.0, -1.1, -0.05, 0.3, 0.42, 1.7, 1.9, 3.0],
    # L(0.25) == L(0.75): the middle quotient is exactly zero
    [0.0, 0.25, 0.75, 1.3],
])
def test_case_b_candidates_on_nonuniform_grids(s):
    _assert_single_candidate_at_half(s)


def test_xi_max():
    assert xi_max(1.0) == 0.0
    x2 = xi_max(2.0)
    assert 0.0 < x2 < math.pi / 2.0
    # direct maximization oracle on a fine grid
    ts = np.linspace(1e-4, 6.0, 20001)
    brute = np.max(4.0 * (np.arctan(np.exp(2.0 * ts)) - np.arctan(np.exp(ts))))
    assert x2 == pytest.approx(brute, abs=1e-7)


def test_lambda0_threshold():
    l0 = lambda0_threshold()
    assert l0 == pytest.approx(3.68078, abs=1e-4)
    assert xi_max(l0) == pytest.approx(math.pi / 2.0, abs=1e-8)


def brentq_xi_max(lam):
    from scipy.optimize import brentq
    t = brentq(lambda t: math.cosh(lam * t) - lam * math.cosh(t), 1e-12,
               10.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return 4.0 * (math.atan(math.exp(lam * t)) - math.atan(math.exp(t)))


@pytest.mark.parametrize("lam", [1.001, 1.5, 2.0, 3.6, 10.0, 50.0])
def test_xi_max_matches_brentq(lam):
    assert abs(xi_max(lam) - brentq_xi_max(lam)) <= 1e-12


def test_lambda0_threshold_to_twenty_digits():
    from scipy.optimize import brentq
    # the 20-digit value; brentq on the reference xi_max agrees with it
    ref = 3.6807790226683075955
    assert abs(lambda0_threshold() - ref) <= 1e-12
    assert abs(brentq(lambda lam: brentq_xi_max(lam) - 0.5 * math.pi, 3.0,
                      4.0, xtol=1e-15) - ref) <= 1e-12


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_xi_max_rejects_non_finite(lam):
    with pytest.raises(ValueError, match="finite"):
        xi_max(lam)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 3.6), st.floats(-4.0, 4.0))
def test_trapezoid_matches_adaptive_quadrature(lam, s):
    from scipy.integrate import quad
    pert = weak(lam)
    diag = {}
    L = melnikov_potential(pert, s=s, diag=diag)
    T = diag["t_cut"]
    ref, _ = quad(lambda t: float(pert.integrand(t, s)), -T, T,
                  epsabs=1e-13, epsrel=1e-12, limit=400)
    assert abs(L + ref) <= diag["quad_error"] + 1e-13


@pytest.mark.parametrize("lam", [1.0, 1.7, 2.6, 3.6])
def test_array_integrand_equals_scalar_integrand(lam):
    pert = weak(lam)
    for s in (-4.0, -0.3, 0.0, 2.5):
        t = np.linspace(-50.0, 50.0, 1001)
        vals = pert.integrand(t, s)
        assert vals.shape == t.shape
        scalar = np.array([pert.integrand(float(x), s) for x in t])
        assert np.max(np.abs(vals - scalar)) <= 1e-15


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.6])
def test_array_h_matches_scalar_jet(lam):
    # around the points where an earlier jet switched to power limits, at
    # the saddle itself, and just below multiples of 2pi, where q1 - 2pi
    # floor(q1 / 2pi) rounds below 0 (a fractional power of a negative
    # float is complex)
    h, h_slope = _weak_h(lam)
    m = builtin_model("pendula_weak", [lam])
    near = 1e-5 * np.array([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])
    below = [math.nextafter(k * 2.0 * math.pi, -math.inf)
             for k in (0, 16, -162)]
    q1 = np.concatenate([np.linspace(-7.0, 13.0, 2001), near, -near,
                         2.0 * math.pi + near, 2.0 * math.pi - near, below])
    ref = np.array([[h(x), *m.jet(x)] for x in q1.tolist()]).T
    for name, got, want in zip(("h",) + CoefficientJet._fields,
                               (h(q1), *m.jet(q1)), ref):
        got = np.broadcast_to(got, q1.shape)
        err = np.abs(got - want)
        assert np.all((err <= 1e-14 * np.maximum(1.0, np.abs(want)))
                      | (np.isnan(got) & np.isnan(want))), (name, np.nanmax(err))
    # the loop family reads h' alone, the same numbers as the jet's b120
    assert np.array_equal(h_slope(q1)[0], -m.jet(q1).b120)

