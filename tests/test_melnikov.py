import math
from dataclasses import replace

import numpy as np
import pytest

from septrans.charts import transversality_verdict
from septrans.melnikov import (lambda0_threshold, melnikov_derivatives,
                               melnikov_potential, perturbed_loop_verdict,
                               reduced_melnikov, xi_max)
from septrans.models import PerturbationModel, builtin_model


def weak(lam):
    return builtin_model("pendula_weak", [lam])[1]


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


def test_case_b_degenerate_for_zero_perturbation():
    res = perturbed_loop_verdict("B", derivs=(0.0, 0.0))
    assert res.verdict == "degenerate"


def test_case_b_noncritical_reports_candidates():
    s = np.linspace(-2.0, 2.0, 20)
    L = -(s - 0.5) ** 2  # critical point at s = 0.5, not at 0
    res = perturbed_loop_verdict("B", derivs=(1.0, -2.0), s_grid=s,
                                 L_samples=L)
    assert res.verdict == "inapplicable"
    cands = res.quadrature_diag["critical_candidates"]
    assert any(abs(c - 0.5) < 0.3 for c in cands)


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
