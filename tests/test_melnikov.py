import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from septrans.melnikov import (BLOCK_ELEMENTS, NODE_BUDGET, _lattice,
                               _rule, _trapezoid, _window,
                               critical_candidates, lambda0_threshold,
                               melnikov_derivatives, melnikov_potential,
                               perturbed_loop_verdict, reduced_melnikov,
                               xi_max)
from septrans.models import (CoefficientJet, PerturbationModel, _weak_h,
                             builtin_model)
from septrans.numerics import QuadratureError, richardson_diff
from weak_reference import WeakReference


def weak(lam):
    return builtin_model("pendula_weak", [lam]).perturbation


def widened(pert, factor=1e20):
    """pert with each tail constant of its bounds times factor, which
    widens every window by log(factor) / rate, 23 for pendula_weak."""
    return replace(pert, bounds=lambda: tuple(
        b._replace(tail=factor * b.tail) for b in pert.bounds()))


def with_bounds(pert, **fields):
    """pert with each of its bounds' fields set to the given values."""
    return replace(pert, bounds=lambda: tuple(
        b._replace(**fields) for b in pert.bounds()))


def closed_form_lam1(s):
    return -4.0 * math.tanh(s / 2.0) * (s / math.cosh(s / 2.0) ** 2
                                        + 2.0 * math.tanh(s / 2.0))


def test_potential_zero_on_central_loop():
    pert = weak(1.0)
    assert melnikov_potential(pert, s=0.0) == pytest.approx(0.0, abs=1e-13)
    assert melnikov_potential(
        pert, q=WeakReference(1.0).kappa(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_potential_lam1_closed_form():
    pert = weak(1.0)
    for s in (0.5, 1.0, -1.5, 2.5):
        assert melnikov_potential(pert, s=s) == pytest.approx(
            closed_form_lam1(s), abs=1e-9)


def test_potential_at_located_point():
    pert = weak(1.0)
    q = WeakReference(1.0).kappa(1.0)
    assert melnikov_potential(pert, q=(q[0], q[1])) == pytest.approx(
        closed_form_lam1(1.0), abs=1e-9)


def test_located_point_needs_locate_hook():
    pert = replace(weak(1.0), locate=None)
    with pytest.raises(ValueError, match="locate"):
        melnikov_potential(pert, q=WeakReference(1.0).kappa(1.0))
    assert melnikov_potential(pert, s=1.0) == pytest.approx(
        closed_form_lam1(1.0), abs=1e-9)


@pytest.mark.parametrize("kwargs", [{}, {"q": (1.0, 1.0), "s": 1.0}])
def test_potential_needs_exactly_one_of_q_or_s(kwargs):
    with pytest.raises(ValueError, match="give exactly one of q or s"):
        melnikov_potential(weak(1.0), **kwargs)


@pytest.mark.parametrize("q, message", [
    ((7.0, 0.0), r"loop point needs q1 in \(0, 2pi\)"),
    ((1.0, 7.0), "point not on the separatrix sheet")])
def test_locate_refuses_points_off_the_loops(q, message):
    with pytest.raises(ValueError, match=message):
        weak(2.0).locate(*q)


def test_richardson_diff_takes_order_one_or_two():
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        richardson_diff(math.sin, 0.0, 1e-3, order=3)


def test_potential_cuts_its_window_from_a_wider_row():
    # a row of the lattice about t0 wider than the window sums as the
    # window alone; a narrower one raises
    pert = weak(2.0)
    rule = _rule(pert)
    diag, wide_diag = {}, {}
    L = melnikov_potential(pert, s=1.5, diag=diag)
    K = _window(1.5, rule)[1]
    t = _lattice(0.0, K + 7, rule.step)
    row = pert.integrand(t, 1.5)
    assert melnikov_potential(pert, s=1.5, diag=wide_diag, values=row) == L
    assert wide_diag == diag
    with pytest.raises(ValueError, match="fewer than the window's %d"
                       % (2 * K + 1)):
        melnikov_potential(pert, s=1.5, values=row[8:-8])


def composed(lam):
    """weak(lam) with its integrand taken from the definition, H*(loop) -
    H*(O)."""
    return replace(weak(lam), integrand=WeakReference(lam).integrand)


def test_constant_perturbation_gives_zero():
    pert = replace(weak(1.5), integrand=lambda t, s: 0.0,
                   integrand_s_jet=lambda t, s: (0.0, 0.0))
    assert melnikov_potential(pert, s=0.8) == pytest.approx(0.0, abs=1e-12)
    d1, d2 = melnikov_derivatives(pert)
    assert abs(d1) < 1e-9 and abs(d2) < 1e-6


def test_reduced_potential_shape():
    pert = weak(1.0)
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    L, _ = reduced_melnikov(pert, grid)
    assert L[2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(L[[0, 1, 3, 4]] < 0)
    assert L[0] == pytest.approx(L[4], abs=1e-10)
    assert L[1] == pytest.approx(L[3], abs=1e-10)


def test_reduced_potential_reports_worst_quadrature():
    # the grid ends on its narrowest window, and on one whose lattice ends
    # lie further out than at s = -1, so the worst window and tail bound
    # come from earlier points; one rule has one quad_error at every point
    pert = weak(2.0)
    grid = [-3.0, -1.0, 0.0]
    _, quad_diag = reduced_melnikov(pert, grid)
    diags = [{} for _ in grid]
    for s, d in zip(grid, diags):
        melnikov_potential(pert, s=s, diag=d)
    for key in ("t_cut", "tail_bound", "quad_error"):
        assert quad_diag[key] == max(d[key] for d in diags)
    for key in ("t_cut", "tail_bound"):
        assert quad_diag[key] > diags[-1][key]


def test_reduced_potential_matches_closed_form_at_three():
    L, _ = reduced_melnikov(weak(1.0), [3.0])
    assert L[0] == pytest.approx(closed_form_lam1(3.0), abs=1e-6)


def test_evenness_property():
    pert = weak(2.2)
    grid = np.linspace(0.2, 2.6, 7)
    Lp = reduced_melnikov(pert, grid)[0]
    Lm = reduced_melnikov(pert, -grid)[0]
    scale = max(1.0, np.max(np.abs(Lp)))
    assert np.max(np.abs(Lp - Lm)) < 1e-8 * scale


def test_first_integral_property():
    pert = weak(1.5)
    s = 0.7
    vals = []
    for tau in (-1.0, 0.0, 1.0):
        x = WeakReference(1.5).loop_family(tau, s)
        vals.append(melnikov_potential(pert, q=(x[0], x[1])))
    assert max(vals) - min(vals) < 1e-8


def test_quadrature_tail_robustness():
    pert = weak(1.3)
    base, wide = {}, {}
    L = melnikov_potential(pert, s=1.1, diag=base)
    stretched = widened(pert)
    assert abs(melnikov_potential(stretched, s=1.1, diag=wide) - L) < 1e-10
    assert wide["t_cut"] > base["t_cut"] + 20.0


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
    # the s-jet's derivatives against Richardson-extrapolated differences
    # of the potential in s, h = 1e-3
    pert = weak(2.0)
    d1a, d2a = melnikov_derivatives(pert)

    def Ltilde(s):
        return melnikov_potential(pert, s=s)

    d1f = richardson_diff(Ltilde, 0.0, 1e-3, order=1)
    d2f = richardson_diff(Ltilde, 0.0, 1e-3, order=2)
    assert d1f == pytest.approx(d1a, abs=1e-6)
    assert d2f == pytest.approx(d2a, abs=1e-5)


def test_derivatives_report_their_quadrature():
    # the s-jet integrates at s = 0, on its own window
    pert = weak(2.0)
    diag = {}
    melnikov_derivatives(pert, diag=diag)
    assert set(diag) == {"t_cut", "tail_bound", "quad_error", "error_bound"}
    assert diag["t_cut"] == _window(0.0, _rule(pert, jet=True))[0]
    assert 0.0 <= diag["tail_bound"] <= 1e-12
    assert 0.0 <= diag["quad_error"] <= 1e-12
    assert 0.0 < diag["error_bound"] <= 1e-11


def test_second_derivative_consistent_with_samples():
    pert = weak(2.0)
    h = 0.05
    grid = [-2 * h, -h, 0.0, h, 2 * h]
    L = reduced_melnikov(pert, grid)[0]
    dd_fd = (-L[4] + 16 * L[3] - 30 * L[2] + 16 * L[1] - L[0]) / (12 * h * h)
    _, dd = melnikov_derivatives(pert)
    assert dd_fd == pytest.approx(dd, abs=1e-5 * max(1.0, abs(dd)))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 3.6, 40.0])
def test_nondegenerate_band(lam):
    diag = {}
    d1, d2 = melnikov_derivatives(weak(lam), diag=diag)
    assert d2 < 0
    verdict = perturbed_loop_verdict((d1, d2), diag["error_bound"])
    assert verdict == "perturbed_loop_transversal"


def test_slope_between_the_bound_and_1e8_is_not_critical():
    # the derivatives' proven error bound, not the fixed 1e-8, decides
    # whether s = 0 is critical
    diag = {}
    _, d2 = melnikov_derivatives(weak(2.0), diag=diag)
    error = diag["error_bound"]
    dL0 = 1e-10
    assert error < dL0 < 1e-8
    assert perturbed_loop_verdict((dL0, d2), error) == "inapplicable"


def test_case_b_degenerate_for_zero_perturbation():
    assert perturbed_loop_verdict((0.0, 0.0), 1e-12) == "degenerate"


def _assert_single_candidate_at_half(s):
    L = -(np.asarray(s) - 0.5) ** 2  # critical point at s = 0.5, not at 0
    assert perturbed_loop_verdict((1.0, -2.0), 1e-12) == "inapplicable"
    (c,) = critical_candidates(s, L)
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


@pytest.mark.parametrize("derivs,error", [
    ((math.nan, -8.0), 1e-12),
    ((1e-15, -8.0), math.nan),
    ((math.inf, -8.0), 1e-12),
    ((0.0, math.nan), 1e-12),
])
def test_verdict_refuses_a_non_finite_input(derivs, error):
    # a comparison with nan is false and inf passes any bound, so a
    # verdict from these would read inapplicable or degenerate
    with pytest.raises(QuadratureError, match="finite"):
        perturbed_loop_verdict(derivs, error)


def symmetric_candidates(lam):
    """The positive one of the candidates on -4:4:81 of pendula_weak's
    L~, after checking that they are s = 0 and a symmetric pair (L~ is
    even)."""
    L, _ = reduced_melnikov(weak(lam), GRID_81)
    lo, mid, hi = critical_candidates(GRID_81, L)
    assert abs(mid) <= 1e-12
    assert abs(lo + hi) <= 1e-12
    return hi


def test_critical_candidates_match_the_closed_form():
    # the closed form's critical points +-3.4358, roots of its central
    # difference; the grid's quotients find +-3.4377
    from scipy.optimize import brentq
    h = 1e-5
    s_star = brentq(lambda s: closed_form_lam1(s + h)
                    - closed_form_lam1(s - h), 2.0, 5.0, xtol=1e-14)
    assert abs(symmetric_candidates(1.0) - s_star) <= 5e-3


@pytest.mark.parametrize("lam", [2.5, 3.6])
def test_critical_candidates_near_the_threshold(lam):
    assert abs(symmetric_candidates(lam) - 2.60) <= 1e-2


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
    assert lambda0_threshold() is l0        # a constant, computed once
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


def lattice_sums(rows, step, K):
    """The trapezoid sums of rows(t) on the nodes k step, |k| <= K, in long
    double, whose rounding (eps 1.1e-19 on x86-64) stays below the bounds."""
    t = step * np.arange(-K, K + 1, dtype=np.longdouble)
    return [step * (np.sum(v) - 0.5 * (v[0] + v[-1])) for v in rows(t)]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 40.0), st.floats(-4.0, 4.0))
def test_stated_bounds_hold(lam, s):
    # each sum on the proven lattice against one at the step 0.02 /
    # max(1, lam) on a window 10 wider, for the integrand and both s-jet
    # rows: quad_error + tail_bound holds the difference
    pert = weak(lam)
    for jet, rows in ((False, lambda t: [pert.integrand(t, s)]),
                      (True, lambda t: pert.integrand_s_jet(t, s))):
        rule = _rule(pert, jet)
        T, K = _window(s, rule)
        ref_step = 0.02 / max(1.0, lam)
        refs = lattice_sums(rows, ref_step, math.ceil((T + 10.0) / ref_step))
        vals = rows(_lattice(0.0, K, rule.step))
        for i, (got, ref) in enumerate(zip(lattice_sums(rows, rule.step, K),
                                           refs)):
            d = _trapezoid(vals[i], T, rule, i)[1]
            bound = d["quad_error"] + d["tail_bound"]
            assert abs(got - ref) <= bound, (jet, i)


# L~ at these s by an earlier fixed rule (step 0.1 / max(1, lam), window
# 40 + |s| max(1, lam)), computed before the proven rule replaced it
L_S = [-4.0, -1.3, 0.0, 2.5, 4.0]
L_GOLDEN = [
    (1.0, [-8.52454290059159, -4.615643679619336, -0.0, -8.135394504373902,
           -8.52454290059159]),
    (2.3, [-5.838831010834726, -4.852004119802356, -1.3632241594757608,
           -5.961401656608383, -5.838831010834726]),
    (3.6, [-5.146556102943814, -4.635828634520604, -2.3084395679453293,
           -5.1961069806049185, -5.146556102943813]),
    (40.0, [-4.100018584005146, -4.050406249704013, -3.8922787246850534,
            -4.095889420813805, -4.100018584005146]),
]


@pytest.mark.parametrize("lam,want", L_GOLDEN)
def test_reduced_potential_golden(lam, want):
    L = reduced_melnikov(weak(lam), L_S)[0]
    for got, w in zip(L.tolist(), want):
        assert abs(got - w) <= 1e-13 * max(1.0, abs(w))


@pytest.mark.parametrize("lam", [1.0, 1.7, 2.6, 3.6])
def test_array_integrand_equals_scalar_integrand(lam):
    pert = weak(lam)
    for s in (-4.0, -0.3, 0.0, 2.5):
        t = np.linspace(-50.0, 50.0, 1001)
        vals = pert.integrand(t, s)
        assert vals.shape == t.shape
        scalar = np.array([pert.integrand(float(x), s) for x in t])
        assert np.max(np.abs(vals - scalar)) <= 1e-15


HOOKS = ("integrand", "integrand_s_jet", "bounds")


@pytest.mark.parametrize("hook", HOOKS)
def test_integrand_is_required(hook):
    pert = weak(1.0)
    hooks = {h: getattr(pert, h) for h in HOOKS if h != hook}
    with pytest.raises(TypeError, match="needs %s$" % hook):
        PerturbationModel(**hooks)


def test_integrand_alone_is_a_perturbation():
    # the three required hooks and no locate: the grid and the derivatives
    pert = PerturbationModel(**{h: getattr(weak(1.0), h) for h in HOOKS})
    grid = np.linspace(-2.0, 2.0, 9)
    L = reduced_melnikov(pert, grid)[0]
    want = [closed_form_lam1(s) for s in grid.tolist()]
    assert np.max(np.abs(L - want)) <= 1e-9
    assert melnikov_derivatives(pert)[1] == pytest.approx(-8.0, abs=1e-5)


@pytest.mark.parametrize("lam", [1.0, 1.7, 2.6, 3.6, 12.0, 40.0])
def test_closed_form_integrand_matches_definition(lam):
    # pendula_weak's integrand against H*(loop) - H*(O) over each point's
    # window, densely where the loop passes the saddle's far side (t near
    # 0 and near s).  The definition rounds q1 before h reads it, and h' =
    # lam at q1 = pi, so its own error grows with lam: 6e-15 at lam 12 and
    # 2e-14 at lam 40, where the closed form is within 7e-16 of the exact
    # value (test_closed_form_integrand_golden)
    pert = weak(lam)
    ref = composed(lam)
    for s in (-4.0, -0.3, 0.0, 2.5, 40.0, 200.0):
        T = _window(s, _rule(pert))[0]
        t = np.concatenate([np.linspace(-T, T, 20001),
                            np.linspace(-3.0, 3.0, 6001),
                            s + np.linspace(-30.0, 30.0, 6001)])
        with np.errstate(over="ignore"):
            want = ref.integrand(t, s)
        err = np.max(np.abs(pert.integrand(t, s) - want))
        assert err <= max(4e-15, 1e-15 * lam), (s, err)


# 1 - cos(xi(lam t) - xi(t - s)), xi(u) = 4 atan(e^u), in 50-digit
# arithmetic (mpmath 1.3.0) at the float t, rounded to a double; the
# s = 0 points are where H*(loop) - H*(O) is furthest from it
INTEGRAND_GOLDEN = [
    (12.0, 0.0, 0.0726, 0.8411635889204447),
    (12.0, 0.0, 0.0562, 0.5864964277364764),
    (40.0, 0.0, 0.016, 0.6085821017471645),
    (40.0, 0.0, 0.0183, 0.7439282496534829),
    (40.0, 0.0, 0.0241, 1.0651999615500516),
    (1.7, 2.5, -0.4, 1.0849387577138379),
    (40.0, 2.5, 2.45, 1.9950083215431358),
]


@pytest.mark.parametrize("lam,s,t,want", INTEGRAND_GOLDEN)
def test_closed_form_integrand_golden(lam, s, t, want):
    assert abs(weak(lam).integrand(t, s) - want) <= 1e-15


# d/ds and d^2/ds^2 of 1 - cos(D), D = xi(lam t) - xi(t - s), in 50-digit
# arithmetic (mpmath 1.3.0) at the float t, rounded to a double: sin(D) D'
# and cos(D) D'^2 + sin(D) D'' with D' = 2 sech(t - s) and D'' = D' tanh(t
# - s), which agree with mpmath.diff of 1 - cos(D) in s to 1e-40
S_JET_GOLDEN = [
    (12.0, 0.0, 0.0726, 1.9694173860568194, 0.7747376486642107),
    (12.0, 0.0, 0.0562, 1.8181330047513593, 1.7508727996316429),
    (40.0, 0.0, 0.016, 1.8401905196576462, 1.5947113855771615),
    (40.0, 0.0, 0.0241, 1.9951650036238053, -0.2125742600462159),
    (40.0, 0.0, -0.0183, -1.9329918760112639, 1.0593138575690992),
    (1.7, 2.5, -0.4, 0.2186355716570066, -0.22140541201487338),
    (40.0, 2.5, 2.45, -0.1993347475434848, -3.9601413229065363),
]


@pytest.mark.parametrize("lam,s,t,want1,want2", S_JET_GOLDEN)
def test_integrand_s_jet_golden(lam, s, t, want1, want2):
    got1, got2 = weak(lam).integrand_s_jet(t, s)
    assert abs(got1 - want1) <= 1e-15 * max(1.0, abs(want1))
    assert abs(got2 - want2) <= 1e-15 * max(1.0, abs(want2))


def test_derivatives_call_the_s_jet_once():
    pert = weak(2.0)
    calls = []

    def s_jet(t, s):
        calls.append((t.size, s))
        return pert.integrand_s_jet(t, s)

    counted = replace(pert, integrand_s_jet=s_jet)
    assert melnikov_derivatives(counted) == melnikov_derivatives(pert)
    assert calls == [(395, 0.0)]    # 19.95 / 0.1013 steps each side


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.6])
def test_reduced_potential_matches_definition(lam):
    pert = weak(lam)
    grid = np.linspace(-4.0, 4.0, 81)
    L = reduced_melnikov(pert, grid)[0]
    L_ref = reduced_melnikov(composed(lam), grid)[0]
    assert np.max(np.abs(L - L_ref)) <= 1e-14


@pytest.mark.parametrize("lam", [18.0, 40.0])
def test_large_lam_is_silent(lam):
    # exp overflows to inf on the far nodes of the s-derivatives' window
    pert = weak(lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d1, d2 = melnikov_derivatives(pert)
        L = reduced_melnikov(pert, [-4.0, 0.0, 4.0])[0]
    assert abs(d1) < 1e-13 and d2 < 0
    assert L[0] == pytest.approx(L[2], abs=1e-12)


def test_node_budget_refuses_before_allocating(monkeypatch):
    # lam = 5e4 at |s| = 4 would need 10,284,205 nodes, on its own and as
    # the widest window of a grid whose s = 0 window fits (8,495,823)
    real_linspace, real_arange = np.linspace, np.arange

    def linspace(start, stop, num, *args, **kwargs):
        assert num <= NODE_BUDGET
        return real_linspace(start, stop, num, *args, **kwargs)

    def arange(start, stop=None, *args, **kwargs):
        assert (start if stop is None else stop - start) <= NODE_BUDGET
        return real_arange(start, stop, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)
    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(QuadratureError, match="needs 10284205 nodes"):
        melnikov_potential(weak(5e4), s=4.0)
    with pytest.raises(QuadratureError, match="needs 10284205 nodes"):
        reduced_melnikov(weak(5e4), [0.0, 4.0])


@pytest.mark.parametrize("pert,s", [
    # a nan strip width makes a nan step, an infinite tail constant an
    # infinite window, and lam = 1e300 a count of 8e301 at s = 0
    (with_bounds(weak(2.0), width=math.nan), 1.0),
    (weak(1e300), 0.0),
    (with_bounds(weak(2.0), tail=math.inf), 0.0),
])
def test_node_budget_refuses_a_non_finite_count(pert, s):
    with pytest.raises(QuadratureError, match="budget"):
        melnikov_potential(pert, s=s)
    with pytest.raises(QuadratureError, match="budget"):
        melnikov_derivatives(pert)


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.6])
def test_array_h_matches_scalar_jet(lam):
    # around the points where an earlier jet switched to power limits, at
    # the saddle itself, and just below multiples of 2pi, where q1 - 2pi
    # floor(q1 / 2pi) rounds below 0 (a fractional power of a negative
    # float is complex).  The reference's h on the array, and the jet at
    # its entries, numpy floats, against h and the jet at Python floats
    h, h_slope = _weak_h(lam)
    m = builtin_model("pendula_weak", [lam])
    near = 1e-5 * np.array([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])
    below = [math.nextafter(k * 2.0 * math.pi, -math.inf)
             for k in (0, 16, -162)]
    q1 = np.concatenate([np.linspace(-7.0, 13.0, 2001), near, -near,
                         2.0 * math.pi + near, 2.0 * math.pi - near, below])
    ref = np.array([[h(x), *m.jet(x)] for x in q1.tolist()]).T
    arrays = np.array([m.jet(x) for x in q1]).T
    for name, got, want in zip(("h",) + CoefficientJet._fields,
                               (WeakReference(lam).h_jet(q1)[0], *arrays),
                               ref):
        got = np.broadcast_to(got, q1.shape)
        err = np.abs(got - want)
        assert np.all((err <= 1e-14 * np.maximum(1.0, np.abs(want)))
                      | (np.isnan(got) & np.isnan(want))), (name, np.nanmax(err))
    # the loop family reads h' alone, the same numbers as the jet's b120
    assert np.array_equal([h_slope(x)[0] for x in q1],
                          [-CoefficientJet(*m.jet(x)).b120 for x in q1])


def grid_and_alone(pert, grid):
    """reduced_melnikov's samples and diagnostics on grid, and those of
    melnikov_potential called alone at each point."""
    diags = []
    real = melnikov_potential

    def recording(*args, **kwargs):
        diags.append(kwargs.setdefault("diag", {}))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("septrans.melnikov.melnikov_potential", recording)
        L = reduced_melnikov(pert, grid)[0]
    alone = [{} for _ in grid]
    L_alone = [melnikov_potential(pert, s=float(s), diag=d)
               for s, d in zip(grid, alone)]
    return (L, diags), (L_alone, alone)


GRID_81 = np.linspace(-4.0, 4.0, 81)


@pytest.mark.parametrize("pert,grid", [
    (weak(1.0), GRID_81),
    (weak(2.3), GRID_81),
    (weak(3.6), GRID_81),
    (widened(weak(2.0)), [-3.0, -1.0, 0.0]),
    (weak(2.3), [1.7]),
    # a window of 21,159 nodes, above BLOCK_ELEMENTS: one row per block
    (weak(40.0), [-40.0, 0.0, 40.0]),
])
def test_grid_equals_standalone_bit_for_bit(pert, grid):
    (L, diags), (L_alone, alone) = grid_and_alone(pert, grid)
    assert len(diags) == len(grid)          # one call per section point
    assert L.tolist() == L_alone
    assert diags == alone


def test_grid_sample_does_not_depend_on_the_grid():
    pert = weak(2.3)
    coarse_grid = np.linspace(-4.0, 4.0, 3)
    fine, _ = reduced_melnikov(pert, GRID_81)
    coarse, _ = reduced_melnikov(pert, coarse_grid)
    assert GRID_81[[0, 40, 80]].tolist() == coarse_grid.tolist()
    assert fine[[0, 40, 80]].tolist() == coarse.tolist()


def counted_grid(pert, grid):
    """The value count of each integrand call that reduced_melnikov makes
    on grid, after checking that the counted samples are the same."""
    calls = []

    def counting(t, s):
        calls.append(np.broadcast(t, s).size)
        return pert.integrand(t, s)

    L = reduced_melnikov(replace(pert, integrand=counting), grid)[0]
    assert L.tolist() == reduced_melnikov(pert, grid)[0].tolist()
    return calls


def test_grid_calls_the_integrand_once_per_block():
    calls = counted_grid(weak(2.0), GRID_81)
    widest = 2 * 215 + 1                    # 23.05 / 0.1074 steps each side
    rows = BLOCK_ELEMENTS // widest
    assert rows > 1
    assert len(calls) <= math.ceil(81 / rows)
    assert max(calls) <= BLOCK_ELEMENTS
    # the budget is below lam = 40's window at |s| = 40, which a block
    # then takes one row at a time, each cut to its own window
    assert BLOCK_ELEMENTS < 21159
    assert counted_grid(weak(40.0), [-40.0, 0.0, 40.0]) == [21159, 6817,
                                                            21159]


def test_integrand_of_the_wrong_shape_fails_loudly():
    pert = weak(2.0)
    flat = replace(pert, integrand=lambda t, s: np.ravel(pert.integrand(t, s)))
    with pytest.raises(ValueError, match=r"\(M, 1\) column"):
        reduced_melnikov(flat, [-1.0, 0.0, 1.0])
    # one scalar for every node and section point is in the contract
    zero = replace(pert, integrand=lambda t, s: 0.0)
    assert reduced_melnikov(zero, [-1.0, 0.0, 1.0])[0].tolist() == [
        0.0, 0.0, 0.0]
    # the s-jet's rows are held to the same contract
    short = replace(pert, integrand_s_jet=lambda t, s: tuple(
        row[1:] for row in pert.integrand_s_jet(t, s)))
    with pytest.raises(ValueError, match=r"integrand_s_jet\(t, s\) gave"):
        melnikov_derivatives(short)
    zero = replace(pert, integrand_s_jet=lambda t, s: (0.0, 0.0))
    assert melnikov_derivatives(zero) == (0.0, 0.0)



def test_a_row_far_narrower_than_the_others_is_proven():
    # the third row's strip 30 times narrower sets the s-jet's step, at
    # which the first row's error bound 2 M / expm1(2 pi a / h) would
    # overflow; capped, it only loosens.  The integrand's rule is untouched
    pert = weak(2.0)
    first, second, third = pert.bounds()
    narrow = replace(pert, bounds=lambda: (
        first, second, third._replace(width=third.width / 30.0)))
    assert melnikov_potential(narrow, s=0.5) == melnikov_potential(pert, s=0.5)
    diag, narrow_diag = {}, {}
    want = melnikov_derivatives(pert, diag=diag)
    got = melnikov_derivatives(narrow, diag=narrow_diag)
    for g, w in zip(got, want):
        assert abs(g - w) <= diag["error_bound"] + narrow_diag["error_bound"]


@pytest.mark.parametrize("count", [1, 2, 4])
def test_bounds_give_one_row_per_integral(count):
    pert = weak(2.0)
    rows = (pert.bounds() * 2)[:count]
    other = replace(pert, bounds=lambda: rows)
    for run in (lambda: melnikov_potential(other, s=0.5),
                lambda: melnikov_derivatives(other)):
        with pytest.raises(ValueError, match="three, for the integrand and "
                                             "each integrand_s_jet row"):
            run()
