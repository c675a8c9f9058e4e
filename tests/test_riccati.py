import math
from dataclasses import replace

import numpy as np
import pytest

from septrans.loops import loop_profile
from septrans.models import CoefficientJet, HamiltonianModel, builtin_model
from septrans.numerics import central_diff
import septrans.riccati as riccati
from septrans.riccati import (BlowUpError, HypothesesError, SolverOptions,
                              _integrate, riccati_initial,
                              riccati_to_linear_oracle, solve_riccati)


def loop_for(name, params):
    return loop_profile(builtin_model(name, params))


def test_neumann_coefficients():
    l1, l2 = 1.0, 2.0
    loop = loop_profile(builtin_model("neumann", [l1, l2]))
    for q1 in (0.0, 1.0, 2.0, 4.0):
        a = 4.0 + q1 * q1
        (_q1dot, alpha, delta, _b220, _db220, _ds1_q1dot, _v1, beta, _ds0,
         _s1, _ds1) = loop(q1)
        assert delta == 0.0
        assert beta == pytest.approx(a * a / 16.0, rel=1e-14)
        expect = 16.0 / a ** 2 * (l2 ** 2 - 4.0 * l1 ** 2 * q1 * q1 / a)
        assert alpha == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_identical_pendula_coefficients_at_zero():
    f0 = 0.15
    _q1dot, alpha, delta, b220, *_rest = loop_for(
        "pendula_identical", [f0])(0.0)
    assert delta == pytest.approx(-1.0, abs=1e-12)
    assert b220 == 2.0
    assert alpha == pytest.approx(-f0, abs=1e-12)


def test_alpha_reduces_to_y_without_coupling():
    # with no order-2 kinetic term and S1 == 0 (b120 = 0 on the sphere)
    # the bracket vanishes
    m = builtin_model("neumann", [1.0, 2.0])
    flat = replace(m, b112=lambda q1: 0.0, b122=lambda q1: 0.0,
                   b222=lambda q1: 0.0)
    loop = loop_profile(flat)
    for q1 in (0.3, 1.5, 3.0):
        assert loop(q1)[1] == m.Y(q1)


def test_initial_condition_neumann():
    T0, Delta = riccati_initial(loop_for("neumann", [1.0, 2.0]))
    assert T0 == pytest.approx(2.0, abs=1e-14)
    assert Delta == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize("f0", [0.0, 0.05, 0.1, 0.18, 0.25, 0.3, 0.35, 0.4,
                                0.44, 0.49])
def test_initial_condition_identical_pendula(f0):
    T0, Delta = riccati_initial(loop_for("pendula_identical", [f0]))
    b = math.sqrt(1.0 - 2.0 * f0)
    assert T0 == pytest.approx((1.0 + b) / 2.0, abs=1e-14)
    assert Delta == pytest.approx(b * b, abs=1e-14)


def test_initial_condition_pure_square_root():
    # (q1dot, alpha, delta, b220, db220, dS1 q1dot, V1, beta, dS0, S1, dS1)
    T0, Delta = riccati_initial(
        lambda q: (0.0, 9.0, 0.0, 1.0) + (0.0,) * 7)
    assert (T0, Delta) == (3.0, 9.0)


def test_initial_condition_negative_discriminant():
    with pytest.raises(HypothesesError):
        riccati_initial(lambda q: (0.0, -9.0, 0.0, 1.0) + (0.0,) * 7)


def test_neumann_solution_closed_form_along_the_way():
    l1, l2 = 1.0, 2.0
    m = builtin_model("neumann", [l1, l2])
    sol = solve_riccati(m, 2.0)

    def exact(q1):
        a = q1 * q1 + 4.0
        num = -(16 * l2 ** 2 + 16 * l1 * l2) * a + 32 * l1 ** 2 * q1 * q1
        den = a * a * ((l1 - l2) * q1 * q1 - 4 * l1 - 4 * l2)
        return num / den

    for q1 in np.linspace(0.05, 2.0, 40):
        assert sol(q1) == pytest.approx(exact(q1), abs=1e-8)
    assert sol(2.0) == pytest.approx(0.625, abs=1e-8)
    assert sol.diagnostics["startup_sensitivity_ok"]


def test_neumann_end_slope_at_default_tolerance():
    # T(2) = (lambda2 + lambda1 - lambda1^2/lambda2)/4 in closed form; at
    # the default rtol 1e-9 the 8th-order solve is within 1.9e-11 of it
    l1, l2 = 1.2, 3.0
    sol = solve_riccati(builtin_model("neumann", [l1, l2]), 2.0)
    assert abs(sol(2.0) - (l2 + l1 - l1 * l1 / l2) / 4.0) <= 5e-11


@pytest.mark.parametrize("lam", [2.3816082067277553, 2.5999948496581062,
                                 2.67, 3.164723259410299])
def test_weak_coupling_slope_at_default_tolerance(lam):
    # T(pi) = 0 by construction.  Uncapped, DOP853's error estimate lets
    # one step of 0.7-1.0 cross the fall of T at these lam and accepts a
    # local error 1e3 to 1e5 times the tolerance: T(pi) was 1.2e-6 to
    # 4.2e-4 at rtol 1e-9 (scipy's DOP853 gives the same)
    sol = solve_riccati(builtin_model("pendula_weak", [lam]), math.pi)
    assert abs(sol(math.pi)) <= 1e-8


def test_constant_f_value_at_pi():
    for b in (0.4, 0.8):
        f0 = (1.0 - b * b) / 2.0
        m = builtin_model("pendula_identical", [f0])
        sol = solve_riccati(m, math.pi)
        assert sol(math.pi) == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-8)


def test_separable_case_tangent_slope():
    m = builtin_model("pendula_identical", [0.0])
    sol = solve_riccati(m, math.pi)
    assert abs(sol(math.pi)) < 1e-8


def test_equation_residual_along_dense_output():
    for spec in (("neumann", [1.3, 2.2]), ("pendula_identical", [0.2]),
                 ("pendula_weak", [2.0])):
        m = builtin_model(*spec)
        loop = loop_profile(m)
        target = 2.0 if spec[0] == "neumann" else math.pi
        sol = solve_riccati(m, target,
                            opts=SolverOptions(rtol=1e-11,
                                               sensitivity_check=False))
        # stay clear of both ends so the difference stencil remains inside
        # the dense-output range
        qs = np.linspace(sol.epsilon_start * 40, target - 5e-4, 200)
        for q1 in qs:
            dT = central_diff(sol, q1, h=1e-4)
            T = sol(q1)
            q1dot, alpha, delta, b220, *_rest = loop(q1)
            r = q1dot * dT + 2 * delta * T + b220 * T * T - alpha
            assert abs(r) < 1e-7 * (1.0 + abs(alpha))


def test_oracle_neumann():
    m = builtin_model("neumann", [1.0, 2.0])
    assert riccati_to_linear_oracle(m, 2.0) == pytest.approx(0.625, abs=1e-7)


def test_oracle_constant_f():
    b = 0.8
    m = builtin_model("pendula_identical", [(1.0 - b * b) / 2.0])
    v = riccati_to_linear_oracle(m, math.pi)
    assert v == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-7)  # -0.225


def test_oracle_separable_zero():
    m = builtin_model("pendula_identical", [0.0])
    assert abs(riccati_to_linear_oracle(m, math.pi)) < 1e-8


@pytest.mark.parametrize("name, params, target", [
    ("neumann", [1.0, 2.0], 0.0), ("neumann", [1.0, 2.0], -1.0),
    ("neumann", [1.0, 2.0], math.nan), ("neumann", [1.0, 2.0], 9.0),
    ("pendula_identical", [0.2], 7.0)])
@pytest.mark.parametrize("solve", [solve_riccati, riccati_to_linear_oracle])
def test_target_outside_the_loop_interval_raises(solve, name, params,
                                                 target):
    # neumann's interval is (0, 8], pendula_identical's (0, 2 pi]
    with pytest.raises(ValueError, match=r"q1_target must lie in \(0, "):
        solve(builtin_model(name, params), target)


@pytest.mark.parametrize("params, q1", [([3.0, -2.8], 1.93118),
                                        ([1.5, -1.3], 2.60578)])
def test_oracle_pole_is_where_the_solve_blows_up(params, q1):
    m = builtin_model("pendula_identical", params)
    with pytest.raises(BlowUpError, match="pole of T") as pole:
        riccati_to_linear_oracle(m, math.pi)
    with pytest.raises(BlowUpError, match="blow-up") as blow_up:
        solve_riccati(m, math.pi)
    assert abs(pole.value.q1 - blow_up.value.q1) <= 1e-4
    assert blow_up.value.q1 == pytest.approx(q1, abs=1e-5)


@pytest.mark.parametrize("solve", [solve_riccati, riccati_to_linear_oracle])
def test_loop_speed_underflow_is_a_blow_up(solve):
    # lambda1 = 1e-300 makes q1dot underflow to 0 at every q1
    with pytest.raises(BlowUpError, match="underflows to 0"):
        solve(builtin_model("neumann", [1e-300, 2.0]), 2.0)


def test_oracle_step_floor_is_not_a_pole(monkeypatch):
    original = riccati.solve_ivp

    def stalled(*args, **kwargs):
        sol = original(*args, **kwargs)
        sol.success = False
        return sol

    monkeypatch.setattr(riccati, "solve_ivp", stalled)
    with pytest.raises(BlowUpError, match="below its floor"):
        riccati_to_linear_oracle(builtin_model("neumann", [1.0, 2.0]), 2.0)


def test_forward_stability_of_target_solution():
    m = builtin_model("neumann", [1.0, 2.0])
    p = loop_profile(m)
    ref = solve_riccati(m, 2.0)
    for bump in (1e-4, -1e-4):
        T0, _ = riccati_initial(p)
        sol, _residual = _integrate(p, ref.epsilon_start, 2.0,
                                    T0 + bump, 1e-9, False)
        assert abs(sol.sol(2.0) - ref(2.0)) < 1e-6


def resolve_spread(sol, rtol, stable=False):
    """|T(target)| spread of two solves started 10 epsilon above and below
    sol's start value, the first variation's finite-difference reference."""
    eps, target = sol.epsilon_start, sol.q1_target
    ends = [_integrate(sol.profile, eps, target, sol(0.0) + shift, rtol,
                       stable)[0].sol(target)
            for shift in (10.0 * eps, -10.0 * eps)]
    return abs(ends[0] - ends[1])


@pytest.mark.parametrize("name, params, stable", [
    ("pendula_identical", [0.2, 0.05], False),
    ("pendula_identical", [0.35, 0.1], False),
    ("pendula_identical", [0.05, -0.02], False),
    ("neumann", [0.5, 0.6], False),
    ("pendula_identical", [0.2, 0.05], True)])
def test_startup_sensitivity_is_the_first_variation(name, params, stable):
    # where the start-up error really propagates, the quadrature along the
    # plain solve gives the spread of two tightly solved perturbed starts
    m = builtin_model(name, params)
    sol = solve_riccati(m, m.matching[0], stable=stable)
    ref = resolve_spread(sol, 1e-12, stable)
    assert sol.diagnostics["startup_sensitivity"] == pytest.approx(ref,
                                                                   rel=0.01)
    assert sol.diagnostics["n_sensitivity_evaluations"] == (
        5 * sol.diagnostics["n_steps"])


@pytest.mark.parametrize("name, params, stable", [
    ("neumann", [1.2, 3.0], False), ("pendula_identical", [0.35, 0.1], False),
    ("pendula_identical", [0.2, 0.05], True), ("pendula_weak", [2.5], False),
    ("pendula_weak", [1.5], False)])
def test_startup_quadrature_is_the_sum_over_its_nodes(name, params, stable):
    # the quadrature is Gauss-Legendre on each accepted step, a loop call
    # and a dense call at each node
    m = builtin_model(name, params)
    sol = solve_riccati(m, m.matching[0], stable=stable)
    loop, dense = sol.profile, sol._dense
    sgn2 = -2.0 if stable else 2.0
    integral = 0.0
    for a, b in zip(dense.ts[:-1], dense.ts[1:]):
        for x, w in zip(riccati._GAUSS5_X, riccati._GAUSS5_W):
            q1 = 0.5 * (a + b) + 0.5 * (b - a) * x
            (q1dot, _alpha, delta, b220, _db220, _ds1_q1dot, _v1, _beta,
             _ds0, _s1, _ds1) = loop(q1)
            integral += 0.5 * (b - a) * w * (
                2.0 * delta + sgn2 * b220 * dense(q1)) / q1dot
    assert riccati._startup_propagation(loop, dense, stable) == (
        pytest.approx(math.exp(-integral), rel=1e-12),
        5 * (len(dense.ts) - 1))


@pytest.mark.parametrize("name, params", [("neumann", [1.2, 3.0]),
                                          ("pendula_weak", [2.5])])
def test_startup_sensitivity_leaves_out_the_solve_error(name, params):
    # here the start-up error is contracted below the floats' spacing: two
    # perturbed re-solves at the solve's own tolerance differ by their
    # discretisation error alone (at rtol 1e-12 on neumann [1.2, 3], by
    # exactly 0), which the first variation does not contain
    m = builtin_model(name, params)
    sol = solve_riccati(m, m.matching[0])
    ref = resolve_spread(sol, 1e-9)
    assert sol.diagnostics["startup_sensitivity_ok"]
    assert sol.diagnostics["startup_sensitivity"] < ref


def test_epsilon_robustness():
    m = builtin_model("neumann", [1.0, 2.0])
    a = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=8e-4,
                                                 sensitivity_check=False))
    b = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=4e-4,
                                                 sensitivity_check=False))
    assert abs(a(2.0) - b(2.0)) < 1e-8


def test_blow_up_reported_with_location(monkeypatch):
    m = builtin_model("neumann", [1.0, 2.0])
    monkeypatch.setattr(riccati, "CAP", 1.5)
    with pytest.raises(BlowUpError) as exc_info:
        solve_riccati(m, 2.0, opts=SolverOptions(sensitivity_check=False))
    assert 0.0 <= exc_info.value.q1 <= 2.0
    assert "blow-up" in str(exc_info.value)


def test_start_beyond_cap_is_blow_up(monkeypatch):
    # T0 = 2 and T(2) = 0.625: |T| > 0.3 on the whole interval, so no sign
    # change of the cap event would ever report it
    m = builtin_model("neumann", [1.0, 2.0])

    def no_solve(*args, **kwargs):
        raise AssertionError("integrated from a start beyond the cap")

    monkeypatch.setattr(riccati, "solve_ivp", no_solve)
    monkeypatch.setattr(riccati, "CAP", 0.3)
    with pytest.raises(BlowUpError, match="beyond the cap") as exc_info:
        solve_riccati(m, 2.0)
    a, b = m.domain
    assert exc_info.value.q1 == 1e-4 * (b - a)


@pytest.mark.parametrize("name,params,opts", [
    # q1dot underflows to 0 at the start, or everywhere with lambda1
    ("pendula_identical", [0.2], SolverOptions(epsilon=1e-300)),
    ("neumann", [1e-300, 2.0], SolverOptions()),
])
def test_loop_speed_underflow_is_blow_up(name, params, opts):
    with pytest.raises(BlowUpError, match="q1dot underflows to 0") as info:
        solve_riccati(builtin_model(name, params), 2.0, opts=opts)
    assert "q1=" in str(info.value)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("epsilon", [1.2, 1.0])
def test_start_at_or_past_target_raises(monkeypatch, epsilon):
    # integrating from 1.2 back to 1 would return T(1) = T0 = 2, where the
    # true slope is 1.378
    m = builtin_model("neumann", [1.0, 2.0])

    def no_solve(*args, **kwargs):
        raise AssertionError("integrated from a start at or past the target")

    monkeypatch.setattr(riccati, "solve_ivp", no_solve)
    with pytest.raises(ValueError, match="epsilon"):
        solve_riccati(m, 1.0, SolverOptions(epsilon=epsilon))


def test_start_offset_above_its_default_raises(monkeypatch):
    # the default, 1e-4 of the domain (8e-4 here), is the largest start
    # taken; test_epsilon_robustness takes a smaller one
    m = builtin_model("neumann", [1.0, 2.0])
    widest = solve_riccati(m, 2.0, SolverOptions(epsilon=8e-4))
    assert widest.epsilon_start == solve_riccati(m, 2.0).epsilon_start

    def no_solve(*args, **kwargs):
        raise AssertionError("integrated from a start above the ceiling")

    monkeypatch.setattr(riccati, "solve_ivp", no_solve)
    for eps in (math.nextafter(8e-4, 1.0), 1e-3):
        with pytest.raises(ValueError, match="above its ceiling 0.0008"):
            solve_riccati(m, 2.0, SolverOptions(epsilon=eps))
    with pytest.raises(ValueError, match="epsilon=nan"):
        solve_riccati(m, 2.0, SolverOptions(epsilon=math.nan))


def test_solution_keeps_its_loop_profile():
    m = builtin_model("pendula_identical", [0.2])
    sol = solve_riccati(m, math.pi)
    assert sol.profile(1.0) == loop_profile(m)(1.0)
    assert sol.diagnostics["restriction_residual_max"] < 1e-6


def test_query_beyond_target_raises():
    m = builtin_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 1.0, opts=SolverOptions(sensitivity_check=False))
    assert sol(1.0) == [sol(q) for q in np.array([0.5, 1.0])][1]
    with pytest.raises(ValueError, match="beyond the solved interval"):
        sol(1.5)
    with pytest.raises(ValueError):
        [sol(q) for q in np.array([0.5, 1.5])]


def test_query_at_nan_raises():
    m = builtin_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 2.0)
    with pytest.raises(ValueError, match="q1=nan beyond the solved interval"):
        sol(math.nan)


@pytest.mark.parametrize("rtol", [1e-15, 1e-300, 5e-324])
def test_rtol_below_its_floor_raises(monkeypatch, rtol):
    # dop853's first trial step overflows to nan below it, which read as a
    # coefficient overflow at q1=nan
    def no_solve(*args, **kwargs):
        raise AssertionError("solved at an rtol below the floor")

    monkeypatch.setattr(riccati, "solve_ivp", no_solve)
    with pytest.raises(ValueError, match="below its floor MIN_RTOL=1e-14"):
        solve_riccati(builtin_model("neumann", [1.0, 2.0]), 2.0,
                      SolverOptions(rtol=rtol))


def test_query_below_interval_raises():
    m = builtin_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 1.0, opts=SolverOptions(sensitivity_check=False))
    assert sol(0.0) == sol(sol.epsilon_start / 2) == sol.T0
    with pytest.raises(ValueError, match="below the solved interval"):
        sol(-1.0)
    with pytest.raises(ValueError):
        [sol(q) for q in np.array([-0.5, 0.5])]


def test_comparison_bracketing():
    # coupling (2 - cos)/8: in x = -cos(q1/2) variables the slope stays
    # between the constant-coefficient solutions with c^2 = min(1 - 2f),
    # d^2 = max(1 - 2f)
    m = builtin_model("pendula_identical", [0.25, -0.125])
    sol = solve_riccati(m, math.pi)
    xs = np.linspace(-1.0 + 1e-6, 0.0, 200)
    q1s = 2.0 * np.arccos(-xs)
    Tbar = 2.0 * np.array([sol(q) for q in q1s]) + xs
    c, d = 0.5, math.sqrt(3.0) / 2.0
    Tc = c - (1.0 - xs ** 2) / (c - xs)
    Td = d - (1.0 - xs ** 2) / (d - xs)
    lo = np.minimum(Tc, Td)
    hi = np.maximum(Tc, Td)
    assert np.all(Tbar >= lo - 1e-9)
    assert np.all(Tbar <= hi + 1e-9)


def test_oracle_equivalence_fundamental_solution_fixture():
    # the analytic fundamental solution of the linearized form for the
    # sphere model: y1 = (-4(l2+l1) + (l1-l2) q1^2) * q1^(l2/l1); its
    # logarithmic slope reproduces the closed-form T at interior points
    l1, l2 = 1.0, 3.0
    m = builtin_model("neumann", [l1, l2])

    def y1(q1):
        return (-4 * (l2 + l1) + (l1 - l2) * q1 * q1) * q1 ** (l2 / l1)

    p = loop_profile(m)
    sol = solve_riccati(m, 2.0)
    for q1 in (0.5, 1.0, 1.7):
        dy = central_diff(y1, q1, h=1e-6)
        # q1-form slope: T = beta * dS0 * y'/(b220 * y) in the q1 variable
        beta, ds0, _s1, _ds1 = p(q1)[7:]
        T_from_y = beta * ds0 * dy / (m.b220(q1) * y1(q1))
        assert sol(q1) == pytest.approx(T_from_y, rel=1e-6)


def test_solver_calls_through_module_solve_ivp(monkeypatch):
    # the bench's traced run counts rhs evaluations by rebinding this name
    m = builtin_model("neumann", [1.0, 2.0])
    opts = SolverOptions(sensitivity_check=False)

    def run():
        sol = solve_riccati(m, 2.0, opts=opts)
        return (sol(2.0), sol.diagnostics, riccati_to_linear_oracle(m, 2.0))

    plain = run()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = riccati.solve_ivp
    monkeypatch.setattr(riccati, "solve_ivp", counting)
    assert run() == plain
    assert len(calls) == 2


@pytest.mark.parametrize("check", [True, False])
def test_one_solve_with_or_without_sensitivity_check(monkeypatch, check):
    m = builtin_model("pendula_identical", [0.2, 0.05])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = riccati.solve_ivp
    monkeypatch.setattr(riccati, "solve_ivp", counting)
    sol = solve_riccati(m, math.pi, opts=SolverOptions(sensitivity_check=check))
    assert len(calls) == 1
    assert ("startup_sensitivity" in sol.diagnostics) == check


def counting_model(m):
    """m rebuilt on a jet that counts its calls in the returned list."""
    calls = []

    def jet(q1):
        calls.append(q1)
        return m.jet(q1)

    return HamiltonianModel.from_jet(
        jet, m.saddle, domain=m.domain, periodic=m.periodic,
        reversibility=m.reversibility, name=m.name, params=m.params,
        matching=m.matching), calls


def counting_solver(monkeypatch):
    """Rebinds riccati.solve_ivp to count the evaluations of each rhs it
    is given, in the returned list."""
    evaluations = []
    original = riccati.solve_ivp

    def solve(fun, *args, **kwargs):
        def rhs(t, y):
            evaluations.append(t)
            return fun(t, y)
        return original(rhs, *args, **kwargs)

    monkeypatch.setattr(riccati, "solve_ivp", solve)
    return evaluations


@pytest.mark.parametrize("name,params", [
    ("neumann", [1.2, 3.0]), ("pendula_identical", [0.2, 0.05]),
    ("pendula_weak", [2.5])])
def test_built_in_jets_return_plain_tuples(name, params):
    m = builtin_model(name, params)
    assert type(m.jet(1.0)) is tuple and len(m.jet(1.0)) == 11
    assert all(type(m.jet(q)) is tuple for q in np.array([1.0, 2.0]))


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("name,params", [
    ("neumann", [1.2, 3.0]), ("pendula_identical", [0.2, 0.05]),
    ("pendula_weak", [2.5])])
def test_one_jet_call_per_slope_evaluation(monkeypatch, name, params, check):
    m, calls = counting_model(builtin_model(name, params))
    evaluations = counting_solver(monkeypatch)
    built = []
    new = CoefficientJet.__new__

    def counting_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(CoefficientJet, "__new__", counting_new)
    sol = solve_riccati(m, m.matching[0],
                        opts=SolverOptions(sensitivity_check=check))
    # outside the solve: riccati_initial's call at 0, and the start-up
    # quadrature's call at each of its nodes
    assert len(calls) == len(evaluations) + 1 + (
        sol.diagnostics["n_sensitivity_evaluations"] if check else 0)
    # the slope equation's terms name no jet
    assert not built


def test_one_jet_call_per_oracle_evaluation(monkeypatch):
    m, calls = counting_model(builtin_model("pendula_weak", [2.5]))
    evaluations = counting_solver(monkeypatch)
    riccati_to_linear_oracle(m, math.pi)
    # outside the solve: riccati_initial's call at 0, and b220 at the start
    # and at the end
    assert len(calls) == len(evaluations) + 3
