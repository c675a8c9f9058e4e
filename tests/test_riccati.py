import math
from dataclasses import replace

import numpy as np
import pytest

from septrans.loops import loop_profile
from septrans.models import builtin_model
from septrans.numerics import central_diff
from septrans.riccati import (BlowUpError, HypothesesError,
                              RiccatiCoefficients, SolverOptions,
                              riccati_coefficients, riccati_initial,
                              riccati_to_linear_oracle, solve_riccati)


def get_model(name, params):
    made = builtin_model(name, params)
    return made[0] if isinstance(made, tuple) else made


def coeffs_for(name, params):
    m = get_model(name, params)
    return m, riccati_coefficients(m, loop_profile(m))


def test_neumann_coefficients():
    l1, l2 = 1.0, 2.0
    m, c = coeffs_for("neumann", [l1, l2])
    for q1 in (0.0, 1.0, 2.0, 4.0):
        a = 4.0 + q1 * q1
        assert c.delta(q1) == 0.0
        assert c.beta(q1) == pytest.approx(a * a / 16.0, rel=1e-14)
        expect = 16.0 / a ** 2 * (l2 ** 2 - 4.0 * l1 ** 2 * q1 * q1 / a)
        assert c.alpha(q1) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_identical_pendula_coefficients_at_zero():
    f0 = 0.15
    m, c = coeffs_for("pendula_identical", [f0])
    assert c.delta(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert c.b220(0.0) == 2.0
    assert c.alpha(0.0) == pytest.approx(-f0, abs=1e-12)


def test_alpha_reduces_to_y_without_coupling():
    # with no order-2 kinetic term and S1 == 0 the bracket vanishes
    m = get_model("neumann", [1.0, 2.0])
    p = loop_profile(m)
    p0 = replace(p, S1=lambda q1: 0.0, dS1=lambda q1: 0.0)
    flat = replace(m, b112=lambda q1: 0.0, b122=lambda q1: 0.0,
                   b222=lambda q1: 0.0)
    c = riccati_coefficients(flat, p0)
    for q1 in (0.3, 1.5, 3.0):
        assert c.alpha(q1) == m.Y(q1)


def test_initial_condition_neumann():
    _, c = coeffs_for("neumann", [1.0, 2.0])
    T0, Delta = riccati_initial(c)
    assert T0 == pytest.approx(2.0, abs=1e-14)
    assert Delta == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize("f0", [0.0, 0.05, 0.1, 0.18, 0.25, 0.3, 0.35, 0.4,
                                0.44, 0.49])
def test_initial_condition_identical_pendula(f0):
    _, c = coeffs_for("pendula_identical", [f0])
    T0, Delta = riccati_initial(c)
    b = math.sqrt(1.0 - 2.0 * f0)
    assert T0 == pytest.approx((1.0 + b) / 2.0, abs=1e-14)
    assert Delta == pytest.approx(b * b, abs=1e-14)


def test_initial_condition_pure_square_root():
    c = RiccatiCoefficients(alpha=lambda q: 9.0, beta=lambda q: 1.0,
                            delta=lambda q: 0.0, b220=lambda q: 1.0)
    T0, Delta = riccati_initial(c)
    assert (T0, Delta) == (3.0, 9.0)


def test_initial_condition_negative_discriminant():
    c = RiccatiCoefficients(alpha=lambda q: -9.0, beta=lambda q: 1.0,
                            delta=lambda q: 0.0, b220=lambda q: 1.0)
    with pytest.raises(HypothesesError):
        riccati_initial(c)


def test_neumann_solution_closed_form_along_the_way():
    l1, l2 = 1.0, 2.0
    m = get_model("neumann", [l1, l2])
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


def test_constant_f_value_at_pi():
    for b in (0.4, 0.8):
        f0 = (1.0 - b * b) / 2.0
        m = get_model("pendula_identical", [f0])
        sol = solve_riccati(m, math.pi)
        assert sol(math.pi) == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-8)


def test_separable_case_tangent_slope():
    m = get_model("pendula_identical", [0.0])
    sol = solve_riccati(m, math.pi)
    assert abs(sol(math.pi)) < 1e-8


def test_equation_residual_along_dense_output():
    for spec in (("neumann", [1.3, 2.2]), ("pendula_identical", [0.2]),
                 ("pendula_weak", [2.0])):
        m = get_model(*spec)
        p = loop_profile(m)
        c = riccati_coefficients(m, p)
        target = 2.0 if spec[0] == "neumann" else math.pi
        sol = solve_riccati(m, target,
                            opts=SolverOptions(rtol=1e-11, atol=1e-13,
                                               sensitivity_check=False),
                            profile=p)
        # stay clear of both ends so the difference stencil remains inside
        # the dense-output range
        qs = np.linspace(sol.epsilon_start * 40, target - 5e-4, 200)
        for q1 in qs:
            dT = central_diff(sol, q1, h=1e-4)
            T = sol(q1)
            r = (c.beta(q1) * p.dS0(q1) * dT + 2 * c.delta(q1) * T
                 + c.b220(q1) * T * T - c.alpha(q1))
            assert abs(r) < 1e-7 * (1.0 + abs(c.alpha(q1)))


def test_oracle_neumann():
    m = get_model("neumann", [1.0, 2.0])
    assert riccati_to_linear_oracle(m, 2.0) == pytest.approx(0.625, abs=1e-7)


def test_oracle_constant_f():
    b = 0.8
    m = get_model("pendula_identical", [(1.0 - b * b) / 2.0])
    v = riccati_to_linear_oracle(m, math.pi)
    assert v == pytest.approx((b - 1.0 / b) / 2.0, abs=1e-7)  # -0.225


def test_oracle_separable_zero():
    m = get_model("pendula_identical", [0.0])
    assert abs(riccati_to_linear_oracle(m, math.pi)) < 1e-8


def test_forward_stability_of_target_solution():
    m = get_model("neumann", [1.0, 2.0])
    p = loop_profile(m)
    ref = solve_riccati(m, 2.0, profile=p)
    for bump in (1e-4, -1e-4):
        opts = SolverOptions(sensitivity_check=False)
        from septrans.riccati import _integrate, riccati_initial as ri
        c = riccati_coefficients(m, p)
        T0, _ = ri(c)
        sol = _integrate(c, p, ref.epsilon_start, 2.0, T0 + bump, opts, False)
        assert abs(float(sol.sol(2.0)[0]) - ref(2.0)) < 1e-6


def test_epsilon_robustness():
    m = get_model("neumann", [1.0, 2.0])
    a = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=8e-4,
                                                 sensitivity_check=False))
    b = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=4e-4,
                                                 sensitivity_check=False))
    assert abs(a(2.0) - b(2.0)) < 1e-8


def test_blow_up_reported_with_location():
    m = get_model("neumann", [1.0, 2.0])
    with pytest.raises(BlowUpError) as exc_info:
        solve_riccati(m, 2.0, opts=SolverOptions(cap=1.5,
                                                 sensitivity_check=False))
    assert 0.0 <= exc_info.value.q1 <= 2.0
    assert "blow-up" in str(exc_info.value)


def test_query_beyond_target_raises():
    m = get_model("neumann", [1.0, 2.0])
    sol = solve_riccati(m, 1.0, opts=SolverOptions(sensitivity_check=False))
    assert sol(1.0) == sol(np.array([0.5, 1.0]))[1]
    with pytest.raises(ValueError, match="beyond the solved interval"):
        sol(1.5)
    with pytest.raises(ValueError):
        sol(np.array([0.5, 1.5]))


def test_comparison_bracketing():
    # coupling (2 - cos)/8: in x = -cos(q1/2) variables the slope stays
    # between the constant-coefficient solutions with c^2 = min(1 - 2f),
    # d^2 = max(1 - 2f)
    m = get_model("pendula_identical", [0.25, -0.125])
    sol = solve_riccati(m, math.pi)
    xs = np.linspace(-1.0 + 1e-6, 0.0, 200)
    q1s = 2.0 * np.arccos(-xs)
    Tbar = 2.0 * sol(q1s) + xs
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
    m = get_model("neumann", [l1, l2])

    def y1(q1):
        return (-4 * (l2 + l1) + (l1 - l2) * q1 * q1) * q1 ** (l2 / l1)

    p = loop_profile(m)
    sol = solve_riccati(m, 2.0, profile=p)
    for q1 in (0.5, 1.0, 1.7):
        dy = central_diff(y1, q1, h=1e-6)
        # q1-form slope: T = beta * dS0 * y'/(b220 * y) in the q1 variable
        T_from_y = p.beta(q1) * p.dS0(q1) * dy / (m.b220(q1) * y1(q1))
        assert sol(q1) == pytest.approx(T_from_y, rel=1e-6)
