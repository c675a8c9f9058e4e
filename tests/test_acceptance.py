"""End-to-end acceptance checks.

Each test records one machine-readable PASS/FAIL line; conftest.py echoes
them in the terminal summary so the verdicts survive pytest's capture.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from septrans.charts import (chart_transversality, inversion_transition,
                             stable_from_reversibility, torus_transversality)
from septrans.equilibrium import check_positive_definite, linearize
from septrans.loops import loop_profile, restriction_residual
from septrans.melnikov import (lambda0_threshold, melnikov_derivatives,
                               melnikov_potential, perturbed_loop_verdict)
from septrans.models import builtin_model
from septrans.riccati import (SolverOptions, _integrate, riccati_initial,
                              riccati_terms, riccati_to_linear_oracle,
                              solve_riccati)


REPORT_LINES: list[str] = []


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                REPORT_LINES.append("ACCEPTANCE %2d: FAIL - %s" % (num, desc))
                raise
            REPORT_LINES.append("ACCEPTANCE %2d: PASS - %s" % (num, desc))
        return wrapper
    return deco


SPHERE_PAIRS = [(1.0, 2.0), (1.0, 3.0), (1.75, 2.0), (0.5, 1.5)]


@criterion(1, "sphere-model slope at the matching point, four parameter "
              "pairs, closed form to 1e-6, each solve under 1 s")
def test_acceptance_01():
    for l1, l2 in SPHERE_PAIRS:
        m = builtin_model("neumann", [l1, l2])
        t_start = time.perf_counter()
        sol = solve_riccati(m, 2.0)
        elapsed = time.perf_counter() - t_start
        expect = 0.25 * (l2 + l1 - l1 * l1 / l2)
        assert sol(2.0) == pytest.approx(expect, abs=1e-6)
        assert elapsed < 1.0


@criterion(2, "sphere-model transversality verdict with closed-form gap")
def test_acceptance_02():
    for l1, l2 in SPHERE_PAIRS:
        m = builtin_model("neumann", [l1, l2])
        r = chart_transversality(m, 2.0, inversion_transition())
        Tu = 0.25 * (l2 + l1 - l1 * l1 / l2)
        gap = 2.0 * Tu - l1 / 2.0
        assert gap > 0
        assert r.verdict == "transversal"
        assert r.gap == pytest.approx(gap, abs=1e-6)


@criterion(3, "closed-form initial slope and discriminant for ten "
              "parameter values")
def test_acceptance_03():
    for l1, l2 in [(1.0, 2.0), (1.0, 3.0), (0.5, 1.5), (2.0, 2.5),
                   (1.75, 2.0)]:
        m = builtin_model("neumann", [l1, l2])
        T0, _ = riccati_initial(riccati_terms(loop_profile(m)))
        assert T0 == pytest.approx(l2, rel=1e-14)
    for f0 in (0.0, 0.05, 0.18, 0.3, 0.45):
        m = builtin_model("pendula_identical", [f0])
        T0, Delta = riccati_initial(riccati_terms(loop_profile(m)))
        b = math.sqrt(1.0 - 2.0 * f0)
        assert T0 == pytest.approx((1.0 + b) / 2.0, rel=1e-14)
        assert Delta == pytest.approx(b * b, rel=1e-13)


@criterion(4, "constant-coupling pendula slope matches the algebraic curve "
              "to 1e-6 across the half-loop")
def test_acceptance_04():
    for b in (0.3, 0.6, 0.9):
        f0 = (1.0 - b * b) / 2.0
        m = builtin_model("pendula_identical", [f0])
        sol = solve_riccati(m, math.pi)
        xs = np.linspace(-1.0 + 1e-3, 0.0, 200)
        q1s = 2.0 * np.arccos(-xs)
        Tbar = 2.0 * sol(q1s) + xs
        expect = b - (1.0 - xs ** 2) / (b - xs)
        assert np.max(np.abs(Tbar - expect)) < 1e-6


@criterion(5, "uncoupled pendula give a vanishing slope and a tangent "
              "verdict")
def test_acceptance_05():
    m = builtin_model("pendula_identical", [0.0])
    sol = solve_riccati(m, math.pi)
    assert abs(sol(math.pi)) < 1e-8
    assert torus_transversality(m).verdict == "tangent"


@criterion(6, "cosine-coupling slope bracketed by constant-coupling curves; "
              "negative midpoint slope certifies transversality")
def test_acceptance_06():
    m = builtin_model("pendula_identical", [0.25, -0.125])
    sol = solve_riccati(m, math.pi)
    xs = np.linspace(-1.0 + 1e-6, 0.0, 400)
    q1s = 2.0 * np.arccos(-xs)
    Tbar = 2.0 * sol(q1s) + xs
    c, d = 0.5, math.sqrt(3.0) / 2.0
    Tc = c - (1.0 - xs ** 2) / (c - xs)
    Td = d - (1.0 - xs ** 2) / (d - xs)
    assert np.all(Tbar >= np.minimum(Tc, Td) - 1e-9)
    assert np.all(Tbar <= np.maximum(Tc, Td) + 1e-9)
    assert sol(math.pi) < 0
    assert torus_transversality(m).verdict == "transversal"


def random_admissible_sets():
    rng = np.random.default_rng(20240817)
    sets = []
    for _ in range(8):
        l1 = rng.uniform(0.5, 2.0)
        sets.append(("neumann", [l1, l1 * rng.uniform(1.1, 4.0)]))
    for _ in range(7):
        f0 = rng.uniform(0.05, 0.35)
        sets.append(("pendula_identical", [f0, rng.uniform(-0.4, 0.4) * f0]))
    for _ in range(5):
        sets.append(("pendula_weak", [rng.uniform(1.5, 3.5)]))
    return sets


@criterion(7, "Riccati solver agrees with the independent linear-equation "
              "route on built-ins and 20 random parameter sets")
def test_acceptance_07():
    cases = [("neumann", [1.0, 2.0]), ("pendula_identical", [0.18]),
             ("pendula_identical", [0.25, -0.125]), ("pendula_weak", [2.0])]
    cases += random_admissible_sets()
    assert len(cases) == 24
    for name, params in cases:
        m = builtin_model(name, params)
        target = 2.0 if name == "neumann" else math.pi
        sol = solve_riccati(m, target,
                            opts=SolverOptions(sensitivity_check=False))
        oracle = riccati_to_linear_oracle(m, target)
        assert sol(target) == pytest.approx(oracle, abs=1e-6), (name, params)


@criterion(8, "loop restriction residuals below 1e-8 on 200-point grids "
              "for all built-ins")
def test_acceptance_08():
    for name, params in [("neumann", [1.0, 2.0]), ("neumann", [0.7, 2.9]),
                         ("pendula_identical", [0.18]),
                         ("pendula_identical", [0.25, -0.125]),
                         ("pendula_weak", [1.0]), ("pendula_weak", [2.6])]:
        m = builtin_model(name, params)
        p = loop_profile(m)
        a, b = m.domain
        pad = 1e-6 * (b - a)
        for q1 in np.linspace(a + pad, b - pad, 200):
            assert abs(restriction_residual(p, q1)) < 1e-8


@criterion(9, "unstable quadratic form solves E B E = A, positive "
              "definite, residual below 1e-10")
def test_acceptance_09():
    for name, params in [("neumann", [1.0, 2.0]), ("neumann", [1.75, 2.0]),
                         ("pendula_identical", [0.18]),
                         ("pendula_identical", [0.25, -0.125]),
                         ("pendula_weak", [1.0]), ("pendula_weak", [3.0])]:
        lin = linearize(builtin_model(name, params))
        res = lin.Eu @ lin.Bmat @ lin.Eu - lin.A
        assert np.max(np.abs(res)) < 1e-10 * max(1.0, np.max(np.abs(lin.A)))
        assert check_positive_definite(lin.Eu)


@criterion(10, "direct stable-side solve matches the reversibility "
               "construction to 1e-8 at the matching point")
def test_acceptance_10():
    for name, params in [("pendula_identical", [0.18]),
                         ("pendula_identical", [0.25, -0.125]),
                         ("pendula_weak", [2.0])]:
        m = builtin_model(name, params)
        opts = SolverOptions(sensitivity_check=False)
        sol_u = solve_riccati(m, math.pi, opts=opts)
        sol_s = solve_riccati(m, math.pi, stable=True, opts=opts)
        _, Ts_hat = stable_from_reversibility(sol_u, m)
        assert sol_s(math.pi) == pytest.approx(Ts_hat(math.pi), abs=1e-8)


@criterion(11, "equal-frequency splitting potential matches its closed "
               "form; derivatives at the symmetric loop")
def test_acceptance_11():
    pert = builtin_model("pendula_weak", [1.0]).perturbation
    for s in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0):
        expect = -4.0 * math.tanh(s / 2.0) * (
            s / math.cosh(s / 2.0) ** 2 + 2.0 * math.tanh(s / 2.0))
        assert melnikov_potential(pert, s=s) == pytest.approx(expect,
                                                              abs=1e-6)
    d1, d2 = melnikov_derivatives(pert)
    assert abs(d1) < 1e-9
    assert d2 == pytest.approx(-8.0, abs=1e-5)


@criterion(12, "nondegeneracy threshold of the frequency ratio")
def test_acceptance_12():
    assert lambda0_threshold() == pytest.approx(3.68078, abs=1e-4)


@criterion(13, "nondegenerate maximum and perturbed-loop verdict across "
               "the admissible frequency band")
def test_acceptance_13():
    for lam in (1.0, 1.5, 2.0, 3.0, 3.6):
        pert = builtin_model("pendula_weak", [lam]).perturbation
        derivs = melnikov_derivatives(pert)
        assert derivs[1] < 0
        res = perturbed_loop_verdict("B", derivs=derivs)
        assert res.verdict == "perturbed_loop_transversal"


@criterion(14, "splitting potential is a first integral along each loop "
               "and even in the section parameter")
def test_acceptance_14():
    pert = builtin_model("pendula_weak", [1.5]).perturbation
    s = 0.7
    vals = []
    for tau in (-1.0, 0.0, 1.0):
        x = pert.loop_family(tau, s)
        vals.append(melnikov_potential(pert, q=(x[0], x[1])))
    assert max(vals) - min(vals) < 1e-8
    grid = np.array([0.4, 1.1, 2.3])
    Lp = np.array([melnikov_potential(pert, s=float(v)) for v in grid])
    Lm = np.array([melnikov_potential(pert, s=float(-v)) for v in grid])
    scale = max(1.0, float(np.max(np.abs(Lp))))
    assert np.max(np.abs(Lp - Lm)) < 1e-8 * scale


@criterion(15, "solution is insensitive to halving the startup offset and "
               "to perturbing the initial slope")
def test_acceptance_15():
    m = builtin_model("neumann", [1.0, 2.0])
    a = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=8e-4,
                                                 sensitivity_check=False))
    b = solve_riccati(m, 2.0, opts=SolverOptions(epsilon=4e-4,
                                                 sensitivity_check=False))
    assert abs(a(2.0) - b(2.0)) < 1e-8

    p = loop_profile(m)
    terms = riccati_terms(p)
    T0, _ = riccati_initial(terms)
    ref = solve_riccati(m, 2.0,
                        opts=SolverOptions(sensitivity_check=False))
    for bump in (1e-4, -1e-4):
        sol = _integrate(terms, ref.epsilon_start, 2.0, T0 + bump,
                         SolverOptions(sensitivity_check=False), False)
        assert abs(float(sol.sol(2.0)[0]) - ref(2.0)) < 1e-6
