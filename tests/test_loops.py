import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from septrans.loops import loop_profile
from septrans.models import (HamiltonianModel, HypothesesError,
                             builtin_model, validate_hypotheses)
import septrans.riccati as riccati
from septrans.riccati import solve_riccati


def residual(loop, q1):
    """The loop restriction's residual dS1 q1dot + V1 at q1."""
    _q1dot, _alpha, _delta, _b220, ds1_q1dot, v1, _ds0, _s1, _ds1 = loop(q1)
    return ds1_q1dot + v1


def test_identical_pendula_profiles():
    m = builtin_model("pendula_identical", [0.12])
    p = loop_profile(m)
    for q1 in np.linspace(0.0, 2 * math.pi, 40):
        q1dot = p(q1)[0]
        ds0, s1, _ds1 = p(q1)[6:]
        assert ds0 == pytest.approx(4.0 * math.sin(q1 / 2.0), abs=1e-12)
        assert s1 == pytest.approx(2.0 * math.sin(q1 / 2.0), abs=1e-12)
        # beta = 1/2
        assert q1dot == pytest.approx(0.5 * ds0, rel=1e-15, abs=1e-15)


def test_neumann_profiles():
    l1 = 1.4
    m = builtin_model("neumann", [l1, 2.0])
    p = loop_profile(m)
    for q1 in np.linspace(0.0, 8.0, 40):
        ds0, s1, _ds1 = p(q1)[6:]
        assert ds0 == pytest.approx(
            16.0 * l1 * q1 / (4.0 + q1 * q1) ** 2, rel=1e-12, abs=1e-12)
        assert s1 == 0.0


def test_profiles_vanish_at_equilibrium():
    for spec in (("neumann", [1.0, 2.0]), ("pendula_weak", [2.0])):
        m = builtin_model(*spec)
        p = loop_profile(m)
        ds0, s1, _ds1 = p(0.0)[6:]
        assert ds0 == 0.0
        assert s1 == 0.0


def test_s1_relation_pointwise():
    m = builtin_model("pendula_weak", [2.3])
    p = loop_profile(m)
    for q1 in np.linspace(0.1, 2 * math.pi - 0.1, 50):
        ds0, s1, _ds1 = p(q1)[6:]
        expect = -(m.b120(q1) / m.b220(q1)) * ds0
        assert s1 == pytest.approx(expect, rel=1e-9)


def test_energy_on_loop():
    for spec in (("neumann", [1.0, 2.0]), ("pendula_identical", [0.2]),
                 ("pendula_weak", [1.8])):
        m = builtin_model(*spec)
        p = loop_profile(m)
        a, b = m.domain
        for q1 in np.linspace(a, b, 60):
            # beta dS0^2 = q1dot dS0
            q1dot, ds0 = p(q1)[0], p(q1)[6]
            e = 0.5 * q1dot * ds0 + m.V0(q1)
            assert abs(e) < 1e-10


def test_restriction_residual_identical_pendula():
    m = builtin_model("pendula_identical", [0.0])
    p = loop_profile(m)
    # dS1*beta*dS0 = cos(q1/2) * (1/2) * 4 sin(q1/2) = sin(q1) = -V1
    assert abs(residual(p, math.pi / 2)) < 1e-12


def test_restriction_residual_neumann_exact_zero():
    m = builtin_model("neumann", [1.0, 2.0])
    p = loop_profile(m)
    for q1 in (0.5, 2.0, 5.0):
        assert residual(p, q1) == 0.0


def test_corrupted_v1_detected():
    base = builtin_model("pendula_identical", [0.0])
    bad = replace(base, V1=lambda q1: -math.sin(q1) + 0.1)
    p = loop_profile(bad)
    assert residual(p, 1.0) == pytest.approx(0.1, abs=1e-10)
    # the solve checks the restriction at every point it evaluates, and
    # stops at its first, the start offset 1e-4 * 2pi
    with pytest.raises(HypothesesError) as exc:
        solve_riccati(bad, math.pi)
    assert str(exc.value) == ("inconsistent V1: restriction residual 0.1 > "
                              "1e-6 at q1=0.000628319")


def test_restriction_check_is_relative_to_its_terms(monkeypatch):
    # pendula_weak at lam 1e5 near pi: the residual dS1 q1dot + V1 sums two
    # terms of size about lam^2, whose rounding leaves more than 1e-6;
    # against 1e-6 max(1, |dS1 q1dot| + |V1|) it is roundoff.  The solve's
    # rhs is evaluated on that interval alone, not the stiff solve
    m = builtin_model("pendula_weak", [1e5])
    q1s = np.linspace(3.1410, 3.1421, 1101).tolist()

    def evaluate(fun, _span, y0, *args, **kwargs):
        for q1 in q1s:
            fun(q1, y0)
        return SimpleNamespace(event=None, success=True)

    monkeypatch.setattr(riccati, "solve_ivp", evaluate)
    _sol, worst = riccati._integrate(loop_profile(m), 1e-4, math.pi, 0.0,
                                     1e-9, False)
    assert worst > 1e-6


def test_validate_judges_the_restriction_against_its_terms():
    # pendula_identical with V0 and V1 scaled by k^2 and S1' by k: a loop
    # whose restriction terms, and their rounding, are 1e12 times larger.
    # The absolute residual on validate's grid passes 1e-6; against the
    # size of its terms it is roundoff
    m = builtin_model("pendula_identical", [0.2])
    k = 1e6

    def jet(q1):
        c = list(m.jet(q1))
        c[6], c[7], c[9] = c[6] * k * k, c[7] * k * k, c[9] * k
        return tuple(c)

    big = HamiltonianModel.from_jet(jet, None, domain=m.domain, periodic=True)
    entry = validate_hypotheses(big).entries[-1]
    assert entry.name == "loop_restriction_residual"
    assert entry.worst > 1e-6 and entry.passed


@pytest.mark.parametrize("c, holds", [(0.9e-6, True), (1.1e-6, False)])
def test_restriction_rule_is_one_for_validate_and_the_solve(c, holds):
    # neumann's restriction terms are 0; V1 = c sin^2(pi q1 / 2) makes a
    # residual of size c, whose terms are below 1, so both judge it against
    # 1e-6 alone.  It peaks at q1 = 1, inside the solve's (0, 2] and on
    # validate's grid
    base = builtin_model("neumann", [1.0, 2.0])

    def jet(q1):
        c_ = base.jet(q1)
        return c_[:7] + (c * math.sin(math.pi * q1 / 2.0) ** 2,) + c_[8:]

    m = HamiltonianModel.from_jet(jet, base.saddle, domain=base.domain,
                                  reversibility=base.reversibility,
                                  matching=base.matching)
    entry = validate_hypotheses(m).entries[-1]
    assert entry.name == "loop_restriction_residual"
    assert entry.passed is holds
    if holds:
        sol = solve_riccati(m, 2.0)
        assert 0.8e-6 < sol.diagnostics["restriction_residual_max"] <= c
    else:
        # the first point the solve evaluates past 1e-6, on the way up
        with pytest.raises(HypothesesError, match=r"^inconsistent V1: "
                           r"restriction residual \S+ > 1e-6 at q1="):
            solve_riccati(m, 2.0)


def positive_potential_model():
    one = lambda q1: 1.0
    zero = lambda q1: 0.0
    return HamiltonianModel(
        b110=one, b120=zero, b220=one, b112=zero, b122=zero, b222=zero,
        V0=lambda q1: q1 * q1 * (1.0 - q1), V1=zero, Y=one,
        domain=(0.0, 2.0))


def test_no_loop_for_positive_potential():
    # V0 > 0 on (0, 1): the solve's first point, its start offset 1e-4 * 2,
    # already has no loop
    with pytest.raises(HypothesesError) as exc:
        solve_riccati(positive_potential_model(), 1.5)
    assert str(exc.value) == ("no loop on q2=0: -2*V0/beta = -7.9984e-08 "
                              "< 0 at q1=0.0002")
    # and validate's residual over the whole domain is nan, which fails
    entry = validate_hypotheses(positive_potential_model()).entries[-1]
    assert entry.name == "loop_restriction_residual"
    assert not entry.passed and math.isnan(entry.worst)


def test_point_on_an_array_names_its_first_point_without_a_loop():
    m = positive_potential_model()
    p = loop_profile(m)
    q1 = np.array([1.5, 0.5, 0.2, 1.2])
    with pytest.raises(HypothesesError) as exc:
        for q in q1:
            p(q)
    # the message of the scalar call at q1 = 0.5, not at the smaller 0.2
    with pytest.raises(HypothesesError) as first:
        p(0.5)
    assert str(exc.value) == str(first.value)
    assert "at q1=0.5" in str(exc.value)


@pytest.mark.parametrize("name,params", [
    ("neumann", [1.3, 2.4]), ("pendula_identical", [0.25, -0.125]),
    ("pendula_weak", [2.0]), ("pendula_weak", [1.5])])
def test_point_on_an_array_is_the_points_at_each_entry(name, params):
    m = builtin_model(name, params)
    p = loop_profile(m)
    q1 = np.linspace(0.01, m.domain[1] - 0.01, 37)
    # the points at the array's entries, numpy floats, against those at
    # Python floats, within 1e-14 of each profile's size
    profiles = list(zip(*[p(q) for q in q1]))
    pointwise = [p(q) for q in q1.tolist()]
    for got, want in zip(profiles, zip(*pointwise)):
        scale = np.max(np.abs(want))
        assert np.allclose(np.broadcast_to(got, q1.shape), want,
                           rtol=1e-14, atol=1e-14 * scale)


def test_inner_time_neumann_exponential():
    # the inner dynamics is q1' = lambda1 * q1
    loop = loop_profile(builtin_model("neumann", [1.0, 2.0]))
    for q1 in np.linspace(0.0, 8.0, 41):
        assert loop(q1)[0] == pytest.approx(q1, rel=1e-12, abs=1e-15)


def test_inner_time_pendula_closed_form():
    # q1' = 2 sin(q1/2), whose orbit through pi is 4 arctan(e^t)
    m = builtin_model("pendula_identical", [0.0])
    loop = loop_profile(m)
    for q1 in np.linspace(0.0, 2 * math.pi, 41):
        assert loop(q1)[0] == pytest.approx(2.0 * math.sin(q1 / 2.0),
                                             abs=1e-12)


def test_loop_reparameterization_matches_momentum():
    # dS0 along the inner orbit q1 = 4 arctan(e^t) is the explicit loop's p1
    m = builtin_model("pendula_identical", [0.0])
    p = loop_profile(m)
    for t in (-2.0, -0.5, 0.7, 1.5):
        q1 = 4.0 * math.atan(math.exp(t))
        p1_expected = 4.0 * math.sin(2.0 * math.atan(math.exp(t)))  # 2/cosh(t)*2
        assert p(q1)[6] == pytest.approx(p1_expected, abs=1e-8)


def loop_action(loop):
    """The loop action sigma, the integral of p1 = dS0 over one period, by
    40-point Gauss-Legendre quadrature on [0, 2pi]."""
    x, w = np.polynomial.legendre.leggauss(40)
    return math.pi * sum(wi * loop(math.pi * (xi + 1.0))[6]
                         for xi, wi in zip(x, w))


def test_sigma_identical_pendula():
    m = builtin_model("pendula_identical", [0.3])
    assert loop_action(loop_profile(m)) == pytest.approx(16.0, abs=1e-10)


def test_sigma_weak_lam1():
    m = builtin_model("pendula_weak", [1.0])
    assert loop_action(loop_profile(m)) == pytest.approx(16.0, abs=1e-9)


def test_sigma_scales_linearly():
    # V scaled by 2.5^2 scales dS0 = sqrt(-2 V0 / beta), and so the loop
    # action, by 2.5
    m = builtin_model("pendula_identical", [0.0])
    scaled = replace(m, V0=lambda q1: 6.25 * m.V0(q1),
                     V1=lambda q1: 6.25 * m.V1(q1))
    p, ps = loop_profile(m), loop_profile(scaled)
    for q1 in np.linspace(0.0, 2 * math.pi, 41):
        assert ps(q1)[6] == pytest.approx(2.5 * p(q1)[6],
                                          rel=1e-12, abs=1e-15)
    assert loop_action(ps) == pytest.approx(40.0, abs=1e-9)
