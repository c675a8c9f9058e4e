import math
from dataclasses import replace

import numpy as np
import pytest

from septrans.loops import (LoopConstructionError, LoopProfile,
                            loop_profile, restriction_residual)
from septrans.models import HamiltonianModel, builtin_model
from septrans.riccati import riccati_terms


def test_identical_pendula_profiles():
    m = builtin_model("pendula_identical", [0.12])
    p = loop_profile(m)
    for q1 in np.linspace(0.0, 2 * math.pi, 40):
        assert p.dS0(q1) == pytest.approx(4.0 * math.sin(q1 / 2.0), abs=1e-12)
        assert p.S1(q1) == pytest.approx(2.0 * math.sin(q1 / 2.0), abs=1e-12)
        assert p.beta(q1) == pytest.approx(0.5, abs=1e-15)


def test_neumann_profiles():
    l1 = 1.4
    m = builtin_model("neumann", [l1, 2.0])
    p = loop_profile(m)
    for q1 in np.linspace(0.0, 8.0, 40):
        assert p.dS0(q1) == pytest.approx(
            16.0 * l1 * q1 / (4.0 + q1 * q1) ** 2, rel=1e-12, abs=1e-12)
        assert p.S1(q1) == 0.0


def test_profiles_vanish_at_equilibrium():
    for spec in (("neumann", [1.0, 2.0]), ("pendula_weak", [2.0])):
        m = builtin_model(*spec)
        p = loop_profile(m)
        assert p.dS0(0.0) == 0.0
        assert p.S1(0.0) == 0.0


def test_s1_relation_pointwise():
    m = builtin_model("pendula_weak", [2.3])
    p = loop_profile(m)
    for q1 in np.linspace(0.1, 2 * math.pi - 0.1, 50):
        expect = -(m.b120(q1) / m.b220(q1)) * p.dS0(q1)
        assert p.S1(q1) == pytest.approx(expect, rel=1e-9)


def test_energy_on_loop():
    for spec in (("neumann", [1.0, 2.0]), ("pendula_identical", [0.2]),
                 ("pendula_weak", [1.8])):
        m = builtin_model(*spec)
        p = loop_profile(m)
        a, b = m.domain
        for q1 in np.linspace(a, b, 60):
            e = 0.5 * p.beta(q1) * p.dS0(q1) ** 2 + m.V0(q1)
            assert abs(e) < 1e-10


def test_restriction_residual_identical_pendula():
    m = builtin_model("pendula_identical", [0.0])
    p = loop_profile(m)
    # dS1*beta*dS0 = cos(q1/2) * (1/2) * 4 sin(q1/2) = sin(q1) = -V1
    assert abs(restriction_residual(p, math.pi / 2)) < 1e-12


def test_restriction_residual_neumann_exact_zero():
    m = builtin_model("neumann", [1.0, 2.0])
    p = loop_profile(m)
    for q1 in (0.5, 2.0, 5.0):
        assert restriction_residual(p, q1) == 0.0


def test_corrupted_v1_detected():
    base = builtin_model("pendula_identical", [0.0])
    bad = replace(base, V1=lambda q1: -math.sin(q1) + 0.1)
    p = LoopProfile(bad.jet, bad.domain)
    assert restriction_residual(p, 1.0) == pytest.approx(0.1, abs=1e-10)
    with pytest.raises(LoopConstructionError) as exc:
        loop_profile(bad)
    assert str(exc.value) == "inconsistent V1: restriction residual 0.1 > 1e-6"


def positive_potential_model():
    one = lambda q1: 1.0
    zero = lambda q1: 0.0
    return HamiltonianModel(
        b110=one, b120=zero, b220=one, b112=zero, b122=zero, b222=zero,
        V0=lambda q1: q1 * q1 * (1.0 - q1), V1=zero, Y=one,
        domain=(0.0, 2.0))


def test_no_loop_for_positive_potential():
    # V0 > 0 on (0, 1): the check grid's first point already has no loop
    with pytest.raises(LoopConstructionError) as exc:
        loop_profile(positive_potential_model())
    assert str(exc.value) == ("no loop on q2=0: -2*V0/beta = -0.000283602 "
                              "< 0 at q1=0.01198")


def test_point_on_an_array_names_its_first_point_without_a_loop():
    m = positive_potential_model()
    p = LoopProfile(m.jet, m.domain)
    q1 = np.array([1.5, 0.5, 0.2, 1.2])
    with pytest.raises(LoopConstructionError) as exc:
        p.point(q1)
    # the message of the scalar call at q1 = 0.5, not at the smaller 0.2
    with pytest.raises(LoopConstructionError) as first:
        p.point(0.5)
    assert str(exc.value) == str(first.value)
    assert "at q1=0.5" in str(exc.value)


@pytest.mark.parametrize("name,params", [
    ("neumann", [1.3, 2.4]), ("pendula_identical", [0.25, -0.125]),
    ("pendula_weak", [2.0]), ("pendula_weak", [1.5])])
def test_point_on_an_array_is_the_points_at_each_entry(name, params):
    m = builtin_model(name, params)
    p = loop_profile(m)
    q1 = np.linspace(0.01, m.domain[1] - 0.01, 37)
    c, *profiles = p.point(q1)
    pointwise = [p.point(q) for q in q1.tolist()]
    # numpy's transcendental functions may differ from math's by ulps:
    # within 1e-14 of each profile's size
    for got, want in zip(profiles, zip(*[pt[1:] for pt in pointwise])):
        scale = np.max(np.abs(want))
        assert np.allclose(np.broadcast_to(got, q1.shape), want,
                           rtol=1e-14, atol=1e-14 * scale)


def test_inner_time_neumann_exponential():
    # the inner dynamics is q1' = lambda1 * q1
    terms = riccati_terms(loop_profile(builtin_model("neumann", [1.0, 2.0])))
    for q1 in np.linspace(0.0, 8.0, 41):
        assert terms(q1)[0] == pytest.approx(q1, rel=1e-12, abs=1e-15)


def test_inner_time_pendula_closed_form():
    # q1' = 2 sin(q1/2), whose orbit through pi is 4 arctan(e^t)
    m = builtin_model("pendula_identical", [0.0])
    terms = riccati_terms(loop_profile(m))
    for q1 in np.linspace(0.0, 2 * math.pi, 41):
        assert terms(q1)[0] == pytest.approx(2.0 * math.sin(q1 / 2.0),
                                             abs=1e-12)


def test_loop_reparameterization_matches_momentum():
    # dS0 along the inner orbit q1 = 4 arctan(e^t) is the explicit loop's p1
    m = builtin_model("pendula_identical", [0.0])
    p = loop_profile(m)
    for t in (-2.0, -0.5, 0.7, 1.5):
        q1 = 4.0 * math.atan(math.exp(t))
        p1_expected = 4.0 * math.sin(2.0 * math.atan(math.exp(t)))  # 2/cosh(t)*2
        assert p.dS0(q1) == pytest.approx(p1_expected, abs=1e-8)


def loop_action(profile):
    """The loop action sigma, the integral of p1 = dS0 over one period, by
    40-point Gauss-Legendre quadrature on [0, 2pi]."""
    x, w = np.polynomial.legendre.leggauss(40)
    return math.pi * sum(wi * profile.dS0(math.pi * (xi + 1.0))
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
        assert ps.dS0(q1) == pytest.approx(2.5 * p.dS0(q1), rel=1e-12,
                                           abs=1e-15)
    assert loop_action(ps) == pytest.approx(40.0, abs=1e-9)
