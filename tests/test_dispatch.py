"""A number q1 takes a function's float path and an array takes its array
path, by a test that needs no numpy: an int, a float and a numpy float64
give identical floats, and a list or an ndarray gives the float calls
element by element.  riccati_terms is held to it too, since its float path
unpacks the jet itself while its array path goes through the profile's
point."""

import math

import numpy as np
import pytest

from septrans.loops import loop_profile
from septrans.models import CoefficientJet, builtin_model, loop_momenta
from septrans.riccati import riccati_terms, solve_riccati

BUILTINS = [("neumann", [1.3, 2.4]), ("pendula_identical", [0.25, -0.125]),
            ("pendula_weak", [2.5]), ("pendula_weak", [1.5])]


def numbers(q):
    """q as an int, a float and a numpy float64."""
    assert q == int(q)
    return int(q), float(q), np.float64(q)


def assert_identical_floats(results):
    """Every result equals the first, entry by entry, and none is an
    array."""
    first = results[0]
    for got in results:
        assert not any(isinstance(x, np.ndarray) for x in got)
        assert list(got) == list(first)


@pytest.mark.parametrize("name,params", BUILTINS)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_numbers_take_the_float_path(name, params, q):
    m = builtin_model(name, params)
    jets = [m.jet(x) for x in numbers(q)]
    assert_identical_floats(jets)
    named = [CoefficientJet(*c) for c in jets]
    assert_identical_floats([loop_momenta(c.b110, c.b120, c.b220, c.V0)
                             for c in named])
    points = [loop_profile(m).point(x) for x in numbers(q)]
    assert_identical_floats([pt[1:] for pt in points])
    assert_identical_floats([pt[0] for pt in points])
    # the slope equation's terms unpack the jet themselves on a number
    terms = riccati_terms(loop_profile(m))
    assert_identical_floats([terms(x) for x in numbers(q)])
    sol = solve_riccati(m, m.domain[1] if name == "neumann" else math.pi)
    assert_identical_floats([[sol._dense(x)] for x in numbers(q)])
    slopes = [sol(x) for x in numbers(q)]
    assert all(type(T) is float for T in slopes)
    assert slopes[0] == slopes[1] == slopes[2]


@pytest.mark.parametrize("name,params", BUILTINS)
def test_arrays_take_the_array_path(name, params):
    m = builtin_model(name, params)
    q1 = [0.3, 1.0, 2.0, 2.9]
    profile = loop_profile(m)
    terms = riccati_terms(profile)
    sol = solve_riccati(m, math.pi)
    for arg in (q1, np.array(q1)):
        c, *profiles = profile.point(arg)
        pointwise = [profile.point(q) for q in q1]
        # numpy's transcendental functions may differ from math's by ulps
        for got, want in zip(profiles, zip(*[pt[1:] for pt in pointwise])):
            assert np.allclose(np.broadcast_to(got, (len(q1),)), want,
                               rtol=1e-14, atol=1e-15)
        # the terms on an array go through the profile's point, on a
        # number through the jet alone
        got, want = terms(arg), zip(*[terms(q) for q in q1])
        for g, w in zip(got, want):
            assert np.allclose(np.broadcast_to(g, (len(q1),)), w,
                               rtol=1e-14, atol=1e-15)
        dense = sol._dense(arg)
        assert isinstance(dense, np.ndarray) and dense.shape == (len(q1),)
        assert dense.tolist() == [sol._dense(q) for q in q1]
        slopes = sol(arg)
        assert isinstance(slopes, np.ndarray)
        assert slopes.tolist() == [sol(q) for q in q1]
    # a jet takes an ndarray, and loop_momenta arrays of coefficients
    c = CoefficientJet(*m.jet(np.array(q1)))
    beta, ds0, s1 = loop_momenta(c.b110, c.b120, c.b220, c.V0)
    assert np.allclose(np.broadcast_to(ds0, (len(q1),)),
                       [profile.point(q)[2] for q in q1], rtol=1e-14,
                       atol=1e-15)
