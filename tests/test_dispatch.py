"""Every function of q1 takes a number: an int, a float and a numpy
float64 give identical floats, and none gives an array.  The loop is held
to it too, since it unpacks the jet and takes the loop momenta itself."""

import math

import numpy as np
import pytest

from septrans.loops import _no_loop, loop_profile
from septrans.models import (CoefficientJet, HamiltonianModel,
                             builtin_model, loop_momenta)
from septrans.riccati import solve_riccati

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
    # the loop unpacks the jet itself on a number
    loop = loop_profile(m)
    assert_identical_floats([loop(x) for x in numbers(q)])
    sol = solve_riccati(m, m.domain[1] if name == "neumann" else math.pi)
    assert_identical_floats([[sol._dense(x)] for x in numbers(q)])
    slopes = [sol(x) for x in numbers(q)]
    assert all(type(T) is float for T in slopes)
    assert slopes[0] == slopes[1] == slopes[2]


# pendula_identical's beta is 1/2, so the radicand -2 V0 / beta is -4 V0:
# below 0 by less than 1e-14, by more, and nan
@pytest.mark.parametrize("v0", [-0.5, 0.0, 5e-16, 2.4e-15, 2.6e-15,
                                math.nan])
def test_terms_take_the_loop_momenta_of_the_point(v0):
    # the loop takes the loop momenta inline, as loop_momenta does: its
    # dS0, S1 and q1dot = beta dS0 bit for bit, its clamp of a radicand within
    # 1e-14 below 0, and where loop_momenta gives nan, the error of a
    # point without a loop
    base = builtin_model("pendula_identical", [0.2])

    def jet(q1):
        c = base.jet(q1)
        return c[:6] + (v0,) + c[7:]

    loop = loop_profile(HamiltonianModel.from_jet(
        jet, base.saddle, domain=base.domain, periodic=base.periodic,
        reversibility=base.reversibility, matching=base.matching))
    c = CoefficientJet(*jet(1.0))
    beta, ds0, s1 = loop_momenta(c.b110, c.b120, c.b220, c.V0)
    if math.isnan(ds0):
        exc = _no_loop(-2.0 * c.V0 / beta, 1.0)
        with pytest.raises(type(exc)) as got:
            loop(1.0)
        assert str(got.value) == str(exc)
    else:
        got = loop(1.0)
        assert got[6:8] == (ds0, s1)
        assert got[0] == beta * ds0
