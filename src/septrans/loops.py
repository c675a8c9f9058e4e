"""The known orbit on q2 = 0 encoded through its momentum profiles.

Along a zero-energy orbit contained in the loop line the momenta are
p1 = dS0(q1), p2 = S1(q1), where the structural restrictions fix

    dS0 = sqrt(-2 V0 / beta),    S1 = -(b120 / b220) dS0,
    dS1 * beta * dS0 + V1 = 0,

with beta = det B0 / b220.  The first two are built here by construction;
the third is a consistency condition between V1 and the rest of the model
and is recorded as a residual.  The induced inner dynamics on the loop is
q1' = beta(q1) * dS0(q1).

A profile is evaluated through one function, its point: point(q1) returns
the model's jet at q1 together with beta, dS0, S1 and dS1 there, from one
jet evaluation.  The profile's four functions read it.  Like the jet, it
takes a float or a 1-D ndarray q1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
# np.ndarray is a slow lookup (numpy's module __getattr__), and the float
# path tests its input against it per call
from numpy import ndarray

from .models import CoefficientJet, HamiltonianModel, loop_momenta


class LoopConstructionError(ValueError):
    """The model admits no orbit on q2 = 0 (or V1 is inconsistent with it)."""


def _no_loop(rad: float, q1: float) -> LoopConstructionError:
    return LoopConstructionError(
        "no loop on q2=0: -2*V0/beta = %g < 0 at q1=%g" % (rad, q1))


def _loop_point(jet: Callable[..., CoefficientJet], q1) -> tuple:
    c = jet(q1)
    beta, ds0, s1 = loop_momenta(c.b110, c.b120, c.b220, c.V0)
    if isinstance(q1, ndarray):
        # the first point without a loop, in the order of q1
        bad = np.flatnonzero(np.isnan(np.broadcast_to(ds0, q1.shape)))
        if bad.size:
            i = bad[0]
            raise _no_loop(np.broadcast_to(-2.0 * c.V0 / beta, q1.shape)[i],
                           q1[i])
    elif ds0 != ds0:
        raise _no_loop(-2.0 * c.V0 / beta, q1)
    return c, beta, ds0, s1, c.dS1


@dataclass(frozen=True)
class LoopProfile:
    """Momentum profiles of the loop on q2 = 0.

    jet is the jet of the model the profile was built from, and point(q1)
    the loop point there, the tuple (c, beta, dS0, S1, dS1) of the jet c at
    q1 and the profiles at q1, from one jet evaluation.  On an ndarray q1
    a point without a loop raises for the first such entry.
    """
    jet: Callable[[float], CoefficientJet] = field(repr=False, compare=False)
    interval: tuple[float, float]
    diagnostics: dict = field(default_factory=dict)
    point: Callable[[float], tuple] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "point", partial(_loop_point, self.jet))

    def beta(self, q1: float) -> float:
        return self.point(q1)[1]

    def dS0(self, q1: float) -> float:
        return self.point(q1)[2]

    def S1(self, q1: float) -> float:
        return self.point(q1)[3]

    def dS1(self, q1: float) -> float:
        return self.point(q1)[4]


def loop_profile(model: HamiltonianModel) -> LoopProfile:
    """Build the loop's momentum profiles from the model coefficients.

    Raises LoopConstructionError when the radicand -2 V0 / beta turns
    negative in the interior, or when the V1 consistency residual exceeds
    1e-6 on the 199 interior points of the check grid.
    """
    a, b = model.domain
    profile = LoopProfile(model.jet, (a, b))

    # consistency of V1 with the rest of the model, checked on the interior
    margin = 1e-3 * (b - a)
    q1 = a + margin + (b - a - 2 * margin) * np.arange(1, 200) / 200
    c, beta, ds0, _s1, ds1 = profile.point(q1)
    worst = float(np.max(np.abs(ds1 * beta * ds0 + c.V1)))
    # a nan residual fails too
    if not worst <= 1e-6:
        raise LoopConstructionError(
            "inconsistent V1: restriction residual %.3g > 1e-6" % worst)
    profile.diagnostics["restriction_residual_max"] = worst
    return profile


def restriction_residual(profile: LoopProfile, model: HamiltonianModel,
                         q1: float) -> float:
    """dS1*beta*dS0 + V1 at q1; near zero certifies consistency."""
    _c, beta, ds0, _s1, ds1 = profile.point(q1)
    return ds1 * beta * ds0 + model.V1(q1)

