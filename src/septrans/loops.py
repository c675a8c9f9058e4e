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
jet evaluation.  The profile's four functions read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .models import CoefficientJet, HamiltonianModel, loop_momenta


class LoopConstructionError(ValueError):
    """The model admits no orbit on q2 = 0 (or V1 is inconsistent with it)."""


class UnsupportedOperationError(RuntimeError):
    pass


class InnerTimeResult(NamedTuple):
    q1: float
    clipped: bool


def _loop_point(jet: Callable[[float], CoefficientJet], q1: float) -> tuple:
    c = jet(q1)
    beta, ds0, s1 = loop_momenta(c.b110, c.b120, c.b220, c.V0)
    if ds0 != ds0:
        raise LoopConstructionError(
            "no loop on q2=0: -2*V0/beta = %g < 0 at q1=%g"
            % (-2.0 * c.V0 / beta, q1))
    return c, beta, ds0, s1, c.dS1


@dataclass(frozen=True)
class LoopProfile:
    """Momentum profiles of the loop on q2 = 0.

    jet is the jet of the model the profile was built from, and point(q1)
    the loop point there, the tuple (c, beta, dS0, S1, dS1) of the jet c at
    q1 and the profiles at q1, from one jet evaluation.
    """
    jet: Callable[[float], CoefficientJet] = field(repr=False, compare=False)
    interval: tuple[float, float]
    periodic: bool = False
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


def loop_profile(model: HamiltonianModel, n_check: int = 200) -> LoopProfile:
    """Build the loop's momentum profiles from the model coefficients.

    Raises LoopConstructionError when the radicand -2 V0 / beta turns
    negative in the interior, or when the V1 consistency residual exceeds
    1e-6 on the check grid.
    """
    a, b = model.domain
    profile = LoopProfile(model.jet, (a, b), periodic=model.periodic)

    # consistency of V1 with the rest of the model, checked on the interior
    worst = 0.0
    margin = 1e-3 * (b - a)
    for i in range(1, n_check):
        q1 = a + margin + (b - a - 2 * margin) * i / n_check
        c, beta, ds0, _s1, ds1 = profile.point(q1)
        r = ds1 * beta * ds0 + c.V1
        worst = max(worst, abs(r))
    if worst > 1e-6:
        raise LoopConstructionError(
            "inconsistent V1: restriction residual %.3g > 1e-6" % worst)
    profile.diagnostics["restriction_residual_max"] = worst
    return profile


def restriction_residual(profile: LoopProfile, model: HamiltonianModel,
                         q1: float) -> float:
    """dS1*beta*dS0 + V1 at q1; near zero certifies consistency."""
    _c, beta, ds0, _s1, ds1 = profile.point(q1)
    return ds1 * beta * ds0 + model.V1(q1)


def inner_time_param(profile: LoopProfile, q1_start: float,
                     t: float) -> InnerTimeResult:
    """Advance the inner dynamics q1' = beta*dS0 from q1_start by time t.

    The motion is clipped (with a flag) if it would leave the validity
    interval, which only happens in finite time moving backward toward the
    equilibrium at the left endpoint or past the right endpoint.
    """
    a, b = profile.interval
    if not (a < q1_start < b):
        raise ValueError("q1_start must lie in the open interior")
    if t == 0.0:
        return InnerTimeResult(q1_start, False)

    from scipy.integrate import solve_ivp

    margin = 1e-12 * (b - a)

    def rhs(_t, y):
        _c, beta, ds0, _s1, _ds1 = profile.point(y[0])
        return [beta * ds0]

    def hit_edge(_t, y):
        return min(y[0] - a - margin, b - margin - y[0])

    hit_edge.terminal = True
    sol = solve_ivp(rhs, (0.0, t), [q1_start], method="RK45",
                    rtol=1e-11, atol=1e-13, events=hit_edge)
    clipped = bool(sol.t_events[0].size > 0)
    q1 = float(sol.y[0, -1])
    return InnerTimeResult(min(max(q1, a), b), clipped)


def loop_action_sigma(profile: LoopProfile) -> float:
    """Loop action = integral of p1 over one period (periodic case only)."""
    if not profile.periodic:
        raise UnsupportedOperationError(
            "loop action is defined for periodic models only")
    from scipy.integrate import quad
    return quad(profile.dS0, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12,
                limit=200)[0]
