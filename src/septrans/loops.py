"""The known orbit on q2 = 0 encoded through its momentum profiles.

Along a zero-energy orbit contained in the loop line the momenta are
p1 = dS0(q1), p2 = S1(q1), where the structural restrictions fix

    dS0 = sqrt(-2 V0 / beta),    S1 = -(b120 / b220) dS0,
    dS1 * beta * dS0 + V1 = 0,

with beta = det B0 / b220.  The first two are built here by construction;
the third is a consistency condition between V1 and the rest of the model
and is recorded as a residual.  The induced inner dynamics on the loop is
q1' = beta(q1) * dS0(q1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from scipy.integrate import quad, solve_ivp

from .models import HamiltonianModel
from .numerics import central_diff


class LoopConstructionError(ValueError):
    """The model admits no orbit on q2 = 0 (or V1 is inconsistent with it)."""


class UnsupportedOperationError(RuntimeError):
    pass


class InnerTimeResult(NamedTuple):
    q1: float
    clipped: bool


@dataclass(frozen=True)
class LoopProfile:
    dS0: Callable[[float], float]
    S1: Callable[[float], float]
    dS1: Callable[[float], float]
    beta: Callable[[float], float]
    interval: tuple[float, float]
    periodic: bool = False
    diagnostics: dict = field(default_factory=dict)

    def dS0_extended(self, q1: float) -> float:
        """2pi-antiperiodic extension of dS0 (periodic models only)."""
        return _antiperiodic(self.dS0, self.interval, q1)

    def S1_extended(self, q1: float) -> float:
        return _antiperiodic(self.S1, self.interval, q1)


def _antiperiodic(fn, interval, q1):
    two_pi = 2.0 * math.pi
    n = math.floor(q1 / two_pi)
    r = q1 - n * two_pi
    return fn(r) * (1.0 if n % 2 == 0 else -1.0)


def loop_profile(model: HamiltonianModel, n_check: int = 200) -> LoopProfile:
    """Build the loop's momentum profiles from the model coefficients.

    Raises LoopConstructionError when the radicand -2 V0 / beta turns
    negative in the interior, or when the V1 consistency residual exceeds
    1e-6 on the check grid.
    """
    a, b = model.domain
    beta = model.beta

    def dS0(q1: float) -> float:
        rad = -2.0 * model.V0(q1) / beta(q1)
        if rad < 0.0:
            if rad > -1e-14:
                return 0.0
            raise LoopConstructionError(
                "no loop on q2=0: -2*V0/beta = %g < 0 at q1=%g" % (rad, q1))
        return math.sqrt(rad)

    def S1(q1: float) -> float:
        return -(model.b120(q1) / model.b220(q1)) * dS0(q1)

    dS1_analytic = model.derivatives.get("S1")
    if dS1_analytic is not None:
        dS1 = dS1_analytic
    else:
        def dS1(q1: float) -> float:
            return central_diff(S1, q1)

    # consistency of V1 with the rest of the model, checked on the interior
    worst = 0.0
    margin = 1e-3 * (b - a)
    for i in range(1, n_check):
        q1 = a + margin + (b - a - 2 * margin) * i / n_check
        r = dS1(q1) * beta(q1) * dS0(q1) + model.V1(q1)
        worst = max(worst, abs(r))
    if worst > 1e-6:
        raise LoopConstructionError(
            "inconsistent V1: restriction residual %.3g > 1e-6" % worst)

    return LoopProfile(dS0=dS0, S1=S1, dS1=dS1, beta=beta, interval=(a, b),
                       periodic=model.periodic,
                       diagnostics={"restriction_residual_max": worst})


def restriction_residual(profile: LoopProfile, model: HamiltonianModel,
                         q1: float) -> float:
    """dS1*beta*dS0 + V1 at q1; near zero certifies consistency."""
    return (profile.dS1(q1) * profile.beta(q1) * profile.dS0(q1)
            + model.V1(q1))


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

    margin = 1e-12 * (b - a)

    def rhs(_t, y):
        return [profile.beta(y[0]) * profile.dS0(y[0])]

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
    return quad(profile.dS0, 0.0, 2.0 * math.pi, epsabs=1e-12, epsrel=1e-12,
                limit=200)[0]
