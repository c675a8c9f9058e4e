"""The known orbit on q2 = 0 encoded through its momentum profiles.

Along a zero-energy orbit contained in the loop line the momenta are
p1 = dS0(q1), p2 = S1(q1), where the structural restrictions fix

    dS0 = sqrt(-2 V0 / beta),    S1 = -(b120 / b220) dS0,
    dS1 * beta * dS0 + V1 = 0,

with beta = det B0 / b220.  The first two are built here by construction;
the third is a consistency condition between V1 and the rest of the model,
whose residual the slope solve checks at every point it evaluates and
validate_hypotheses over the whole domain, each to 1e-6 of the size of
its two terms.  The induced inner dynamics on the loop is
q1' = beta(q1) * dS0(q1).

A model's jet returns a plain tuple of floats in CoefficientJet's field
order.  A profile is its jet and its interval, evaluated through one
method, its point: point(q1) returns that jet at a number q1, named as a
CoefficientJet, together with beta, dS0, S1 and dS1 there, from one jet
evaluation, and every reader takes the entries it needs from that tuple.
The slope solve does not go through it: riccati_terms unpacks the jet's
tuple itself, one jet call per step, and raises the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .models import (CoefficientJet, HamiltonianModel, HypothesesError,
                     loop_momenta)
from .numerics import BlowUpError


def _no_loop(rad: float, q1: float) -> HypothesesError | BlowUpError:
    """The error of a point at q1 without a loop, the radicand rad of its
    dS0 negative or nan; a nan one is a coefficient that overflowed (such
    as lam**2 * 0), a numerical failure."""
    if rad != rad:
        return BlowUpError(q1, "coefficient overflow: -2*V0/beta = nan at "
                           "q1=%g" % q1)
    return HypothesesError(
        "no loop on q2=0: -2*V0/beta = %g < 0 at q1=%g" % (rad, q1))


@dataclass(frozen=True)
class LoopProfile:
    """Momentum profiles of the loop on q2 = 0.

    jet is the jet of the model the profile was built from, and point(q1)
    the loop point there, the tuple (c, beta, dS0, S1, dS1) of the jet c at
    q1, as a CoefficientJet, and the profiles at q1, from one jet
    evaluation.
    """
    jet: Callable[[float], tuple] = field(repr=False, compare=False)
    interval: tuple[float, float]

    def point(self, q1: float) -> tuple:
        c = CoefficientJet(*self.jet(q1))
        beta, ds0, s1 = loop_momenta(c.b110, c.b120, c.b220, c.V0)
        if ds0 != ds0:
            raise _no_loop(-2.0 * c.V0 / beta, q1)
        return c, beta, ds0, s1, c.dS1


def loop_profile(model: HamiltonianModel) -> LoopProfile:
    """The loop's momentum profiles, built from the model's jet on its
    domain.  A point without a loop raises HypothesesError when it is
    evaluated, and one whose coefficients overflowed BlowUpError."""
    return LoopProfile(model.jet, model.domain)
