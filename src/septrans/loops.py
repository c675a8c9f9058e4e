"""The known orbit on q2 = 0 encoded through its momentum profiles.

Along a zero-energy orbit contained in the loop line the momenta are
p1 = dS0(q1), p2 = S1(q1), where the structural restrictions fix

    dS0 = sqrt(-2 V0 / beta),    S1 = -(b120 / b220) dS0,
    dS1 * beta * dS0 + V1 = 0,

with beta = det B0 / b220.  The first two are built here by construction;
the third is a consistency condition between V1 and the rest of the model,
which the slope solve checks at every point it evaluates and
validate_hypotheses over the whole domain, both by
models.restriction_holds.  The induced inner dynamics on the loop is
q1' = beta(q1) * dS0(q1).

A model's loop is one function of a number q1, which loop_profile builds:
from one jet call it returns the terms of the slope equation there, the
loop restriction's two terms and the momenta dS0, S1 and dS1 (beta only
through q1dot), and every reader, the slope solve on each step included,
unpacks what it needs from that tuple.  It takes the momenta as
models.loop_momenta does, inline, and raises where no loop passes.
"""

from __future__ import annotations

import math
from typing import Callable

from .models import HamiltonianModel, HypothesesError
from .numerics import BlowUpError

Loop = Callable[[float], tuple]


def _no_loop(rad: float, q1: float) -> HypothesesError | BlowUpError:
    """The error of a point at q1 without a loop, the radicand rad of its
    dS0 negative or nan; a nan one is a coefficient that overflowed (such
    as lam**2 * 0), a numerical failure."""
    if rad != rad:
        return BlowUpError(q1, "coefficient overflow: -2*V0/beta = nan at "
                           "q1=%g" % q1)
    return HypothesesError(
        "no loop on q2=0: -2*V0/beta = %g < 0 at q1=%g" % (rad, q1))


def loop_profile(model: HamiltonianModel) -> Loop:
    """The model's loop: q1 -> (q1dot, alpha, delta, b220, dS1 q1dot, V1,
    dS0, S1, dS1) at a number q1, from one jet call.

    q1dot = beta dS0 is the inner dynamics on the loop, alpha = Y - b110
    dS1^2 - (b112 dS0^2 + 2 b122 dS0 S1 + b222 S1^2) / 2 and delta = b120
    dS1 are the slope equation's, and dS1 q1dot + V1 is the loop
    restriction's residual, zero on a consistent model.  A radicand of dS0
    within 1e-14 below 0 counts as 0; a point without a loop raises
    HypothesesError, and one whose coefficients overflowed BlowUpError."""
    jet = model.jet

    def loop(q1: float) -> tuple:
        b110, b120, b220, b112, b122, b222, v0, v1, y, ds1 = jet(q1)
        beta = (b110 * b220 - b120 * b120) / b220
        rad = -2.0 * v0 / beta
        if not rad >= 0.0:      # negative or nan
            if not rad > -1e-14:
                raise _no_loop(rad, q1)
            rad = 0.0
        ds0 = math.sqrt(rad)
        s1 = -(b120 / b220) * ds0
        q1dot = beta * ds0
        alpha = (y - b110 * ds1 * ds1
                 - 0.5 * (b112 * ds0 * ds0 + 2.0 * b122 * ds0 * s1
                          + b222 * s1 * s1))
        return (q1dot, alpha, b120 * ds1, b220, ds1 * q1dot, v1, ds0, s1,
                ds1)

    return loop
