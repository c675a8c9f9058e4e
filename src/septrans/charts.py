"""Stable-side slope in the unstable chart, and the transversality verdict.

The stable manifold is naturally described in its own chart.  Its
generating function there follows from the unstable one by the
reversibility symmetry (q, p) -> (Rq, -Rp), and its second-order jet is
carried to the unstable chart through a configuration chart transition chi
with the full second-order chain rule.  The verdict then compares the two
slopes at the matching point q1*.  On the torus the transition is the 2pi
deck shift, so the same construction covers both built-in geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

# Jet2 and the transitions live in models; charts re-exports them
from .models import (ChartTransition, HamiltonianModel, HypothesesError,
                     Jet2, inversion_transition, torus_shift_transition)
from .numerics import central_diff
from .riccati import MIN_RTOL, RiccatiSolution, SolverOptions, solve_riccati


class StableJet(NamedTuple):
    """Second-order jet of the stable generating function in its own chart,
    at one point of the loop line: first and second derivatives of the
    order-0 profile, the order-1 profile and its derivative, and the
    transverse slope.
    """
    dS0: float
    ddS0: float
    S1: float
    dS1: float
    T: float


@dataclass(frozen=True)
class TransversalityReport:
    q1_star: float
    Tu: float
    Ts_hat: float
    gap: float
    tol: float
    tol_tangent: float
    verdict: str                # transversal | tangent | inconclusive
    rtol: float = 0.0           # rtol of the deciding solve, 0 if exact


def jet_transport_stable(jet: StableJet, j: Jet2) -> float:
    """Transverse slope of the transported generating function at q1, from
    the stable jet at chi0(q1) and the transition's jet j at q1.

    Computes d^2(S~ o chi)/dq2^2 at (q1, 0) by the second-order chain rule;
    the composed order-1 terms use that chi maps the loop line to the loop
    line, so d(chi_2)/dq1 terms drop out.
    """
    # gradient terms: dS~/dq~1 = dS0, dS~/dq~2 = S1 on the loop line
    val = jet.dS0 * j.d2chi1_dq22 + jet.S1 * j.d2chi2_dq22
    # Hessian terms of S~ at (q~1, 0): [[ddS0, dS1], [dS1, T]]
    val += jet.ddS0 * j.dchi1_dq2 ** 2
    val += 2.0 * jet.dS1 * j.dchi1_dq2 * j.dchi2_dq2
    val += jet.T * j.dchi2_dq2 ** 2
    return val


def stable_from_reversibility(Tu_solution: RiccatiSolution,
                              model: HamiltonianModel):
    """Stable-side slope functions induced by the declared reversibility.

    Returns (Ts, Ts_hat): Ts(q1) = -Tu(r1*q1) is the stable slope in the
    stable chart; Ts_hat is its pull-back to the unstable chart through the
    2pi shift (periodic models with r1=-1 only, else None).
    """
    if model.reversibility is None:
        raise HypothesesError(
            "no reversibility declared; solve the stable side directly and "
            "use jet_transport_stable")
    r1, _r2 = model.reversibility

    def Ts(q1: float) -> float:
        return -Tu_solution(r1 * q1)

    Ts_hat = None
    if model.periodic:
        if r1 != -1:
            raise HypothesesError("torus form requires r1 = -1")

        def Ts_hat(q1: float) -> float:
            # Ts_hat(q1) = Ts(q1 - 2pi) = -Tu(2pi - q1)
            return -Tu_solution(2.0 * math.pi - q1)

    return Ts, Ts_hat


def stable_jet_from_unstable(Tu_solution: RiccatiSolution, q: float,
                             reversibility: tuple[int, int]) -> StableJet:
    """Stable-chart jet at q induced by the reversibility (r1, r2) from the
    unstable solution, on the loop it was solved on.

    For a model whose second chart carries the same coefficient functions
    (as the sphere model does), the stable generating function there is
    S_s(Q) = -S_u(r1 Q1, r2 Q2), so with x = r1 q its jet is dS0 = -r1
    S0'(x), ddS0 = -S0''(x), S1 = -r2 S1(x), dS1 = -r1 r2 S1'(x) and
    T = -Tu(x).  x outside the solved interval raises ValueError.
    """
    r1, r2 = reversibility
    x = r1 * q
    T = -Tu_solution(x)
    loop = Tu_solution.profile
    (_q1dot, _alpha, _delta, _b220, _db220, _ds1_q1dot, _v1, _beta, ds0, s1,
     ds1) = loop(x)
    return StableJet(dS0=-r1 * ds0,
                     ddS0=-central_diff(lambda y: loop(y)[8], x),
                     S1=-r2 * s1, dS1=-r1 * r2 * ds1, T=T)


def chart_transversality(model: HamiltonianModel,
                         opts: SolverOptions | None = None,
                         tol: float | None = None) -> TransversalityReport:
    """Verdict at the model's matching point (q1*, transition) by jet
    transport between the charts.

    Solves the unstable slope up to max(q1*, chi0(q1*)), builds the stable
    jet by reversibility at chi0(q1*), transports it through the
    transition, and compares at q1*.  The first solve takes opts, by
    default the Riccati defaults without the start-up check, for every
    model.  A verdict that its solve's tolerance leaves undecided (see
    transversality_verdict) is solved again at rtol over 100, rounded to
    12 digits so that 1e-9 climbs to 1e-11 exactly, until it decides or
    rtol would fall below MIN_RTOL; the report carries the rtol of its
    last solve.
    """
    if model.reversibility is None:
        raise HypothesesError(
            "jet route without reversibility needs a user-supplied stable jet")
    if model.matching is None:
        raise ValueError("the model declares no matching point")
    q1_star, transition = model.matching
    target = max(q1_star, transition.chi0(q1_star))
    opts = opts or SolverOptions(sensitivity_check=False)
    while True:
        sol = solve_riccati(model, target, opts=opts)
        jet = stable_jet_from_unstable(sol, transition.chi0(q1_star),
                                       model.reversibility)
        Ts_hat = jet_transport_stable(jet, transition.jet2(q1_star))
        report = transversality_verdict(
            sol(q1_star), Ts_hat, tol=tol, q1_star=q1_star,
            slope_max=sol.diagnostics["slope_max"], rtol=opts.rtol)
        if report.verdict != "inconclusive" or opts.rtol / 100 < MIN_RTOL:
            return report
        opts = replace(opts, rtol=float("%.12g" % (opts.rtol / 100)))


def transversality_verdict(Tu: float, Ts_hat: float,
                           tol: float | None = None, q1_star: float = 0.0,
                           slope_max: float = 0.0,
                           rtol: float = 0.0) -> TransversalityReport:
    """Three-valued verdict on the slope gap Tu - Ts_hat.

    The slope scale is max(1, |Tu|, |Ts_hat|, slope_max), slope_max the
    largest |T| along the solve that gave the slopes.  tol defaults to
    1e-6 times the scale, and the tangent threshold is 1e-10 times it; the
    band between them reports "inconclusive" so numerical noise is never
    mistaken for a genuine tangency.  Slopes solved at rtol (0 for exact
    slopes) decide only with room over that tolerance, rtol times the
    scale: "transversal" needs a gap above 1e4 times it as well as above
    tol, and "tangent" an rtol at most a tenth of the tangent threshold
    over the scale, 1e-11.
    """
    if not (math.isfinite(Tu) and math.isfinite(Ts_hat)):
        raise ValueError("slopes must be finite")
    scale = max(1.0, abs(Tu), abs(Ts_hat), slope_max)
    if tol is None:
        tol = 1e-6 * scale
    tol_tangent = 1e-10 * scale
    gap = Tu - Ts_hat
    if abs(gap) > max(tol, 1e4 * rtol * scale):
        verdict = "transversal"
    # compared unscaled, so that rounding cannot turn rtol 1e-11 away
    elif abs(gap) < tol_tangent and 10.0 * rtol <= 1e-10:
        verdict = "tangent"
    else:
        verdict = "inconclusive"
    return TransversalityReport(q1_star=q1_star, Tu=Tu, Ts_hat=Ts_hat,
                                gap=gap, tol=tol, tol_tangent=tol_tangent,
                                verdict=verdict, rtol=rtol)


def torus_transversality(model: HamiltonianModel,
                         opts: SolverOptions | None = None,
                         tol: float | None = None) -> TransversalityReport:
    """Verdict at q1* = pi for periodic reversible models with r1 = -1.

    The jet transport through the 2pi shift then turns the stable-side
    slope into -Tu(pi), so the condition reduces to Tu(pi) != 0.  The
    model's own matching is set aside for (pi, the shift).
    """
    if not model.periodic:
        raise HypothesesError("torus verdict needs a periodic model")
    if model.reversibility is None or model.reversibility[0] != -1:
        raise HypothesesError("torus verdict needs reversibility with r1=-1")
    return chart_transversality(
        replace(model, matching=(math.pi, torus_shift_transition())),
        opts=opts, tol=tol)
