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
from dataclasses import dataclass
from typing import Callable

from .loops import loop_profile
# Jet2 and the transitions live in models; charts re-exports them
from .models import (ChartTransition, HamiltonianModel, Jet2,
                     identity_transition, inversion_transition,
                     torus_shift_transition)
from .numerics import central_diff
from .riccati import RiccatiSolution, SolverOptions, solve_riccati, BlowUpError


class ReversibilityError(RuntimeError):
    """Model declares no usable reversibility for the requested shortcut."""


@dataclass(frozen=True)
class StableJet:
    """Second-order jet of the stable generating function in its own chart.

    All fields are functions of the stable-chart coordinate: first and
    second derivatives of the order-0 profile, the order-1 profile and its
    derivative, and the transverse slope.
    """
    dS0: Callable[[float], float]
    ddS0: Callable[[float], float]
    S1: Callable[[float], float]
    dS1: Callable[[float], float]
    T: Callable[[float], float]
    interval: tuple[float, float]


@dataclass(frozen=True)
class TransversalityReport:
    q1_star: float
    Tu: float
    Ts_hat: float
    gap: float
    tol: float
    tol_tangent: float
    verdict: str                # transversal | tangent | inconclusive

    def as_dict(self) -> dict:
        return {"q1_star": self.q1_star, "Tu": self.Tu, "Ts_hat": self.Ts_hat,
                "gap": self.gap, "tol": self.tol,
                "tol_tangent": self.tol_tangent, "verdict": self.verdict}


def jet_transport_stable(stable_jet: StableJet, transition: ChartTransition,
                         q1: float) -> float:
    """Transverse slope of the transported generating function at q1.

    Computes d^2(S~ o chi)/dq2^2 at (q1, 0) by the second-order chain rule;
    the composed order-1 terms use that chi maps the loop line to the loop
    line, so d(chi_2)/dq1 terms drop out.
    """
    qt = transition.chi0(q1)
    lo, hi = stable_jet.interval
    if not (lo - 1e-12 <= qt <= hi + 1e-12):
        raise ValueError("chi0(q1)=%g outside the stable jet interval" % qt)
    j = transition.jet2(q1)
    # gradient terms: dS~/dq~1 = dS0, dS~/dq~2 = S1 on the loop line
    val = stable_jet.dS0(qt) * j.d2chi1_dq22 + stable_jet.S1(qt) * j.d2chi2_dq22
    # Hessian terms of S~ at (q~1, 0): [[ddS0, dS1], [dS1, T]]
    val += stable_jet.ddS0(qt) * j.dchi1_dq2 ** 2
    val += 2.0 * stable_jet.dS1(qt) * j.dchi1_dq2 * j.dchi2_dq2
    val += stable_jet.T(qt) * j.dchi2_dq2 ** 2
    return val


def stable_from_reversibility(Tu_solution: RiccatiSolution,
                              model: HamiltonianModel):
    """Stable-side slope functions induced by the declared reversibility.

    Returns (Ts, Ts_hat): Ts(q1) = -Tu(r1*q1) is the stable slope in the
    stable chart; Ts_hat is its pull-back to the unstable chart through the
    2pi shift (periodic models with r1=-1 only, else None).
    """
    if model.reversibility is None:
        raise ReversibilityError(
            "no reversibility declared; solve the stable side directly and "
            "use jet_transport_stable")
    r1, _r2 = model.reversibility

    def Ts(q1: float) -> float:
        return -Tu_solution(r1 * q1)

    Ts_hat = None
    if model.periodic:
        if r1 != -1:
            raise ReversibilityError("torus form requires r1 = -1")

        def Ts_hat(q1: float) -> float:
            # Ts_hat(q1) = Ts(q1 - 2pi) = -Tu(2pi - q1)
            return -Tu_solution(2.0 * math.pi - q1)

    return Ts, Ts_hat


def stable_jet_from_unstable(Tu_solution: RiccatiSolution, profile,
                             r1: int = 1) -> StableJet:
    """Stable-chart jet induced by reversibility from the unstable solution.

    For a model whose second chart carries the same coefficient functions
    (as the sphere model does), the stable generating function there is the
    time-reversal of the unstable one: every momentum profile flips sign
    and the slope is -Tu(r1 * q).  The jet lives where r1 * q lies in the
    solved interval.
    """
    eps, target = Tu_solution.epsilon_start, Tu_solution.q1_target
    return StableJet(
        dS0=lambda q: -profile.dS0(r1 * q),
        ddS0=lambda q: -r1 * central_diff(profile.dS0, r1 * q),
        S1=lambda q: -profile.S1(r1 * q),
        dS1=lambda q: -profile.dS1(r1 * q) * r1,
        T=lambda q: -Tu_solution(r1 * q),
        interval=(eps, target) if r1 == 1 else (-target, -eps))


def verdict_options(model: HamiltonianModel) -> SolverOptions:
    """Solver options of a verdict solve when the caller gives none.

    A periodic model's stable slope is -Tu(pi), so its gap is 2 Tu(pi) and
    a genuine tangency must land below tol_tangent rather than in the
    inconclusive band; that needs a tighter solve than the Riccati defaults.
    Other models keep the defaults, which are several times cheaper.
    """
    if model.periodic:
        return SolverOptions(rtol=1e-12, atol=5e-14, sensitivity_check=False)
    return SolverOptions(sensitivity_check=False)


def chart_transversality(model: HamiltonianModel, q1_star: float,
                         transition: ChartTransition,
                         opts: SolverOptions | None = None,
                         tol: float | None = None,
                         tol_tangent: float | None = None) -> TransversalityReport:
    """Verdict at a matching point by jet transport between the charts.

    Solves the unstable slope up to max(q1*, chi0(q1*)), builds the stable
    jet by reversibility, transports it through the transition, and
    compares at q1_star.  The solve defaults to verdict_options(model).
    """
    if model.reversibility is None:
        raise ReversibilityError(
            "jet route without reversibility needs a user-supplied stable jet")
    profile = loop_profile(model)
    target = max(q1_star, transition.chi0(q1_star))
    try:
        sol = solve_riccati(model, target, opts=opts or verdict_options(model),
                            profile=profile)
    except BlowUpError as exc:
        raise BlowUpError(exc.q1,
                          "slope blows up at q1=%g before %g: graph form "
                          "lost before the matching point"
                          % (exc.q1, target)) from exc
    jet = stable_jet_from_unstable(sol, profile, r1=model.reversibility[0])
    Ts_hat = jet_transport_stable(jet, transition, q1_star)
    return transversality_verdict(sol(q1_star), Ts_hat, tol=tol,
                                  tol_tangent=tol_tangent, q1_star=q1_star)


def transversality_verdict(Tu: float, Ts_hat: float,
                           tol: float | None = None,
                           tol_tangent: float | None = None,
                           q1_star: float = 0.0) -> TransversalityReport:
    """Three-valued verdict on the slope gap Tu - Ts_hat.

    The default tolerances scale with the slopes; the band between the
    tangent threshold and tol reports "inconclusive" so numerical noise is
    never mistaken for a genuine tangency.
    """
    if not (math.isfinite(Tu) and math.isfinite(Ts_hat)):
        raise ValueError("slopes must be finite")
    scale = max(1.0, abs(Tu), abs(Ts_hat))
    if tol is None:
        tol = 1e-6 * scale
    if tol_tangent is None:
        tol_tangent = 1e-10 * scale
    gap = Tu - Ts_hat
    if abs(gap) > tol:
        verdict = "transversal"
    elif abs(gap) < tol_tangent:
        verdict = "tangent"
    else:
        verdict = "inconclusive"
    return TransversalityReport(q1_star=q1_star, Tu=Tu, Ts_hat=Ts_hat,
                                gap=gap, tol=tol, tol_tangent=tol_tangent,
                                verdict=verdict)


def torus_transversality(model: HamiltonianModel,
                         opts: SolverOptions | None = None,
                         tol: float | None = None,
                         tol_tangent: float | None = None) -> TransversalityReport:
    """Verdict at q1* = pi for periodic reversible models with r1 = -1.

    The jet transport through the 2pi shift then turns the stable-side
    slope into -Tu(pi), so the condition reduces to Tu(pi) != 0.
    """
    if not model.periodic:
        raise ReversibilityError("torus verdict needs a periodic model")
    if model.reversibility is None or model.reversibility[0] != -1:
        raise ReversibilityError("torus verdict needs reversibility with r1=-1")
    return chart_transversality(model, math.pi, torus_shift_transition(),
                                opts=opts, tol=tol, tol_tangent=tol_tangent)
