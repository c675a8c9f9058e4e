"""Melnikov potential machinery for the perturbed separatrix sheet.

When the unperturbed unstable and stable manifolds coincide in a sheet
filled by a loop family x(t, s), the first-order splitting is measured by
the Melnikov potential

    L(q) = - integral of [H*(flow through q) - H*(O)] dt over the real line,

a first integral of the unperturbed flow.  Restricting to the transverse
section kappa(s) gives the reduced potential L~(s); a nondegenerate
critical point of L~ certifies a perturbed loop along which the perturbed
manifolds intersect transversely (case B).  Case A (manifolds already
transverse before perturbing) needs no integral at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, root

from .charts import TransversalityReport
from .models import PerturbationModel
from .numerics import richardson_diff


@dataclass(frozen=True)
class MelnikovResult:
    s_grid: np.ndarray | None = None
    L_samples: np.ndarray | None = None
    dL0: float | None = None
    ddL0: float | None = None
    case_label: str | None = None       # "A" | "B"
    verdict: str | None = None          # perturbed_loop_transversal |
                                        # degenerate | inapplicable
    quadrature_diag: dict = field(default_factory=dict)


def _t_cut(pert: PerturbationModel, s: float) -> float:
    return (40.0 + abs(s) * pert.time_scale) / pert.decay_rate


def _locate(pert: PerturbationModel, q1: float, q2: float) -> tuple[float, float]:
    if pert.locate is not None:
        return pert.locate(q1, q2)

    def residual(ts):
        x = pert.loop_family(ts[0], ts[1])
        return [x[0] - q1, x[1] - q2]

    sol = root(residual, [0.0, 0.0], tol=1e-12)
    if not sol.success:
        raise ValueError("could not locate (t, s) of the loop point %r"
                         % ((q1, q2),))
    return float(sol.x[0]), float(sol.x[1])


def melnikov_potential(pert: PerturbationModel,
                       q: tuple[float, float] | None = None,
                       s: float | None = None,
                       diag: dict | None = None) -> float:
    """L at a separatrix point, given either as q = (q1, q2) or directly by
    the section parameter s (then the point is kappa(s)).

    The quadrature window is centered at the time the loop passes through
    the point and sized so the exponential tail stays below 1e-12; the tail
    estimate is recorded in diag and a warning is raised if it is not met.
    """
    if (q is None) == (s is None):
        raise ValueError("give exactly one of q or s")
    if q is not None:
        t0, s = _locate(pert, q[0], q[1])
    else:
        t0 = 0.0
    T = _t_cut(pert, s)
    val, err = quad(lambda t: pert.integrand(t, s), t0 - T, t0 + T,
                    epsabs=1e-13, epsrel=1e-12, limit=400)
    tail = (abs(pert.integrand(t0 - T, s))
            + abs(pert.integrand(t0 + T, s))) / (2.0 * pert.decay_rate)
    if diag is not None:
        diag.update({"t_cut": T, "tail_bound": tail, "quad_error": err})
    if tail > 1e-12:
        warnings.warn("quadrature tail bound %.3g above 1e-12" % tail,
                      RuntimeWarning)
    return -val


def reduced_melnikov(pert: PerturbationModel, s_grid) -> MelnikovResult:
    """Sample the reduced potential L~(s) = L(kappa(s)) on a grid.

    The quadrature diagnostics report the worst window, tail bound and
    quadrature error over the grid.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    diags = [{} for _ in s_grid]
    samples = np.array([melnikov_potential(pert, s=float(s), diag=d)
                        for s, d in zip(s_grid, diags)])
    worst = ({k: max(d[k] for d in diags)
              for k in ("t_cut", "tail_bound", "quad_error")} if diags else {})
    return MelnikovResult(s_grid=s_grid, L_samples=samples,
                          quadrature_diag=worst)


def melnikov_derivatives(pert: PerturbationModel) -> tuple[float, float]:
    """(L~'(0), L~''(0)) by analytic integrand derivatives when the model
    supplies them, else by Richardson-extrapolated central differences."""
    T = _t_cut(pert, 0.0)
    if pert.d_integrand_ds is not None and pert.d2_integrand_ds2 is not None:
        d1, _ = quad(lambda t: pert.d_integrand_ds(t, 0.0), -T, T,
                     epsabs=1e-13, epsrel=1e-12, limit=400)
        d2, _ = quad(lambda t: pert.d2_integrand_ds2(t, 0.0), -T, T,
                     epsabs=1e-13, epsrel=1e-12, limit=400)
        return -d1, -d2

    def Ltilde(s: float) -> float:
        return melnikov_potential(pert, s=s)

    h = 1e-3
    return (richardson_diff(Ltilde, 0.0, h, order=1),
            richardson_diff(Ltilde, 0.0, h, order=2))


def perturbed_loop_verdict(case: str,
                           report: TransversalityReport | None = None,
                           pert: PerturbationModel | None = None,
                           derivs: tuple[float, float] | None = None,
                           s_grid=None,
                           L_samples=None) -> MelnikovResult:
    """Case-A / case-B verdict for persistence of a transverse loop.

    Case A (manifolds transverse before perturbing) consumes the
    unperturbed TransversalityReport; the perturbation is regular and no
    Melnikov computation is needed.  Case B consumes the derivatives of the
    reduced potential at s = 0; a critical, nondegenerate point certifies
    the perturbed transverse loop.  If s = 0 is not critical the verdict is
    "inapplicable" and any sign changes of the sampled slope are reported
    as candidate critical parameters.
    """
    if case == "A":
        if report is None:
            raise ValueError("case A needs the unperturbed report")
        verdict = ("perturbed_loop_transversal"
                   if report.verdict == "transversal" else "inapplicable")
        return MelnikovResult(case_label="A", verdict=verdict)
    if case != "B":
        raise ValueError("case must be 'A' or 'B'")

    if derivs is None:
        if pert is None:
            raise ValueError("case B needs derivs or a perturbation model")
        derivs = melnikov_derivatives(pert)
    dL0, ddL0 = derivs
    tol_dd = 1e-8
    tol_crit = 1e-8 * max(1.0, abs(ddL0))
    diag: dict = {}
    if abs(dL0) <= tol_crit:
        verdict = ("perturbed_loop_transversal" if abs(ddL0) > tol_dd
                   else "degenerate")
    else:
        verdict = "inapplicable"
        if s_grid is not None and L_samples is not None:
            s_grid = np.asarray(s_grid, dtype=float)
            L = np.asarray(L_samples, dtype=float)
            slopes = np.diff(L) / np.diff(s_grid)
            candidates = [float(0.5 * (s_grid[i] + s_grid[i + 2]))
                          for i in range(len(slopes) - 1)
                          if slopes[i] * slopes[i + 1] < 0]
            diag["critical_candidates"] = candidates
    return MelnikovResult(s_grid=None if s_grid is None else np.asarray(s_grid),
                          L_samples=None if L_samples is None
                          else np.asarray(L_samples),
                          dL0=dL0, ddL0=ddL0, case_label="B",
                          verdict=verdict, quadrature_diag=diag)


def xi_max(lam: float) -> float:
    """Largest phase advance of the fast pendulum over the slow one:
    max over t > 0 of 4 arctan e^(lam t) - 4 arctan e^t."""
    if lam <= 1.0:
        return 0.0

    def g(t):
        return math.cosh(lam * t) - lam * math.cosh(t)

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    t_star = brentq(g, 1e-12, hi, xtol=1e-12)
    return 4.0 * (math.atan(math.exp(lam * t_star))
                  - math.atan(math.exp(t_star)))


def lambda0_threshold() -> float:
    """Frequency ratio at which the phase advance reaches pi/2; above it the
    nondegeneracy argument for the reduced potential fails."""
    return brentq(lambda lam: xi_max(lam) - 0.5 * math.pi, 1.0 + 1e-9, 10.0,
                  xtol=1e-10)
