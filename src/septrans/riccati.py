"""Riccati equation for the transverse slope of the unstable manifold.

On the loop line the second transverse derivative T(q1) of the unstable
generating function satisfies

    beta(q1) dS0(q1) T' + 2 delta(q1) T + b220(q1) T^2 = alpha(q1)

with delta = b120 * dS1 and alpha assembled from the model coefficients.
The equation is singular at q1 = 0 (dS0(0) = 0); the initial value there is
fixed by the quadratic balance to T(0) = (-delta(0) + sqrt(Delta)) / b220(0),
Delta = delta(0)^2 + b220(0) * alpha(0), positive branch.  That solution is
forward-attracting, so integration simply starts a small epsilon away from
the singular point.

A sign-flipped variant integrates the stable-side slope directly (used to
cross-check the reversibility shortcut), and an independent oracle solves
the equivalent second-order linear ODE in the time variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .loops import LoopProfile, loop_profile
from .models import HamiltonianModel


class BlowUpError(RuntimeError):
    """|T| exceeded the cap: the manifold loses graph form before the target."""

    def __init__(self, q1: float, message: str | None = None):
        self.q1 = q1
        super().__init__(message or "graph form lost / blow-up at q1=%g" % q1)


class HypothesesError(ValueError):
    """No real initial slope: Delta < 0, hypotheses violated."""


@dataclass(frozen=True)
class RiccatiCoefficients:
    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    delta: Callable[[float], float]
    b220: Callable[[float], float]


@dataclass(frozen=True)
class SolverOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    epsilon: float | None = None
    cap: float = 1e8
    sensitivity_check: bool = True


@dataclass(frozen=True)
class RiccatiSolution:
    T0: float
    Delta: float
    epsilon_start: float
    q1_target: float
    samples: np.ndarray          # (n, 2) columns q1, T
    diagnostics: dict = field(default_factory=dict)
    stable: bool = False
    _dense: object = None
    _initial: float = 0.0

    def __call__(self, q1):
        q1a = np.asarray(q1, dtype=float)
        if np.any(q1a > self.q1_target):
            raise ValueError("q1=%g beyond the solved interval, which ends "
                             "at %g" % (np.max(q1a), self.q1_target))
        out = np.where(q1a <= self.epsilon_start, self._initial,
                       self._dense(np.maximum(q1a, self.epsilon_start))[0])
        return float(out) if np.isscalar(q1) or q1a.ndim == 0 else out


def riccati_coefficients(model: HamiltonianModel,
                         profile: LoopProfile) -> RiccatiCoefficients:
    """Assemble alpha, beta, delta, b220 from the model and loop profile."""

    def alpha(q1: float) -> float:
        ds1 = profile.dS1(q1)
        ds0 = profile.dS0(q1)
        s1 = profile.S1(q1)
        return (model.Y(q1) - model.b110(q1) * ds1 * ds1
                - 0.5 * (model.b112(q1) * ds0 * ds0
                         + 2.0 * model.b122(q1) * ds0 * s1
                         + model.b222(q1) * s1 * s1))

    def delta(q1: float) -> float:
        return model.b120(q1) * profile.dS1(q1)

    return RiccatiCoefficients(alpha=alpha, beta=profile.beta, delta=delta,
                               b220=model.b220)


def riccati_initial(coeffs: RiccatiCoefficients) -> tuple[float, float]:
    """Initial slope at the singular point and its discriminant.

    T(0) solves b220 T^2 + 2 delta T - alpha = 0; the positive branch of the
    square root is the unstable one.
    """
    d0 = coeffs.delta(0.0)
    b0 = coeffs.b220(0.0)
    a0 = coeffs.alpha(0.0)
    Delta = d0 * d0 + b0 * a0
    if Delta < 0:
        raise HypothesesError(
            "hypotheses violated: no real unstable slope (Delta=%g)" % Delta)
    T0 = (-d0 + math.sqrt(Delta)) / b0
    return T0, Delta


def _integrate(coeffs: RiccatiCoefficients, profile: LoopProfile,
               eps: float, q1_target: float, T_start: float,
               opts: SolverOptions, stable: bool):
    sgn = -1.0 if stable else 1.0

    def rhs(q1, y):
        denom = coeffs.beta(q1) * profile.dS0(q1)
        T = y[0]
        return [(sgn * coeffs.alpha(q1) - 2.0 * coeffs.delta(q1) * T
                 - sgn * coeffs.b220(q1) * T * T) / denom]

    def blow_up(q1, y):
        return opts.cap - abs(y[0])

    blow_up.terminal = True
    sol = solve_ivp(rhs, (eps, q1_target), [T_start], method="RK45",
                    rtol=opts.rtol, atol=opts.atol, dense_output=True,
                    events=blow_up)
    if sol.t_events[0].size > 0 or not sol.success or sol.t[-1] < q1_target:
        q1_stop = float(sol.t_events[0][0]) if sol.t_events[0].size else float(sol.t[-1])
        raise BlowUpError(q1_stop)
    return sol


def solve_riccati(model: HamiltonianModel, q1_target: float,
                  opts: SolverOptions | None = None,
                  profile: LoopProfile | None = None,
                  stable: bool = False, n_samples: int = 200) -> RiccatiSolution:
    """Integrate the slope equation from the singular point to q1_target.

    stable=True integrates the stable-side slope instead (coefficients alpha
    and b220 flip sign and the negative initial branch is used); in both
    cases the integrated branch is forward-attracting, which makes the
    O(epsilon) start-up error self-correcting.
    """
    opts = opts or SolverOptions()
    if profile is None:
        profile = loop_profile(model)
    a, b = profile.interval
    if not (0.0 < q1_target <= b):
        raise ValueError("q1_target must lie in (0, %g]" % b)
    coeffs = riccati_coefficients(model, profile)
    T0, Delta = riccati_initial(coeffs)
    initial = -T0 if stable else T0
    eps = opts.epsilon if opts.epsilon is not None else 1e-4 * (b - a)

    sol = _integrate(coeffs, profile, eps, q1_target, initial, opts, stable)
    qs = np.linspace(eps, q1_target, n_samples)
    Ts = sol.sol(qs)[0]
    diagnostics = {
        "n_rhs_evaluations": int(sol.nfev),
        "n_steps": int(len(sol.t) - 1),
        "max_abs_T": float(np.max(np.abs(Ts))),
        "blow_up": False,
    }
    if opts.sensitivity_check:
        bump = 10.0 * eps
        ends = []
        for shift in (+bump, -bump):
            s2 = _integrate(coeffs, profile, eps, q1_target,
                            initial + shift, opts, stable)
            ends.append(float(s2.sol(q1_target)[0]))
        spread = abs(ends[0] - ends[1])
        ref = float(sol.sol(q1_target)[0])
        diagnostics["startup_sensitivity"] = spread
        diagnostics["startup_sensitivity_ok"] = bool(
            spread <= 100.0 * opts.rtol * max(1.0, abs(ref)))
    return RiccatiSolution(T0=T0, Delta=Delta, epsilon_start=eps,
                           q1_target=q1_target,
                           samples=np.column_stack([qs, Ts]),
                           diagnostics=diagnostics, stable=stable,
                           _dense=sol.sol, _initial=initial)


def riccati_to_linear_oracle(model: HamiltonianModel, q1_target: float,
                             opts: SolverOptions | None = None,
                             profile: LoopProfile | None = None) -> float:
    """Independent value of T(q1_target) via the equivalent linear ODE.

    In the time variable the slope equation reads T. + a T + b T^2 = c with
    a = 2 delta, b = b220, c = alpha, which the substitution T = y'/(b y)
    turns into y'' + (a - b'/b) y' - b c y = 0.  Seeding far in the past
    with the slope condition y' = b T(0) y selects the non-dominant ray, and
    the value at t = 0 maps back to T(q1_target).
    """
    opts = opts or SolverOptions()
    if profile is None:
        profile = loop_profile(model)
    coeffs = riccati_coefficients(model, profile)
    T0, _ = riccati_initial(coeffs)

    # inner expansion rate at the equilibrium sets the time horizon
    h = 1e-5
    rate = profile.beta(0.0) * profile.dS0(h) / h
    # small enough that the asymptotic seeding error is contracted away on
    # the way up, large enough that coefficient formulas with cancellation
    # near the equilibrium (e.g. cos(q1) - 1) keep relative accuracy
    q1s = 1e-6 * q1_target
    t_span = (0.0, 100.0 / rate)

    def q1dot(q1):
        return profile.beta(q1) * profile.dS0(q1)

    def rhs(_t, y):
        q1, yy, yp = y
        b = coeffs.b220(q1)
        db_dt = model.derivative("b220", q1) * q1dot(q1)
        acoef = 2.0 * coeffs.delta(q1) - db_dt / b
        return [q1dot(q1), yp, -acoef * yp + b * coeffs.alpha(q1) * yy]

    def y_zero(_t, y):
        return y[1]

    y_zero.terminal = True

    def at_target(_t, y):
        return y[0] - q1_target

    at_target.terminal = True
    sol = solve_ivp(rhs, t_span, [q1s, 1.0, coeffs.b220(q1s) * T0],
                    method="RK45", rtol=min(opts.rtol, 1e-10), atol=opts.atol,
                    events=(y_zero, at_target))
    if sol.t_events[0].size > 0 or not sol.success:
        q1_stop = float(sol.y[0, -1])
        raise BlowUpError(q1_stop, "pole of T (y crossed zero) at q1=%g" % q1_stop)
    if sol.t_events[1].size == 0:
        raise BlowUpError(float(sol.y[0, -1]),
                          "oracle never reached q1_target=%g" % q1_target)
    q1_end, y_end, yp_end = (float(v) for v in sol.y_events[1][0])
    return yp_end / (coeffs.b220(q1_end) * y_end)
