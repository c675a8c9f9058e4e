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
the equivalent second-order linear ODE through its Pruefer angle, a scalar
equation without poles, in the variable log q1.  Both read the equation's
terms from the model's loop (see septrans.loops), one call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .loops import Loop, loop_profile
from .models import HamiltonianModel, HypothesesError, restriction_holds
from .numerics import BlowUpError
# the solver's one binding, which the bench's traced run rebinds to count
# rhs evaluations
from .numerics import dop853 as solve_ivp

# the |T| past which the manifold counts as lost from graph form
CAP = 1e8
# the tightest rtol a slope solve takes, near scipy's floor of 100 machine
# epsilons; far below it (1e-300) dop853's start-step heuristic overflows
# to a nan first step.  An inconclusive verdict is not solved again below it
MIN_RTOL = 1e-14


@dataclass(frozen=True)
class SolverOptions:
    """rtol of the slope solve, at least MIN_RTOL, whose atol is rtol /
    1000; epsilon, the start offset from the singular point, at most 1e-4
    of the model's domain (None: that ceiling); and whether to report the
    start-up sensitivity."""
    rtol: float = 1e-9
    epsilon: float | None = None
    sensitivity_check: bool = True


@dataclass(frozen=True)
class RiccatiSolution:
    """The slope T on [0, q1_target], and the loop it was solved on, as
    loop_profile returns it."""
    T0: float
    Delta: float
    epsilon_start: float
    q1_target: float
    profile: Loop
    diagnostics: dict = field(default_factory=dict)
    _dense: object = None
    _initial: float = 0.0

    def __call__(self, q1: float) -> float:
        """T at a number q1 in [0, q1_target], a float; on [0,
        epsilon_start] the solve's start value (T0, or -T0 on the stable
        side).  Raises ValueError outside that interval, and at nan."""
        q1 = float(q1)
        if not 0.0 <= q1 <= self.q1_target:
            if q1 < 0.0:
                raise ValueError("q1=%g below the solved interval, which "
                                 "starts at 0" % q1)
            raise ValueError("q1=%g beyond the solved interval, which ends "
                             "at %g" % (q1, self.q1_target))
        return self._initial if q1 <= self.epsilon_start else self._dense(q1)


def riccati_initial(loop: Loop) -> tuple[float, float]:
    """Initial slope at the singular point and its discriminant, from the
    model's loop.

    T(0) solves b220 T^2 + 2 delta T - alpha = 0; the positive branch of the
    square root is the unstable one.
    """
    (_q1dot, a0, d0, b0, _db220, _ds1_q1dot, _v1, _beta, _ds0, _s1,
     _ds1) = loop(0.0)
    Delta = d0 * d0 + b0 * a0
    if Delta < 0:
        raise HypothesesError(
            "hypotheses violated: no real unstable slope (Delta=%g)" % Delta)
    T0 = (-d0 + math.sqrt(Delta)) / b0
    return T0, Delta


def _integrate(loop: Loop, eps: float, q1_target: float, T_start: float,
               rtol: float, stable: bool):
    """(the dop853 result, the largest |residual| of the loop restriction
    over the points the solve evaluated).  A point where the restriction
    fails (see restriction_holds) raises HypothesesError, the first that
    the solve evaluates."""
    # the blow-up event fires on a sign change only, so a start past the
    # cap is caught here
    if abs(T_start) > CAP:
        raise BlowUpError(eps, "graph form lost / blow-up: start slope %g at "
                          "q1=%g beyond the cap %g" % (T_start, eps, CAP))
    sgn = -1.0 if stable else 1.0
    worst = 0.0
    passed = 0.0    # the largest residual so far that is at most 1e-6

    def rhs(q1, T):
        nonlocal worst, passed
        (q1dot, alpha, delta, b220, _db220, ds1_q1dot, v1, _beta, _ds0, _s1,
         _ds1) = loop(q1)
        r = abs(ds1_q1dot + v1)
        # a residual up to passed passes untested, and only one past 1e-6
        # is judged against its terms; a nan one fails
        if not r <= passed:
            if r <= 1e-6:
                passed = r
            elif not restriction_holds(ds1_q1dot, v1):
                scale = max(1.0, abs(ds1_q1dot) + abs(v1))
                raise HypothesesError(
                    "inconsistent V1: restriction residual %.3g > %s at "
                    "q1=%g" % (r, "1e-6" if scale == 1.0
                               else "1e-6 * %.3g" % scale, q1))
            worst = max(worst, r)
        return (sgn * alpha - 2.0 * delta * T - sgn * b220 * T * T) / q1dot

    def blow_up(q1, T):
        return CAP - abs(T)

    return _solve_to_target(rhs, (eps, q1_target), T_start, rtol,
                            rtol / 1000, blow_up,
                            "graph form lost / blow-up"), worst


def _solve_to_target(rhs, span: tuple[float, float], start: float,
                     rtol: float, atol: float, event, meaning: str,
                     q1_at: Callable[[float], float] = float):
    """The dop853 solve of rhs over span from start, stopped by event,
    whose root means what meaning says; q1_at maps the solve's variable to
    q1.  A solve that stops short raises BlowUpError at the q1 where it
    stopped: on a loop speed q1dot that underflows to 0, on a start
    derivative too large for a first step, at the event, or on the
    step-size floor."""
    q1_start, q1_end = map(q1_at, span)
    try:    # caught here, so that the rhs pays nothing for it
        sol = solve_ivp(rhs, span, start, rtol, atol, event=event)
    except ZeroDivisionError as exc:
        raise BlowUpError(q1_start, "loop speed q1dot underflows to 0 between "
                          "q1=%g and q1=%g" % (q1_start, q1_end)) from exc
    except FloatingPointError as exc:
        raise BlowUpError(q1_start, "slope equation's %s at q1=%g"
                          % (exc, q1_start)) from exc
    if sol.event or not sol.success:
        q1 = q1_at(sol.t)
        raise BlowUpError(q1, "%s at q1=%g before q1_target=%g" % (
            meaning if sol.event else "step size fell below its floor",
            q1, q1_end))
    return sol


# 5-point Gauss-Legendre nodes and weights on [-1, 1]
_GAUSS5_X = (-0.906179845938664, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.906179845938664)
_GAUSS5_W = (0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
             0.47862867049936647, 0.23692688505618908)


def _startup_propagation(loop: Loop, dense, stable: bool):
    """(Phi, nodes): the factor by which a change of the start value
    reaches the end of the solve, Phi = exp(-int (2 delta + 2 sgn b220 T)
    / q1dot dq) from the solve's first mesh point to its last, the
    variational equation of the slope equation along its solution T.  The
    integral is 5-point Gauss-Legendre on each accepted step, with T from
    the dense output: a loop call and a dense call per node."""
    sgn2 = -2.0 if stable else 2.0
    ts = dense.ts
    integral = 0.0
    for a, b in zip(ts[:-1], ts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        step = 0.0
        for x, w in zip(_GAUSS5_X, _GAUSS5_W):
            q1 = mid + half * x
            (q1dot, _alpha, delta, b220, _db220, _ds1_q1dot, _v1, _beta,
             _ds0, _s1, _ds1) = loop(q1)
            step += (2.0 * delta + sgn2 * b220 * dense(q1)) / q1dot * w
        integral += half * step
    return math.exp(-integral), len(_GAUSS5_W) * (len(ts) - 1)


def solve_riccati(model: HamiltonianModel, q1_target: float,
                  opts: SolverOptions | None = None,
                  stable: bool = False) -> RiccatiSolution:
    """Integrate the slope equation from the singular point to q1_target.

    stable=True integrates the stable-side slope instead (coefficients alpha
    and b220 flip sign and the negative initial branch is used); in both
    cases the integrated branch is forward-attracting, which makes the
    O(epsilon) start-up error self-correcting.  A start offset epsilon
    above its default, 1e-4 of the domain, or at or past q1_target raises
    ValueError.  Every point the solve evaluates checks the loop
    restriction: a residual above 1e-6 of the size of its two terms raises
    HypothesesError (see restriction_holds), and an rtol below MIN_RTOL
    raises ValueError.  The diagnostics carry the largest,
    restriction_residual_max, and slope_max, the largest |T| over the
    solve's mesh states, at no rhs evaluation.  With
    opts.sensitivity_check the diagnostics carry startup_sensitivity, the
    spread at q1_target of starts 10 epsilon apart either side to first
    order, and whether it stays within 100 rtol of the slope; it costs no
    further solve.
    """
    opts = opts or SolverOptions()
    if not opts.rtol >= MIN_RTOL:
        raise ValueError("rtol=%g below its floor MIN_RTOL=%g"
                         % (opts.rtol, MIN_RTOL))
    loop = loop_profile(model)
    a, b = model.domain
    if not (0.0 < q1_target <= b):
        raise ValueError("q1_target must lie in (0, %g]" % b)
    ceiling = 1e-4 * (b - a)
    eps = opts.epsilon if opts.epsilon is not None else ceiling
    if not eps < q1_target:
        raise ValueError("the start offset epsilon=%g must lie below "
                         "q1_target=%g" % (eps, q1_target))
    if not eps <= ceiling:
        raise ValueError("the start offset epsilon=%g is above its ceiling "
                         "%r, 1e-4 of the domain" % (eps, ceiling))
    T0, Delta = riccati_initial(loop)
    initial = -T0 if stable else T0

    sol, residual = _integrate(loop, eps, q1_target, initial, opts.rtol,
                               stable)
    diagnostics = {"n_rhs_evaluations": sol.nfev, "n_steps": sol.nsteps,
                   "restriction_residual_max": residual,
                   "slope_max": max(map(abs, sol.sol.ys))}
    if opts.sensitivity_check:
        phi, n_nodes = _startup_propagation(loop, sol.sol, stable)
        # the spread two solves started at initial -+ 10 eps would show
        spread = 2.0 * (10.0 * eps) * phi
        ref = sol.sol(q1_target)
        diagnostics["startup_sensitivity"] = spread
        diagnostics["startup_sensitivity_ok"] = bool(
            spread <= 100.0 * opts.rtol * max(1.0, abs(ref)))
        diagnostics["n_sensitivity_evaluations"] = n_nodes
    return RiccatiSolution(T0=T0, Delta=Delta, epsilon_start=eps,
                           q1_target=q1_target, profile=loop,
                           diagnostics=diagnostics,
                           _dense=sol.sol, _initial=initial)


def riccati_to_linear_oracle(model: HamiltonianModel,
                             q1_target: float) -> float:
    """Independent value of T(q1_target) via the equivalent linear ODE.

    In the time variable the slope equation reads T. + a T + b T^2 = c with
    a = 2 delta, b = b220, c = alpha, which the substitution T = y'/(b y)
    turns into y'' + A y' - B y = 0, A = 2 delta - b220' q1dot / b220,
    B = b220 alpha.  Its Pruefer angle theta, (y, y') = r (sin theta,
    cos theta), obeys the scalar equation without poles
    theta' = P (cos^2 theta + A sin theta cos theta - B sin^2 theta) in
    s = log q1, where d/dt = (1/P) d/ds and P = q1/q1dot tends to 1/rate
    at the saddle.  Seeding at q1 = 1e-6 q1_target on the slope condition
    y' = b220 T(0) y, theta = atan2(1, b220 T(0)), selects the
    non-dominant ray; the solve ends at s = log q1_target exactly, where
    T = 1 / (b220 tan theta).  A pole of T (a zero of y) is a sign change
    of sin theta and raises BlowUpError at its q1, as do a loop speed that
    underflows to 0 and a step size below its floor.  A q1_target outside
    (0, b] raises ValueError, as in solve_riccati.
    """
    loop = loop_profile(model)
    end = model.domain[1]
    if not (0.0 < q1_target <= end):
        raise ValueError("q1_target must lie in (0, %g]" % end)
    T0, _ = riccati_initial(loop)
    # small enough that the asymptotic seeding error is contracted away on
    # the way up, large enough that coefficient formulas with cancellation
    # near the equilibrium (e.g. cos(q1) - 1) keep relative accuracy
    q1s = 1e-6 * q1_target

    def rhs(s, theta):
        q1 = math.exp(s)
        (q1dot, alpha, delta, b, db, _ds1_q1dot, _v1, _beta, _ds0, _s1,
         _ds1) = loop(q1)
        sin, cos = math.sin(theta), math.cos(theta)
        acoef = 2.0 * delta - db * q1dot / b
        return q1 / q1dot * (cos * cos + acoef * sin * cos
                             - b * alpha * sin * sin)

    def y_zero(_s, theta):
        return math.sin(theta)

    def b220(q1):
        return loop(q1)[3]

    span = (math.log(q1s), math.log(q1_target))
    theta0 = math.atan2(1.0, b220(q1s) * T0)
    # rtol 1e-10 left errors up to 8.6e-11 in T (pendula_identical [0.45])
    sol = _solve_to_target(rhs, span, theta0, 1e-11, 1e-12, y_zero,
                           "pole of T (y crossed zero)", math.exp)
    return 1.0 / (b220(q1_target) * math.tan(sol.y))
