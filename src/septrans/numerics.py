"""Small shared numerical helpers: finite differences, grid parsing, the
two numerical failures (a quadrature too large to run, a solve stopped
short), and dop853, the Dormand-Prince 8(5,3) integrator of the slope
equation and of the linear-ODE oracle's Pruefer angle, each a scalar
equation, whose state is a float."""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

def central_diff(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """First derivative by the 4th-order central stencil.

    Step defaults to 1e-6*max(1,|x|), which balances truncation against
    roundoff for smooth double-precision integrands.
    """
    if h is None:
        h = 1e-6 * max(1.0, abs(x))
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def second_diff(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """Second derivative by the 4th-order five-point stencil."""
    if h is None:
        h = 1e-4 * max(1.0, abs(x))
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def richardson_diff(f: Callable[[float], float], x: float, h: float,
                    order: int = 1) -> float:
    """5-point central difference in x with one Richardson extrapolation step.

    order=1 gives f', order=2 gives f''.  The tests' reference for the
    s-derivatives of the reduced Melnikov potential, which the runtime
    takes from the perturbation's s-jet.
    """
    if order == 1:
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h / 2) - f(x - h / 2)) / h
        return (4 * d2 - d1) / 3.0
    elif order == 2:
        d1 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        d2 = (f(x + h / 2) - 2 * f(x) + f(x - h / 2)) / (h * h / 4)
        return (4 * d2 - d1) / 3.0
    raise ValueError("order must be 1 or 2")


# the most points a grid spec may ask for, checked before its list is built
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> list[float]:
    """Parse an 'a:b:n' grid spec into n evenly spaced points from a to b,
    2 <= n <= MAX_GRID_POINTS."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be a:b:n, got %r" % spec)
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("grid spec needs numbers a, b and an integer n, "
                         "got %r" % spec) from None
    # a finite (b - a) * (n - 1), the product each point's formula forms,
    # also rules out an infinite or nan end and an infinite span b - a
    if n < 2 or not (b > a and math.isfinite((b - a) * (n - 1))):
        raise ValueError("grid spec needs finite a < b, n >= 2 and a finite "
                         "(b - a) * (n - 1), got %r" % spec)
    if n > MAX_GRID_POINTS:
        raise ValueError("grid spec %r asks for %d points, above the cap "
                         "MAX_GRID_POINTS=%d" % (spec, n, MAX_GRID_POINTS))
    return [a + (b - a) * i / (n - 1) for i in range(n)]


class QuadratureError(RuntimeError):
    """A quadrature needs more nodes than its budget allows, or gives the
    Melnikov verdict a value that is not finite.  It lives here, with no
    numpy import, so that the command line can catch it."""


class BlowUpError(RuntimeError):
    """A solve stopped before its target, at q1: |T| exceeded the cap and
    the manifold loses graph form (or T has a pole), the loop speed q1dot,
    which the slope equation divides by, is 0, the start derivative is too
    large for a first step, or the step size fell below its floor.  A
    coefficient that overflowed to nan raises it too, at the first q1 that
    has one."""

    def __init__(self, q1: float, message: str):
        self.q1 = q1
        super().__init__(message)


# Dormand and Prince's 8(5,3) pair with its 7th-order dense output, with
# the tableau and step control of scipy.integrate's DOP853 (Hairer,
# Norsett and Wanner, Solving ODEs I, II.4-5; the Fortran DOP853).  Stage
# i is ki, k1 being f at the step's start; stages 12 and 13 sit at t + h,
# and k13 = f(t + h, y_new) starts the next step.  The zero weights are
# left out: row i of A reads stages 1 and 4..i-1 (rows 2 to 5: 1, 1-2,
# 1 and 3, 1 and 3-4).
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571)
_A = ((0.05260015195876773,),
      (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0.08876275643042054),
      (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0.17025221101954405, 0.06021653898045596,
       -0.017578125),
      (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, -3.3608926294469414, -0.868219346841726,
       27.59209969944671, 20.154067550477894, -43.48988418106996),
      (0.47766253643826434, -2.4881146199716677, -0.590290826836843,
       21.230051448181193, 15.279233632882423, -33.28821096898486,
       -0.020331201708508627),
      (-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
       -8.149787010746927, -18.52006565999696, 22.739487099350505,
       2.4936055526796523, -3.0467644718982196),
      (2.273310147516538, -10.53449546673725, -2.0008720582248625,
       -17.9589318631188, 27.94888452941996, -2.8589982771350235,
       -8.87285693353063, 12.360567175794303, 0.6433927460157636))
# the 8th-order weights, and the 5th- and 3rd-order error weights, all
# on stages 1 and 6..12
_B = (0.054293734116568765, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
      0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
       0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
       0.20136540080403034, 0.02265179219836082)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# the longest step, as a share of the span t1 - t0 (see dop853)
MAX_STEP = 0.125
EPS = sys.float_info.epsilon


@dataclass
class OdeResult:
    """How a dop853 solve ended: the last time and state reached (the
    event point when the event stopped it), the rhs evaluations, the
    accepted steps, whether the step size stayed above its floor, whether
    the event fired, and the dense output."""
    t: float
    y: float
    nfev: int
    nsteps: int
    success: bool
    event: bool
    sol: DenseOutput


class DenseOutput:
    """The solve's piecewise interpolant of degree 7, one piece per
    accepted step, on the mesh ts of the step ends (scipy's OdeSolution
    name).  At a mesh point it is the state the solve stored there; between
    them the piece of the step that holds t, the earlier step's at a
    breakpoint; beyond either end the nearest piece extrapolated, as in
    scipy's OdeSolution.  A piece costs 3 rhs evaluations, made when it is
    first needed, so a solve read only at its mesh points pays none.
    Called at a number t it returns the state, a float."""

    def __init__(self, fun: Callable, t0: float, y0: float):
        self._fun = fun
        self.ts = [t0]
        self.ys = [y0]
        # per step, what builds its piece: (t, h, y, y_new, stages)
        self._steps: list[tuple] = []
        self._pieces: list[tuple | None] = []

    def append(self, step: tuple, t_end: float, y_end: float,
               piece: tuple | None = None) -> None:
        self._steps.append(step)
        self._pieces.append(piece)
        self.ts.append(t_end)
        self.ys.append(y_end)

    def _piece(self, i: int) -> tuple:
        """Step i's piece, built on first use."""
        if self._pieces[i] is None:
            self._pieces[i] = _interpolant(self._fun, *self._steps[i])
        return self._pieces[i]

    def __call__(self, t: float) -> float:
        ts = self.ts
        j = bisect_left(ts, t)
        if j < len(ts) and ts[j] == t:
            return self.ys[j]
        n = len(self._steps)
        if not n:
            return self.ys[0]
        i = j - 1 if 0 < j <= n else 0 if j == 0 else n - 1
        return _interpolate(self._pieces[i] or self._piece(i), t)


def _interpolant(fun, t: float, h: float, y: float, y_new: float,
                 k: tuple) -> tuple:
    """The interpolant on the step from (t, y) of size h to y_new, with
    stages k = (k1, ..., k13): the three extra stages k14..k16 at t + c h,
    c = 0.1, 0.2 and 7/9, then the coefficients F0..F6 of scipy's
    Dop853DenseOutput, F3..F6 from its D rows.  Like a step, it is plain
    float arithmetic on the tableau's nonzero entries (scipy's
    dop853_coefficients A rows 14..16 and D), each sum taken left to right
    over the stages in order."""
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13 = k
    k14 = fun(t + 0.1 * h, y + h * (
        k1 * 0.056167502283047954 + k7 * 0.25350021021662483
        - k8 * 0.2462390374708025 - k9 * 0.12419142326381637
        + k10 * 0.15329179827876568 + k11 * 0.00820105229563469
        + k12 * 0.007567897660545699 - k13 * 0.008298))
    k15 = fun(t + 0.2 * h, y + h * (
        k1 * 0.03183464816350214 + k6 * 0.028300909672366776
        + k7 * 0.053541988307438566 - k8 * 0.05492374857139099
        - k11 * 0.00010834732869724932 + k12 * 0.0003825710908356584
        - k13 * 0.00034046500868740456 + k14 * 0.1413124436746325))
    k16 = fun(t + 0.7777777777777778 * h, y + h * (
        -k1 * 0.42889630158379194 - k6 * 4.697621415361164
        + k7 * 7.683421196062599 + k8 * 4.06898981839711
        + k9 * 0.3567271874552811 - k13 * 0.0013990241651590145
        + k14 * 2.9475147891527724 - k15 * 9.15095847217987))
    dy = y_new - y
    return t, h, y, (
        dy, h * k1 - dy, 2 * dy - h * (k13 + k1),
        h * (-k1 * 8.428938276109013 + k6 * 0.5667149535193777
             - k7 * 3.0689499459498917 + k8 * 2.38466765651207
             + k9 * 2.117034582445028 - k10 * 0.871391583777973
             + k11 * 2.2404374302607883 + k12 * 0.6315787787694688
             - k13 * 0.08899033645133331 + k14 * 18.148505520854727
             - k15 * 9.194632392478356 - k16 * 4.436036387594894),
        h * (k1 * 10.427508642579134 + k6 * 242.28349177525817
             + k7 * 165.20045171727028 - k8 * 374.5467547226902
             - k9 * 22.113666853125306 + k10 * 7.733432668472264
             - k11 * 30.674084731089398 - k12 * 9.332130526430229
             + k13 * 15.697238121770845 - k14 * 31.139403219565178
             - k15 * 9.35292435884448 + k16 * 35.81684148639408),
        h * (k1 * 19.985053242002433 - k6 * 387.0373087493518
             - k7 * 189.17813819516758 + k8 * 527.8081592054236
             - k9 * 11.57390253995963 + k10 * 6.8812326946963
             - k11 * 1.0006050966910838 + k12 * 0.7777137798053443
             - k13 * 2.778205752353508 - k14 * 60.19669523126412
             + k15 * 84.32040550667716 + k16 * 11.99229113618279),
        h * (-k1 * 25.69393346270375 - k6 * 154.18974869023643
             - k7 * 231.5293791760455 + k8 * 357.6391179106141
             + k9 * 93.40532418362432 - k10 * 37.45832313645163
             + k11 * 104.0996495089623 + k12 * 29.8402934266605
             - k13 * 43.53345659001114 + k14 * 96.32455395918828
             - k15 * 39.17726167561544 - k16 * 149.72683625798564))


def _interpolate(piece: tuple, s: float) -> float:
    """The piece at s."""
    t, h, y, (f0, f1, f2, f3, f4, f5, f6) = piece
    x = (s - t) / h
    u = 1.0 - x
    return y + x * (f0 + u * (f1 + x * (f2 + u * (
        f3 + x * (f4 + u * (f5 + x * f6))))))


def _initial_step(fun, t0: float, y0: float, f0: float, t_bound: float,
                  rtol: float, atol: float, max_step: float) -> float:
    """scipy's select_initial_step for an error estimate of order 7, on a
    nonempty forward interval; it evaluates fun once.  Each norm of one
    entry x is scipy's, sqrt(x * x).  A start derivative f0 whose norm is
    not finite raises FloatingPointError: scipy's first trial step would
    be 0 or nan there."""
    interval = t_bound - t0
    scale = atol + abs(y0) * rtol
    x0, x1 = y0 / scale, f0 / scale
    d0, d1 = math.sqrt(x0 * x0), math.sqrt(x1 * x1)
    if not d1 < math.inf:
        raise FloatingPointError("start derivative %g over the error scale "
                                 "%g is not finite" % (f0, scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    x2 = (f1 - f0) / scale
    d2 = math.sqrt(x2 * x2) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval, max_step)


def _event_root(event, piece: tuple, a: float, b: float) -> float:
    """Where event changes sign on the step from a to b, by bisection of
    its values on the step's interpolant down to the 4 EPS relative
    bracket of scipy's event search."""
    ga = event(a, _interpolate(piece, a))
    while True:
        m = 0.5 * (a + b)
        if abs(b - a) <= 4 * EPS * (1.0 + abs(m)):
            return m
        gm = event(m, _interpolate(piece, m))
        if gm == 0:
            return m
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m


def dop853(fun: Callable[[float, float], float],
           t_span: tuple[float, float], y0: float, rtol: float, atol: float,
           event: Callable[[float, float], float] | None = None,
           first_step: float | None = None) -> OdeResult:
    """Solve y' = fun(t, y) forward over t_span = (t0, t1), t0 < t1, by
    the Dormand-Prince 8(5,3) pair, step for step scipy's
    solve_ivp(method="DOP853", max_step=MAX_STEP * (t1 - t0)) on plain
    floats; t0 >= t1 raises ValueError.  The cap keeps every step within
    the range where the pair's error estimate holds: uncapped, on
    pendula_weak at rtol 1e-9, single steps of a quarter of the loop were
    accepted with local errors 1e3 to 1e5 times the tolerance.

    first_step, if given, bounds the first trial step: it is the smaller
    of first_step and scipy's start-step heuristic, which still runs, so
    the solve is step for step scipy's given that smaller step as its
    first_step, plus the heuristic's one evaluation.

    The state is a float, which fun returns and the event, the result and
    the dense output see, and a step is plain float arithmetic.  The event
    is terminal: the solve stops at the root of event(t, y) on the first
    step over which it changed sign (or reached zero), located on that
    step's interpolant.  A step size below ten spacings of the floats at t
    ends the solve with success False at the last accepted point.  nfev
    counts the evaluations of the steps and of the interpolant of the
    event's step, as scipy's solve_ivp does without dense output; the
    dense output makes the other steps' interpolants when first read, so
    a solve that never reads it pays nothing for it.
    """
    t, t_bound = (float(v) for v in t_span)
    if not t < t_bound:
        raise ValueError("dop853 integrates forward only: t_span %r needs "
                         "t0 < t1" % (t_span,))
    y = float(y0)
    k1 = fun(t, y)
    max_step = MAX_STEP * (t_bound - t)
    h_abs = _initial_step(fun, t, y, k1, t_bound, rtol, atol, max_step)
    if first_step is not None:
        h_abs = min(h_abs, first_step)
    nfev = 2
    sol = DenseOutput(fun, t, y)
    g = event(t, y) if event is not None else None
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C
    ((a2_1,), (a3_1, a3_2), (a4_1, a4_3), (a5_1, a5_3, a5_4),
     (a6_1, a6_4, a6_5), (a7_1, a7_4, a7_5, a7_6),
     (a8_1, a8_4, a8_5, a8_6, a8_7), (a9_1, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_1, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     (a12_1, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10,
      a12_11)) = _A
    b1, b6, b7, b8, b9, b10, b11, b12 = _B
    p1, p6, p7, p8, p9, p10, p11, p12 = _E5
    q1, q6, q7, q8, q9, q10, q11, q12 = _E3
    nsteps = 0
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(t, y, nfev, nsteps, False, False, sol)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            # the stages, y_new and scipy's error sums from the 5th- and
            # 3rd-order estimates
            k2 = fun(t + c2 * h, y + (k1 * a2_1) * h)
            k3 = fun(t + c3 * h, y + (k1 * a3_1 + k2 * a3_2) * h)
            k4 = fun(t + c4 * h, y + (k1 * a4_1 + k3 * a4_3) * h)
            k5 = fun(t + c5 * h, y + (k1 * a5_1 + k3 * a5_3 + k4 * a5_4) * h)
            k6 = fun(t + c6 * h, y + (k1 * a6_1 + k4 * a6_4 + k5 * a6_5) * h)
            k7 = fun(t + c7 * h, y + (k1 * a7_1 + k4 * a7_4 + k5 * a7_5
                                      + k6 * a7_6) * h)
            k8 = fun(t + c8 * h, y + (k1 * a8_1 + k4 * a8_4 + k5 * a8_5
                                      + k6 * a8_6 + k7 * a8_7) * h)
            k9 = fun(t + c9 * h, y + (
                k1 * a9_1 + k4 * a9_4 + k5 * a9_5 + k6 * a9_6
                + k7 * a9_7 + k8 * a9_8) * h)
            k10 = fun(t + c10 * h, y + (
                k1 * a10_1 + k4 * a10_4 + k5 * a10_5 + k6 * a10_6
                + k7 * a10_7 + k8 * a10_8 + k9 * a10_9) * h)
            k11 = fun(t + c11 * h, y + (
                k1 * a11_1 + k4 * a11_4 + k5 * a11_5 + k6 * a11_6
                + k7 * a11_7 + k8 * a11_8 + k9 * a11_9 + k10 * a11_10) * h)
            k12 = fun(t + h, y + (
                k1 * a12_1 + k4 * a12_4 + k5 * a12_5 + k6 * a12_6
                + k7 * a12_7 + k8 * a12_8 + k9 * a12_9 + k10 * a12_10
                + k11 * a12_11) * h)
            y_new = y + (k1 * b1 + k6 * b6 + k7 * b7 + k8 * b8 + k9 * b9
                         + k10 * b10 + k11 * b11 + k12 * b12) * h
            scale = atol + max(abs(y), abs(y_new)) * rtol
            a = (k1 * p1 + k6 * p6 + k7 * p7 + k8 * p8 + k9 * p9
                 + k10 * p10 + k11 * p11 + k12 * p12) / scale
            b = (k1 * q1 + k6 * q6 + k7 * q7 + k8 * q8 + k9 * q9
                 + k10 * q10 + k11 * q11 + k12 * q12) / scale
            e5, e3 = a * a, b * b
            k13 = fun(t + h, y_new)
            nfev += 12
            error_norm = (0.0 if e5 == 0 and e3 == 0 else
                          h * e5 / math.sqrt(e5 + 0.01 * e3))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** -0.125))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.125)
            rejected = True
        step = (t, h, y, y_new,
                (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13))
        t, y, k1 = t_new, y_new, k13
        nsteps += 1
        if event is not None:
            g_new = event(t, y)
            if g <= 0 <= g_new or g >= 0 >= g_new:
                piece = _interpolant(fun, *step)
                nfev += 3
                t = _event_root(event, piece, step[0], t)
                y = _interpolate(piece, t)
                sol.append(step, t, y, piece)
                return OdeResult(t, y, nfev, nsteps, True, True, sol)
            g = g_new
        sol.append(step, t, y)
    return OdeResult(t, y, nfev, nsteps, True, False, sol)
