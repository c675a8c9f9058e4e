"""Small shared numerical helpers: finite differences, grid parsing and the
Dormand-Prince 5(4) integrator of the slope equations."""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

# the types of a q1 (or t) that takes a function's float path; np.float64
# is a float.  Anything else is an array, and only that path imports numpy.
SCALARS = (float, int)


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

    order=1 gives f', order=2 gives f''.  Used for derivative fallbacks in s
    where analytic integrand derivatives are not supplied.
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


def parse_grid(spec: str) -> list[float]:
    """Parse an 'a:b:n' grid spec into n evenly spaced points from a to b."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be a:b:n, got %r" % spec)
    a, b = float(parts[0]), float(parts[1])
    n = int(parts[2])
    # a finite span b - a also rules out an infinite or nan end
    if n < 2 or not (b > a and math.isfinite(b - a)):
        raise ValueError("grid spec needs finite a < b, a finite span b - a "
                         "and n >= 2, got %r" % spec)
    return [a + (b - a) * i / (n - 1) for i in range(n)]


# The Dormand-Prince 5(4) pair with Shampine's quartic dense output, with
# the tableau and step control of scipy.integrate's RK45 (Hairer, Norsett
# and Wanner, Solving ODEs I, II.4-5).  Stages 6 and 7 sit at t + h; the
# zero entries of B, E and P (all on stage 2) are left out of the sums.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
# the columns of P, each over stages 1 and 3..7
_P = ((1, 0, 0, 0, 0, 0),
      (-8048581381 / 2820520608, 131558114200 / 32700410799,
       -1754552775 / 470086768, 127303824393 / 49829197408,
       -282668133 / 205662961, 40617522 / 29380423),
      (8663915743 / 2820520608, -68118460800 / 10900136933,
       14199869525 / 1410260304, -318862633887 / 49829197408,
       2019193451 / 616988883, -110615467 / 29380423),
      (-12715105075 / 11282082432, 87487479700 / 32700410799,
       -10690763975 / 1880347072, 701980252875 / 199316789632,
       -1453857185 / 822651844, 69997945 / 29380423))
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EPS = sys.float_info.epsilon

Vector = Sequence[float]


@dataclass
class RK45Result:
    """How an rk45 solve ended: the last time and state reached (the event
    point when a terminal event stopped it), the rhs evaluations, the
    accepted steps, whether the step size stayed above its floor, the
    index of the event that fired, and the dense output if asked for."""
    t: float
    y: list[float]
    nfev: int
    nsteps: int
    success: bool
    event: int | None
    sol: DenseOutput | None


class DenseOutput:
    """The solve's piecewise quartic interpolant, one piece per accepted
    step, on the mesh ts of the step ends (scipy's OdeSolution name).  At
    a breakpoint the earlier step's piece is used, and beyond either end
    the nearest piece is extrapolated, as in scipy's OdeSolution.

    Called at a number t it returns the state as a list; at a 1-D array
    t (an ndarray or a list), an ndarray of shape (len(y0), len(t)),
    OdeSolution's layout, whose columns equal the calls at each t bit for
    bit (the same quartic in the same order of operations).  The first
    array call stacks the pieces into arrays, which later ones reuse."""

    def __init__(self, t0: float, y0: list[float]):
        self.y0 = y0
        self.ts = [t0]
        self.pieces: list[tuple] = []
        self._stacked: tuple | None = None

    def append(self, piece: tuple, t_end: float) -> None:
        self.pieces.append(piece)
        self.ts.append(t_end)
        self._stacked = None

    def __call__(self, t):
        if not isinstance(t, SCALARS):
            return self._at_array(t)
        if not self.pieces:
            return list(self.y0)
        i = bisect_left(self.ts, t) - 1
        return _quartic(self.pieces[min(max(i, 0), len(self.pieces) - 1)], t)

    def _at_array(self, s):
        import numpy as np
        s = np.asarray(s, dtype=float)
        if not self.pieces:
            return np.repeat(np.array(self.y0, dtype=float)[:, None], len(s),
                             axis=1)
        # the pieces stacked: the mesh, then each piece's start, size,
        # y (components, pieces) and Q's four coefficients of that shape
        if self._stacked is None:
            t, h, y, Q = zip(*self.pieces)
            self._stacked = (np.array(self.ts), np.array(t), np.array(h),
                             np.array(y).T, np.array(Q).transpose(2, 1, 0))
        ts, t, h, y, Q = self._stacked
        i = np.clip(np.searchsorted(ts, s, side="left") - 1, 0, len(t) - 1)
        h = h[i]
        # _quartic on every point
        q1, q2, q3, q4 = Q[:, :, i]
        x = (s - t[i]) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return y[:, i] + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)


def _rms(v: list[float]) -> float:
    s = 0.0
    for x in v:
        s += x * x
    return math.sqrt(s) / len(v) ** 0.5


def _piece(t: float, h: float, y: list[float], K: tuple) -> tuple:
    """The quartic on the step from (t, y) of size h with stages K: per
    component the coefficients of x, x^2, x^3, x^4, x = (s - t)/h."""
    Q = [tuple(k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7
               for p1, p3, p4, p5, p6, p7 in _P)
         for k1, _k2, k3, k4, k5, k6, k7 in zip(*K)]
    return t, h, y, Q


def _quartic(piece: tuple, s: float) -> list[float]:
    t, h, y, Q = piece
    x = (s - t) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return [yi + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
            for yi, (q1, q2, q3, q4) in zip(y, Q)]


def _initial_step(fun, t0: float, y0: list[float], f0: Vector,
                  t_bound: float, rtol: float, atol: float) -> float:
    """scipy's select_initial_step for an error estimate of order 4, on a
    nonempty forward interval; it evaluates fun once."""
    interval = t_bound - t0
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _event_root(event, piece: tuple, a: float, b: float) -> float:
    """Where event changes sign on the step from a to b, by bisection of
    its values on the step's quartic down to the 4 EPS relative bracket of
    scipy's event search."""
    ga = event(a, _quartic(piece, a))
    while True:
        m = 0.5 * (a + b)
        if abs(b - a) <= 4 * EPS * (1.0 + abs(m)):
            return m
        gm = event(m, _quartic(piece, m))
        if gm == 0:
            return m
        if (gm > 0) == (ga > 0):
            a, ga = m, gm
        else:
            b = m


def rk45(fun: Callable[[float, list[float]], Vector],
         t_span: tuple[float, float], y0: Vector, rtol: float, atol: float,
         events: Sequence[Callable[[float, list[float]], float]] = (),
         dense_output: bool = False) -> RK45Result:
    """Solve y' = fun(t, y) forward over t_span = (t0, t1), t0 < t1, by the
    Dormand-Prince 5(4) pair, step for step scipy's
    solve_ivp(method="RK45") on plain floats; t0 >= t1 raises ValueError.

    fun takes a list of floats and returns a sequence of as many.  Every
    event is terminal: the solve stops at the first root of any event(t, y)
    that changed sign (or reached zero) over a step, located on that
    step's quartic.  A step size below ten spacings of the floats at t
    ends the solve with success False at the last accepted point.
    """
    t, t_bound = (float(v) for v in t_span)
    if not t < t_bound:
        raise ValueError("rk45 integrates forward only: t_span %r needs "
                         "t0 < t1" % (t_span,))
    y = [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    sol = DenseOutput(t, y) if dense_output else None
    g = [event(t, y) for event in events]
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65)) = _A
    c2, c3, c4, c5 = _C
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    nsteps = 0
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return RK45Result(t, y, nfev, nsteps, False, None, sol)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k1 = f
            k2 = fun(t + c2 * h, [yi + p * a21 * h
                                  for yi, p in zip(y, k1)])
            k3 = fun(t + c3 * h, [yi + (p * a31 + q * a32) * h
                                  for yi, p, q in zip(y, k1, k2)])
            k4 = fun(t + c4 * h, [yi + (p * a41 + q * a42 + r * a43) * h
                                  for yi, p, q, r in zip(y, k1, k2, k3)])
            k5 = fun(t + c5 * h,
                     [yi + (p * a51 + q * a52 + r * a53 + s * a54) * h
                      for yi, p, q, r, s in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h,
                     [yi + (p * a61 + q * a62 + r * a63 + s * a64
                            + u * a65) * h
                      for yi, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
            y_new = [yi + h * (p * b1 + r * b3 + s * b4 + u * b5 + v * b6)
                     for yi, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            nfev += 6
            error_norm = _rms([
                (p * e1 + r * e3 + s * e4 + u * e5 + v * e6 + w * e7) * h
                / (atol + max(abs(yi), abs(zi)) * rtol)
                for yi, zi, p, r, s, u, v, w
                in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** -0.2))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        K = (k1, k2, k3, k4, k5, k6, k7)
        piece = _piece(t, h, y, K) if dense_output else None
        t_old, y_old = t, y
        t, y, f = t_new, y_new, k7
        nsteps += 1
        g_new = [event(t, y) for event in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new))
                  if a <= 0 <= b or a >= 0 >= b]
        if active:
            if piece is None:
                piece = _piece(t_old, h, y_old, K)
            roots = {i: _event_root(events[i], piece, t_old, t)
                     for i in active}
            first = min(active, key=roots.__getitem__)
            t = roots[first]
            y = _quartic(piece, t)
        if sol is not None:
            sol.append(piece, t)
        if active:
            return RK45Result(t, y, nfev, nsteps, True, first, sol)
        g = g_new
    return RK45Result(t, y, nfev, nsteps, True, None, sol)
