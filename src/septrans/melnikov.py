"""Melnikov potential machinery for the perturbed separatrix sheet.

When the unperturbed unstable and stable manifolds coincide in a sheet
filled by a loop family x(t, s), the first-order splitting is measured by
the Melnikov potential

    L(q) = - integral of [H*(flow through q) - H*(O)] dt over the real line,

a first integral of the unperturbed flow.  Restricting to a transverse
section, whose point kappa(s) the loop with parameter s passes at t = 0,
gives the reduced potential L~(s); a nondegenerate critical point of L~
certifies a perturbed loop along which the perturbed manifolds intersect
transversely (case B).

Each step returns its own values: reduced_melnikov the samples of L~ on a
grid and their worst quadrature diagnostics, melnikov_derivatives L~'(0)
and L~''(0), perturbed_loop_verdict the case-B verdict at s = 0 from
those two and their error bound, and critical_candidates the parameters
where the slope of any sampled L~ changes sign.  Each point's trapezoid
window, its half-width and node count, is decided once, by _window.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .models import PerturbationModel
from .numerics import QuadratureError


# the most nodes one trapezoid sum may take: 80 MB per float array, and
# over 450 times the widest tested window (lam = 40 at |s| = 40, 21,159)
NODE_BUDGET = 10**7

# the most values (rows times nodes) one integrand call on a block of
# section points makes; a single row may exceed it.  The 81-point
# `septrans melnikov` run, in process, at lam 1 / 2.3 / 3.6 took 2.36 /
# 2.81 / 3.38 ms with 2**12, 2.22 / 2.60 / 3.09 ms with 2**13, 2.27 / 2.71
# / 2.95 ms with 2**14, 2.20 / 2.91 / 3.27 ms with 2**15 and 2.28 / 3.15 /
# 3.92 ms with 2**16 (medians of 150 interleaved runs on a 2-core host):
# larger blocks fall out of cache
BLOCK_ELEMENTS = 2**14

# what a proven rule allows each trapezoid sum of its quadrature error,
# and apart from it of its tail.  pendula_weak's tail majorants are within
# a small factor of its tails, so the windows they set keep the sums at
# the rounding of potentials of size 1-10; each factor 10 costs a step
# about 5% shorter and a window 1.15 wider
TARGET = 1e-15


class _Rule(NamedTuple):
    """A proven trapezoid rule: its step, the reach of each window past
    |t0| + |s|, and per integrand (quad_error, c, r): its quadrature error
    bound, and the tail bound c exp(-r x) of a window whose ends lie x past
    |t0| + |s|."""
    step: float
    reach: float
    errors: tuple[tuple[float, float, float], ...]


def _proven_rule(bounds) -> _Rule:
    """The widest step at which each quadrature error bound 2 M / (exp(2
    pi a / h) - 1) meets TARGET, for an integrand analytic in |Im t| < a
    with M its strip integral (Trefethen and Weideman, SIAM Review 56,
    2014, Thm 5.1), and the reach at which each tail bound does.  Past
    window ends x beyond |t0| + |s|, the majorant tail exp(-rate (|t| -
    |s|)) integrates to at most tail (2 / rate) exp(-rate x) over the two
    sides, and the end nodes' half weights add at most h tail exp(-rate
    x).  A row much wider than the step's would overflow expm1; capping
    its exponent at 700 only loosens that row's bound."""
    step = min(2.0 * math.pi * b.width / math.log1p(2.0 * b.strip / TARGET)
               for b in bounds)
    errors = tuple(
        (2.0 * b.strip / math.expm1(min(2.0 * math.pi * b.width / step,
                                        700.0)),
         b.tail * (2.0 / b.rate + step), b.rate) for b in bounds)
    return _Rule(step, max(math.log(c / TARGET) / r for _, c, r in errors),
                 errors)


@functools.lru_cache(maxsize=64)
def _proven_rules(bounds) -> tuple[_Rule, _Rule]:
    """The proven rules of the integrand and of the s-jet rows, from a
    perturbation's bounds hook: computed once per perturbation."""
    b = bounds()
    if len(b) != 3:
        raise ValueError("bounds() gave %d IntegrandBounds: the contract is "
                         "three, for the integrand and each integrand_s_jet "
                         "row" % len(b))
    return _proven_rule(b[:1]), _proven_rule(b[1:])


def _rule(pert: PerturbationModel, jet: bool = False) -> _Rule:
    """The rule of pert's integrand, or of its s-jet rows."""
    return _proven_rules(pert.bounds)[jet]


def _window(s: float, rule: _Rule, t0: float = 0.0) -> tuple[float, int]:
    """The window of the point (t0, s): its half-width T, the rule's reach
    past |t0| + |s|, and K = ceil(T / step), the lattice nodes on each side
    of t0 that cover [t0 - T, t0 + T].  Raises QuadratureError, before
    anything is allocated, above NODE_BUDGET nodes."""
    T = abs(t0) + abs(s) + rule.reach
    # 2 ceil(n) + 1 <= NODE_BUDGET, as a test that an infinite or nan n
    # fails too
    n = T / rule.step
    if not n <= (NODE_BUDGET - 1) // 2:
        raise QuadratureError("the trapezoid window [%.6g, %.6g] needs %.17g "
                              "nodes, above the budget of %d"
                              % (t0 - T, t0 + T, 2.0 * np.ceil(n) + 1.0,
                                 NODE_BUDGET))
    return T, math.ceil(n)


def _lattice(t0: float, K: int, step: float) -> np.ndarray:
    """The 2K + 1 nodes t0 + k step, |k| <= K: every window of a
    perturbation's integrand lies on this lattice, and every window of its
    s-jet on its own."""
    return t0 + step * np.arange(-K, K + 1)


def _held(vals, t: np.ndarray, s, hook: str = "integrand") -> np.ndarray:
    """vals, the values of the perturbation's hook on the 1-D nodes t at s,
    a float or an (M, 1) column, held to its contract: values of shape (M,
    N), or (N,) for a float s, or one scalar, broadcast to that shape."""
    shape = np.shape(s)[:1] + t.shape
    if np.ndim(vals) and np.shape(vals) != shape:
        raise ValueError(
            "%s(t, s) gave values of shape %s on %d nodes and s of shape %s: "
            "the contract is a 1-D t and either a float s or an (M, 1) "
            "column of s, and values of their broadcast shape %s or one "
            "scalar" % (hook, np.shape(vals), t.size, np.shape(s), shape))
    return np.broadcast_to(vals, shape)


def _trapezoid(vals, T: float, rule: _Rule,
               row: int = 0) -> tuple[float, dict]:
    """Integral over the real line by the trapezoidal rule, from the
    integrand's values vals on the 2K + 1 lattice nodes of a window of
    half-width T, K read from len(vals).

    The integrands are analytic in a strip about the real axis and decay
    exponentially, so the rule converges geometrically in the step
    (Trefethen and Weideman, SIAM Review 56, 2014).  quad_error bounds the
    sum's distance from the sum over the whole lattice, and that sum's from
    the integral, and tail_bound bounds what the window leaves out; their
    sum bounds the error before rounding.  Returns the value and its
    diagnostics t_cut = T and row's tail_bound and quad_error.
    """
    # the window's ends lie K step - T + reach beyond |t0| + |s|
    K = len(vals) // 2
    quad_error, coef, rate = rule.errors[row]
    tail = coef * math.exp(-rate * (K * rule.step - T + rule.reach))
    ends = 0.5 * (float(vals[0]) + float(vals[-1]))
    return (rule.step * (float(vals.sum()) - ends),
            {"t_cut": T, "tail_bound": tail, "quad_error": quad_error})


def melnikov_potential(pert: PerturbationModel,
                       q: tuple[float, float] | None = None,
                       s: float | None = None,
                       diag: dict | None = None, *,
                       values=None) -> float:
    """L at a separatrix point, given either as q = (q1, q2), which needs the
    perturbation's locate hook, or directly by the section parameter s
    (then the point is kappa(s)).

    The trapezoid window is centered at the time t0 the loop passes
    through the point, and its step and reach come from the perturbation's
    bounds (see PerturbationModel); the window and the proven tail bound
    and quadrature error are recorded in diag.  values, the integrand on a
    lattice row centred on t0 and at least as wide as the window (as
    reduced_melnikov passes a block's row), are cut to the window here;
    without them the integrand is evaluated on the window's nodes.
    """
    if (q is None) == (s is None):
        raise ValueError("give exactly one of q or s")
    if q is not None and pert.locate is None:
        raise ValueError("perturbation %s has no locate hook" % pert.name)
    t0, s = (0.0, s) if q is None else pert.locate(q[0], q[1])
    rule = _rule(pert)
    T, K = _window(s, rule, t0)
    if values is None:
        t = _lattice(t0, K, rule.step)
        values = _held(pert.integrand(t, s), t, s)
    if (c := len(values) // 2) < K:
        raise ValueError("values has %d nodes, fewer than the window's %d"
                         % (len(values), 2 * K + 1))
    val, d = _trapezoid(values[c - K:c + K + 1], T, rule)
    if diag is not None:
        diag.update(d)
    return -val


def _worst(diags: list[dict]) -> dict:
    """The worst window, tail bound and quadrature error over diags."""
    return ({k: max(d[k] for d in diags)
             for k in ("t_cut", "tail_bound", "quad_error")} if diags else {})


def reduced_melnikov(pert: PerturbationModel,
                     s_grid) -> tuple[np.ndarray, dict]:
    """Sample the reduced potential L~(s) = L(kappa(s)) on a grid: returns
    the samples and their quadrature diagnostics.

    Every section point's window lies on one lattice about t = 0, sized
    by the grid's widest |s|.  The integrand is called once per block of
    consecutive section points, on the block's widest window with s as a
    column, so its lam t half is computed once per block; each block holds
    at most BLOCK_ELEMENTS values, or one row.  Each point's
    melnikov_potential call cuts its window from its row of the block:
    the same numbers as a call on that point alone.  The quadrature
    diagnostics report the worst window, tail bound and quadrature error
    over the grid.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    s_list = s_grid.tolist()
    rule = _rule(pert)
    diags = [{} for _ in s_list]
    samples = np.empty(len(s_list))
    K = _window(max(map(abs, s_list), default=0.0), rule)[1]
    t = _lattice(0.0, K, rule.step)
    rows = max(1, BLOCK_ELEMENTS // t.size)
    for i in range(0, len(s_list), rows):
        Kb = _window(max(map(abs, s_list[i:i + rows])), rule)[1]
        tb, sb = t[K - Kb:K + Kb + 1], s_grid[i:i + rows, None]
        block = _held(pert.integrand(tb, sb), tb, sb)
        for j, row in enumerate(block, i):
            samples[j] = melnikov_potential(pert, s=s_list[j], diag=diags[j],
                                            values=row)
    return samples, _worst(diags)


def melnikov_derivatives(pert: PerturbationModel,
                         diag: dict | None = None) -> tuple[float, float]:
    """(L~'(0), L~''(0)) from one integrand_s_jet call on the s = 0 nodes
    of the s-jet's rule.  diag receives the worst t_cut, tail_bound and
    quad_error of the two sums, and error_bound, which bounds the error of
    either derivative: the worse row's quad_error and tail_bound plus N
    eps h sum |row| for the rounding of the N values and of their sum."""
    rule = _rule(pert, jet=True)
    T, K = _window(0.0, rule)
    t = _lattice(0.0, K, rule.step)
    rows = [_held(row, t, 0.0, "integrand_s_jet")
            for row in pert.integrand_s_jet(t, 0.0)]
    (v1, d1), (v2, d2) = (_trapezoid(row, T, rule, i)
                          for i, row in enumerate(rows))
    if diag is not None:
        rounding = t.size * sys.float_info.epsilon * rule.step
        diag.update(_worst([d1, d2]), error_bound=max(
            d["quad_error"] + d["tail_bound"]
            + rounding * float(np.abs(row).sum())
            for d, row in zip((d1, d2), rows)))
    return -v1, -v2


def perturbed_loop_verdict(derivs: tuple[float, float], error: float) -> str:
    """Case-B verdict for persistence of a transverse loop when the
    unperturbed manifolds coincide: "perturbed_loop_transversal",
    "degenerate" or "inapplicable".

    It consumes derivs, the derivatives of the reduced potential at s = 0
    (melnikov_derivatives gives them), and error, a bound on the error of
    each (its diag's error_bound); a critical, nondegenerate point
    certifies the perturbed transverse loop.  s = 0 is critical where
    |L~'(0)| <= error and nondegenerate where |L~''(0)| > error; if it is
    not critical the verdict is "inapplicable".  A derivative or bound
    that is not finite raises QuadratureError.
    """
    dL0, ddL0 = derivs
    if not all(map(math.isfinite, (dL0, ddL0, error))):
        raise QuadratureError("the case-B verdict needs finite derivatives "
                              "and error bound, got L~'(0) = %r, L~''(0) = "
                              "%r, error = %r" % (dL0, ddL0, error))
    if abs(dL0) > error:
        return "inapplicable"
    return ("perturbed_loop_transversal" if abs(ddL0) > error
            else "degenerate")


def critical_candidates(s_grid, L_samples) -> list[float]:
    """Candidate critical parameters of L~ sampled as L_samples on s_grid:
    the midpoint of an interval whose difference quotient is exactly zero,
    and the linear zero between two midpoints where the quotients change
    sign."""
    s_grid = np.asarray(s_grid, dtype=float)
    L = np.asarray(L_samples, dtype=float)
    # a difference quotient is L' at its interval's midpoint when L is
    # quadratic, so the linear zero between two of them is exact
    slopes = np.diff(L) / np.diff(s_grid)
    mids = 0.5 * (s_grid[1:] + s_grid[:-1])
    candidates = []
    for i, m in enumerate(slopes):
        if m == 0.0:
            candidates.append(float(mids[i]))
        elif i + 1 < len(slopes) and m * slopes[i + 1] < 0:
            candidates.append(float(
                mids[i] - m * (mids[i + 1] - mids[i]) / (slopes[i + 1] - m)))
    return candidates


def _peak(lam: float) -> tuple[float, float]:
    """(t*, xi_max) for lam > 1, where t* > 0 solves g(t) = cosh(lam t) -
    lam cosh t = 0.  g is convex and rising on t > 0, so Newton's method
    falls monotonically to t* from a t with g >= 0, and stops at the first
    step that does not fall.  It starts at log(2 lam) / (lam - 1) if below
    1 (cosh stays finite for large lam), else at 1 doubled until g >= 0."""
    def g(t):
        return math.cosh(lam * t) - lam * math.cosh(t)

    t = min(1.0, math.log(2.0 * lam) / (lam - 1.0))
    while g(t) < 0:
        t *= 2.0
    while (new := t - g(t) / (lam * (math.sinh(lam * t) - math.sinh(t)))) < t:
        t = new
    return t, 4.0 * (math.atan(math.exp(lam * t)) - math.atan(math.exp(t)))


def xi_max(lam: float) -> float:
    """Largest phase advance of the fast pendulum over the slow one, for a
    finite lam: max over t > 0 of 4 arctan e^(lam t) - 4 arctan e^t."""
    if not math.isfinite(lam):
        raise ValueError("xi_max needs a finite lam, got %r" % lam)
    return _peak(lam)[1] if lam > 1.0 else 0.0


@functools.cache
def lambda0_threshold() -> float:
    """Frequency ratio at which the phase advance reaches pi/2; above it the
    nondegeneracy argument for the reduced potential fails.  Newton's
    method from lam = 3 with the envelope theorem's slope 2 t* / cosh(lam
    t*), which falls with lam: the iterates rise until a step does not."""
    lam = 3.0
    while True:
        t, xi = _peak(lam)
        new = lam - (xi - 0.5 * math.pi) * math.cosh(lam * t) / (2.0 * t)
        if not new > lam:
            return lam
        lam = new
