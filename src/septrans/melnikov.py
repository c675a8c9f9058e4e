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

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .charts import TransversalityReport
from .models import PerturbationModel
from .numerics import QuadratureError, richardson_diff


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


# the most nodes one trapezoid sum may take: 80 MB per float array, and
# over 60 times the widest tested window (lam = 40 at |s| = 4, 160,001)
NODE_BUDGET = 10**7

# the most values (rows times nodes) one integrand call on a block of
# section points makes; a single row may exceed it.  The 81-point grid at
# lam 1 / 2.3 / 3.6 took 2.7 / 6.3 / 7.9 ms with 2**12, 2.2 / 3.7 / 5.2 ms
# with 2**14, 2.3 / 3.5 / 5.0 ms with 2**15 and 3.3 / 6.4 / 7.7 ms with
# 2**17 (medians of 150 interleaved runs on a 2-core host): larger blocks
# fall out of cache
BLOCK_ELEMENTS = 2**14


def _t_cut(pert: PerturbationModel, s: float) -> float:
    return (40.0 + abs(s) * pert.time_scale) / pert.decay_rate


def _half_count(t0: float, T: float, pert: PerturbationModel) -> int:
    """K = ceil(T time_scale / 0.1), the lattice nodes on each side of t0
    that cover [t0 - T, t0 + T].  Raises QuadratureError, before anything
    is allocated, above NODE_BUDGET nodes."""
    # a float count, so that an infinite or nan one fails the test too
    n = np.ceil(2.0 * T * pert.time_scale / 0.2)
    if not 2.0 * n + 1.0 <= NODE_BUDGET:
        raise QuadratureError("the trapezoid window [%.6g, %.6g] needs %.17g "
                              "nodes, above the budget of %d"
                              % (t0 - T, t0 + T, 2.0 * n + 1.0, NODE_BUDGET))
    return int(n)


def _lattice(t0: float, K: int, pert: PerturbationModel) -> np.ndarray:
    """The 2K + 1 nodes t0 + k h, |k| <= K, at the step h = 0.1 /
    time_scale that every trapezoid sum takes."""
    return t0 + (0.1 / pert.time_scale) * np.arange(-K, K + 1)


def _integrand(pert: PerturbationModel, t: np.ndarray, s):
    """pert.integrand on the 1-D nodes t at s, a float or an (M, 1) column,
    held to its contract: values of shape (M, N), or (N,) for a float s,
    or one scalar."""
    vals = pert.integrand(t, s)
    shape = np.shape(s)[:1] + t.shape
    if np.ndim(vals) and np.shape(vals) != shape:
        raise ValueError(
            "integrand(t, s) gave values of shape %s on %d nodes and s of "
            "shape %s: the contract is a 1-D t and either a float s or an "
            "(M, 1) column of s, and values of their broadcast shape %s or "
            "one scalar" % (np.shape(vals), t.size, np.shape(s), shape))
    return vals


def _trapezoid(vals, K: int, T: float,
               pert: PerturbationModel) -> tuple[float, dict]:
    """Integral over a window of half-width T by the trapezoidal rule, from
    the integrand's values vals on its 2K + 1 lattice nodes.

    The integrands are analytic in a strip about the real axis and decay
    exponentially, so the rule converges geometrically in the step
    (Trefethen and Weideman, SIAM Review 56, 2014).  The difference from
    the sum at twice the step is the quadrature error estimate.  Returns
    the value and its diagnostics t_cut = T, tail_bound and quad_error.
    """
    if np.ndim(vals) == 0:
        vals = np.full(2 * K + 1, vals, dtype=float)
    first, last = float(vals[0]), float(vals[-1])
    ends = 0.5 * (first + last)
    step = 0.1 / pert.time_scale
    fine = step * (float(vals.sum()) - ends)
    coarse = 2.0 * step * (float(vals[::2].sum()) - ends)
    tail = (abs(first) + abs(last)) / (2.0 * pert.decay_rate)
    quad_error = abs(fine - coarse)
    for what, size in (("tail bound", tail), ("quadrature error", quad_error)):
        if size > 1e-12:
            warnings.warn("%s %.3g above 1e-12" % (what, size), RuntimeWarning)
    return fine, {"t_cut": T, "tail_bound": tail, "quad_error": quad_error}


def melnikov_potential(pert: PerturbationModel,
                       q: tuple[float, float] | None = None,
                       s: float | None = None,
                       diag: dict | None = None, *,
                       values=None) -> float:
    """L at a separatrix point, given either as q = (q1, q2), which needs the
    perturbation's locate hook, or directly by the section parameter s
    (then the point is kappa(s)).

    The trapezoid window is centered at the time the loop passes through
    the point and sized so the exponential tail stays below 1e-12; the
    window, tail bound and step-halving error are recorded in diag, and a
    warning is raised if the tail or the error is above 1e-12.  values,
    with s only, are the integrand on the window's lattice nodes, as
    reduced_melnikov slices them from a block; without them the integrand
    is evaluated here, on the same nodes.
    """
    if (q is None) == (s is None):
        raise ValueError("give exactly one of q or s")
    if q is not None and pert.locate is None:
        raise ValueError("perturbation %s has no locate hook" % pert.name)
    t0, s = (0.0, s) if q is None else pert.locate(q[0], q[1])
    T = _t_cut(pert, s)
    K = _half_count(t0, T, pert)
    if values is None:
        values = _integrand(pert, _lattice(t0, K, pert), s)
    val, d = _trapezoid(values, K, T, pert)
    if diag is not None:
        diag.update(d)
    return -val


def _worst(diags: list[dict]) -> dict:
    """The worst window, tail bound and quadrature error over diags."""
    return ({k: max(d[k] for d in diags)
             for k in ("t_cut", "tail_bound", "quad_error")} if diags else {})


def reduced_melnikov(pert: PerturbationModel, s_grid) -> MelnikovResult:
    """Sample the reduced potential L~(s) = L(kappa(s)) on a grid.

    Every section point's window lies on one lattice about t = 0.  The
    integrand is called once per block of consecutive section points, on
    the block's widest window with s as a column, so its lam t half is
    computed once per block; each block holds at most BLOCK_ELEMENTS
    values, or one row.  melnikov_potential then sums each point's row,
    sliced to its own window: the same numbers as a call on that point
    alone.  The quadrature diagnostics report the worst window, tail bound
    and quadrature error over the grid.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    s_list = s_grid.tolist()
    Ks = [_half_count(0.0, _t_cut(pert, s), pert) for s in s_list]
    diags = [{} for _ in s_list]
    samples = np.empty(len(s_list))
    K = max(Ks, default=0)
    t = _lattice(0.0, K, pert)
    rows = max(1, BLOCK_ELEMENTS // t.size)
    for i in range(0, len(s_list), rows):
        Kb = max(Ks[i:i + rows])
        block = _integrand(pert, t[K - Kb:K + Kb + 1],
                           s_grid[i:i + rows, None])
        for j in range(i, min(i + rows, len(s_list))):
            row = (block if np.ndim(block) == 0 else
                   block[j - i, Kb - Ks[j]:Kb + Ks[j] + 1])
            samples[j] = melnikov_potential(pert, s=s_list[j], diag=diags[j],
                                            values=row)
    return MelnikovResult(s_grid=s_grid, L_samples=samples,
                          quadrature_diag=_worst(diags))


def melnikov_derivatives(pert: PerturbationModel,
                         diag: dict | None = None) -> tuple[float, float]:
    """(L~'(0), L~''(0)) from one integrand_s_jet call on the s = 0 nodes
    when the model has the hook, else by Richardson-extrapolated central
    differences; diag receives the worst t_cut, tail_bound and quad_error
    behind them."""
    if pert.integrand_s_jet is not None:
        T = _t_cut(pert, 0.0)
        K = _half_count(0.0, T, pert)
        (v1, d1), (v2, d2) = (
            _trapezoid(row, K, T, pert)
            for row in pert.integrand_s_jet(_lattice(0.0, K, pert), 0.0))
        derivs, diags = (-v1, -v2), [d1, d2]
    else:
        diags = []

        def Ltilde(s: float) -> float:
            diags.append({})
            return melnikov_potential(pert, s=s, diag=diags[-1])

        h = 1e-3
        derivs = (richardson_diff(Ltilde, 0.0, h, order=1),
                  richardson_diff(Ltilde, 0.0, h, order=2))
    if diag is not None:
        diag.update(_worst(diags))
    return derivs


def perturbed_loop_verdict(case: str,
                           report: TransversalityReport | None = None,
                           derivs: tuple[float, float] | None = None,
                           s_grid=None,
                           L_samples=None) -> MelnikovResult:
    """Case-A / case-B verdict for persistence of a transverse loop.

    Case A (manifolds transverse before perturbing) consumes the
    unperturbed TransversalityReport; the perturbation is regular and no
    Melnikov computation is needed.  Case B consumes derivs, the
    derivatives of the reduced potential at s = 0 (melnikov_derivatives
    gives them); a critical, nondegenerate point certifies the perturbed
    transverse loop.  If s = 0 is not critical the verdict is
    "inapplicable" and the zeros of the slope sampled on s_grid are
    reported as candidate critical parameters: a difference quotient that
    is exactly zero at its interval's midpoint, and the linear zero
    between two midpoints where the quotients change sign.
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
        raise ValueError("case B needs derivs, the reduced potential's "
                         "(L~'(0), L~''(0))")
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
            # a difference quotient is L' at its interval's midpoint when L
            # is quadratic, so the linear zero between two of them is exact
            slopes = np.diff(L) / np.diff(s_grid)
            mids = 0.5 * (s_grid[1:] + s_grid[:-1])
            candidates = []
            for i, m in enumerate(slopes):
                if m == 0.0:
                    candidates.append(float(mids[i]))
                elif i + 1 < len(slopes) and m * slopes[i + 1] < 0:
                    candidates.append(float(
                        mids[i] - m * (mids[i + 1] - mids[i])
                        / (slopes[i + 1] - m)))
            diag["critical_candidates"] = candidates
    return MelnikovResult(dL0=dL0, ddL0=ddL0, case_label="B",
                          verdict=verdict, quadrature_diag=diag)


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
