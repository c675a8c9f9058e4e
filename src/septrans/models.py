"""Hamiltonian data model as transverse expansions along the loop line q2 = 0.

A model H = (1/2)<B(q)p, p> + V(q) near a hyperbolic equilibrium at the
origin is described by second-order jets in q2 along the loop line:

    B(q)  = B0(q1) + (1/2) B2(q1) q2^2        (no order-1 term)
    V(q)  = V0(q1) + V1(q1) q2 - (1/2) Y(q1) q2^2

with B0 = [[b110, b120], [b120, b220]] and B2 = [[b112, b122], [b122, b222]].
The sign convention puts Y positive when the potential curves downward in q2.

A model is evaluated through one function, its jet: jet(q1) returns the
nine coefficients together with S1' (the derivative of the loop's p2
profile) and b220', the two derivatives the Riccati solver and its oracle
need, as a plain 11-tuple in CoefficientJet's field order; the slope
solve unpacks it at every step, and a reader that wants names wraps it,
CoefficientJet(*jet(q1)).  The nine coefficient fields are views of the
jet.  The saddle checks also read V0'(0), V1'(0) and V0''(0), which a
model carries as its saddle.

q1 is a number (a float, an int or a numpy float), and the jet returns
floats: the slope solve steps one point at a time, and a grid known in
advance, such as validate_hypotheses' 257 points, is a call per point.
The built-in jets call math alone, so numpy loads only for the Melnikov
integrals (a perturbation's integrand hooks) and the linearization at the
saddle (septrans.equilibrium).

Three built-in models are provided: a geodesic-flow model on the sphere with
a quadratic potential ("neumann"), two identical coupled pendula
("pendula_identical"), and two pendula with different frequencies coupled
weakly ("pendula_weak", which also carries a PerturbationModel).  Each
declares its matching point q1* and the chart transition through which the
stable slope reaches the unstable chart there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .numerics import central_diff, second_diff

if TYPE_CHECKING:
    import numpy as np

ScalarFn = Callable[[float], float]

COEFF_NAMES = ("b110", "b120", "b220", "b112", "b122", "b222", "V0", "V1", "Y")


class CoefficientJet(NamedTuple):
    """The nine coefficients at q1, then S1' and b220' there.  It names
    the order of a jet's plain tuple, which a jet returns since building
    this class costs several times a tuple's price on every slope-equation
    step."""
    b110: float
    b120: float
    b220: float
    b112: float
    b122: float
    b222: float
    V0: float
    V1: float
    Y: float
    dS1: float
    db220: float


class JetView:
    """One entry of a fused evaluation as a function: q1 -> jet(q1)[index]."""
    __slots__ = ("jet", "index")

    def __init__(self, jet: Callable[[float], tuple], index: int):
        self.jet = jet
        self.index = index

    def __call__(self, q1: float) -> float:
        return self.jet(q1)[self.index]


def loop_momenta(b110: float, b120: float, b220: float,
                 V0: float) -> tuple[float, float, float]:
    """(beta, dS0, S1) of the zero-energy orbit on q2 = 0 from the
    coefficients at one point (see septrans.loops).

    beta = det B0 / b220, dS0 = sqrt(-2 V0 / beta), S1 = -(b120 / b220) dS0.
    dS0 and S1 are nan where -2 V0 / beta < 0, where no loop passes.
    """
    beta = (b110 * b220 - b120 * b120) / b220
    rad = -2.0 * V0 / beta
    if rad < 0.0:
        if rad <= -1e-14:
            return beta, math.nan, math.nan
        rad = 0.0
    ds0 = math.sqrt(rad)
    return beta, ds0, -(b120 / b220) * ds0


def restriction_holds(ds1_q1dot: float, v1: float) -> bool:
    """Whether the loop restriction dS1 q1dot + V1 = 0 holds at one point,
    to 1e-6 max(1, |dS1 q1dot| + |V1|), the size of its two terms; a nan
    fails.  The slope solve and validate_hypotheses both judge by it."""
    r = abs(ds1_q1dot + v1)
    return r <= 1e-6 or r <= 1e-6 * (abs(ds1_q1dot) + abs(v1))


class HypothesesError(ValueError):
    """The model breaks a hypothesis of the verdict: no hyperbolic saddle,
    no loop on q2 = 0 (or a V1 inconsistent with it), no real start slope,
    or no reversibility to carry the stable slope across."""


class ConstructionError(ValueError):
    """Built-in model parameters violate their admissibility constraints."""


@dataclass(frozen=True)
class Jet2:
    """Partial derivatives of the transition chi at (q1, 0)."""
    dchi1_dq2: float
    dchi2_dq2: float
    d2chi1_dq22: float
    d2chi2_dq22: float


@dataclass(frozen=True)
class ChartTransition:
    """A chart transition chi that maps the loop line q2 = 0 to itself, by
    what the verdict reads of it: chi0(q1), the first component of chi(q1,
    0), and jet2(q1), its q2-derivatives there."""
    chi0: Callable[[float], float]
    jet2: Callable[[float], Jet2]


def torus_shift_transition() -> ChartTransition:
    """chi(q) = (q1 - 2pi, q2): the deck transformation of the torus cover."""
    return ChartTransition(
        chi0=lambda q1: q1 - 2.0 * math.pi,
        jet2=lambda q1: Jet2(0.0, 1.0, 0.0, 0.0))


def inversion_transition() -> ChartTransition:
    """The sphere model's second chart: chi(q) = 4 q / |q|^2."""
    return ChartTransition(
        chi0=lambda q1: 4.0 / q1,
        jet2=lambda q1: Jet2(
            dchi1_dq2=0.0,
            dchi2_dq2=4.0 / (q1 * q1),
            d2chi1_dq22=-8.0 / q1 ** 3,
            d2chi2_dq22=0.0))


@dataclass(frozen=True)
class HamiltonianModel:
    """Transverse 2nd-order jets of B(q) and V(q) along q2 = 0, plus metadata.

    jet is the model's one evaluation (see CoefficientJet), and saddle is
    (V0'(0), V1'(0), V0''(0)); from_jet makes the nine fields views of the
    jet.  A model whose fields are not views of its jet (given by its
    fields, or after dataclasses.replace of a field) gets a jet assembled
    from its fields and no saddle, so S1', b220' and the saddle numbers
    come from finite differences.  A saddle with plain fields and no jet
    raises ValueError.

    matching is (q1*, transition): the point on the loop line where the
    verdict compares the slopes, and the chart transition that carries the
    stable generating function into the unstable chart there.
    perturbation is the model's first-order perturbation, if it has one.
    """
    b110: ScalarFn
    b120: ScalarFn
    b220: ScalarFn
    b112: ScalarFn
    b122: ScalarFn
    b222: ScalarFn
    V0: ScalarFn
    V1: ScalarFn
    Y: ScalarFn
    domain: tuple[float, float]
    periodic: bool = False
    reversibility: tuple[int, int] | None = None
    saddle: tuple[float, float, float] | None = None
    name: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)
    matching: tuple[float, ChartTransition] | None = None
    perturbation: PerturbationModel | None = None
    jet: Callable[[float], tuple] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.jet is not None and all(
                isinstance(f, JetView) and f.jet is self.jet and f.index == i
                for i, f in enumerate(getattr(self, c) for c in COEFF_NAMES)):
            return
        if self.jet is None and self.saddle is not None:
            raise ValueError("saddle given without a jet; use from_jet")
        object.__setattr__(self, "jet", _assembled_jet(self))
        object.__setattr__(self, "saddle", None)

    @classmethod
    def from_jet(cls, jet: Callable[[float], tuple],
                 saddle: tuple[float, float, float] | None, **kwargs):
        """A model whose nine fields are views of jet (see the module
        docstring)."""
        return cls(**{c: JetView(jet, i) for i, c in enumerate(COEFF_NAMES)},
                   saddle=saddle, jet=jet, **kwargs)

    def derivative(self, cname: str, q1: float) -> float:
        """First derivative of a coefficient field by central differences."""
        return central_diff(getattr(self, cname), q1)


def _assembled_jet(model: HamiltonianModel) -> Callable[[float], tuple]:
    """The jet of a model given by its fields: each field is called once per
    point, and S1' and b220' come by fourth-order differences.  S1' takes
    one step, 1e-4 of the domain, which outgrows the cancellation of fields
    such as cos(q1) - 1 near the saddle: a central stencil where it fits in
    the domain, else a one-sided stencil inside it, since S1 behaves like
    |q1 - a| at an end a where V0 vanishes."""
    fields = tuple(getattr(model, c) for c in COEFF_NAMES)
    a, b = model.domain

    def s1(q1):
        return loop_momenta(model.b110(q1), model.b120(q1),
                            model.b220(q1), model.V0(q1))[2]

    def ds1(q1):
        s = 1e-4 * (b - a)
        if a + 2 * s <= q1 <= b - 2 * s:
            return central_diff(s1, q1, s)
        if q1 > b - 2 * s:
            s = -s
        return (-25 * s1(q1) + 48 * s1(q1 + s) - 36 * s1(q1 + 2 * s)
                + 16 * s1(q1 + 3 * s) - 3 * s1(q1 + 4 * s)) / (12 * s)

    def jet(q1: float) -> tuple:
        return (*[f(q1) for f in fields], ds1(q1),
                model.derivative("b220", q1))

    return jet


class IntegrandBound(NamedTuple):
    """What a perturbation proves of one Melnikov integrand f(t, s), for
    every s: f is analytic in the strip |Im t| < width, where the integral
    over x of |f(x + iy)| is at most strip for each |y| < width; and on the
    real axis |f(t)| <= tail exp(-rate (|t| - |s|)) wherever |t| >= |s|."""
    width: float
    strip: float
    tail: float
    rate: float


@dataclass(frozen=True)
class PerturbationModel:
    """First-order perturbation H* on the unperturbed loop family, given by
    its Melnikov integrand.

    integrand(t, s) is H*(x(t, s)) - H*(O) along the loop x(t, s) with
    section parameter s, the loop that passes the section point kappa(s)
    at t = 0 (kappa(0) = (pi, 0)): the one evaluation of the perturbation
    that the Melnikov integrals make.  Its contract is a float or 1-D
    ndarray t of N nodes, and either a float s or an (M, 1) column of M
    section parameters that broadcasts against t; it returns values of
    their broadcast shape, (N,) or (M, N), with row i at s[i], or one
    scalar if they are all equal.  melnikov evaluates a block of section
    points in one call and raises ValueError on any other shape.
    integrand_s_jet(t, s) returns the integrand's first and second
    s-derivatives on an ndarray t, from one evaluation.  bounds() returns
    the three IntegrandBounds of the integrand and of the two
    integrand_s_jet rows, in that order; melnikov derives its trapezoid
    step and windows from them, once per perturbation, and reports proven
    error bounds.  The optional locate(q1, q2) returns (t0, s), the time
    and section parameter of the loop through a separatrix point.
    """
    # required (see __post_init__); the None defaults keep a class
    # attribute PerturbationModel.integrand, which bench/tracing.py
    # replaces while it traces
    integrand: Callable[[np.ndarray, float | np.ndarray],
                        np.ndarray] | None = None
    integrand_s_jet: Callable[[np.ndarray, float], tuple] | None = None
    locate: Callable[[float, float], tuple[float, float]] | None = None
    bounds: Callable[[], tuple[IntegrandBound, ...]] | None = None
    name: str = "custom"

    def __post_init__(self):
        for hook in ("integrand", "integrand_s_jet", "bounds"):
            if getattr(self, hook) is None:
                raise TypeError("PerturbationModel needs %s" % hook)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""
    worst: float = 0.0


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]


def saddle_numbers(model: HamiltonianModel) -> tuple[float, float, float]:
    """(V0'(0), V1'(0), V0''(0)): the model's saddle, or finite differences
    of its fields when it has none."""
    return model.saddle or (central_diff(model.V0, 0.0),
                            central_diff(model.V1, 0.0),
                            second_diff(model.V0, 0.0))


def hessian_at_origin(model: HamiltonianModel) -> tuple[float, float, float]:
    """Entries (a11, a12, a22) of A = -D^2 V(0,0) in loop-line coordinates."""
    _dv0, dv1, ddv0 = saddle_numbers(model)
    return -ddv0, -dv1, CoefficientJet(*model.jet(0.0)).Y


def _keep_nan(pick: Callable, values: Sequence[float],
              default: float) -> float:
    """pick (min or max) of values, or nan if one is nan, as numpy's min and
    max: the builtins keep or drop a nan by where it sits."""
    if any(map(math.isnan, values)):
        return math.nan
    return float(pick(values, default=default))


def validate_hypotheses(model: HamiltonianModel) -> ValidationReport:
    """Spot-check the structural hypotheses on a sample grid.

    Checks: kinetic matrix B0 positive definite on the grid; V has a
    nondegenerate maximum at the origin (V0(0)=0, V0'(0)=0, V1(0)=0, and
    A = -D^2 V(0,0) positive definite); V0 < 0 on the open interior (so the
    zero-energy loop exists on q2=0); 2pi-periodicity of all coefficients
    when flagged; the loop restriction dS1 beta dS0 + V1 = 0 on the whole
    domain, endpoints included, to 1e-6 of the size of its two terms (the
    slope solve checks it only where it evaluates).  The absence of an
    order-1 kinetic term is structural.  A nan at a grid point fails the
    check that reads it, with worst nan.
    """
    entries: list[CheckEntry] = []
    a, b = model.domain
    grid = [a + (b - a) * i / 256 for i in range(257)]
    jets = [model.jet(q1) for q1 in grid]
    b110, b120, b220, _b112, _b122, _b222, v0, v1, _y, ds1, _db220 = zip(*jets)

    worst_b11 = _keep_nan(min, b110, math.inf)
    worst_det = _keep_nan(min, [x * z - y * y for x, y, z
                                in zip(b110, b120, b220)], math.inf)
    ok = worst_b11 > 0 and worst_det > 0
    entries.append(CheckEntry(
        "kinetic_positive_definite", ok,
        "min b110=%.3g, min det B0=%.3g on %d-point grid"
        % (worst_b11, worst_det, len(grid)), min(worst_b11, worst_det)))

    c0 = CoefficientJet(*model.jet(0.0))
    v00, dv00, v10 = c0.V0, saddle_numbers(model)[0], c0.V1
    ok = abs(v00) < 1e-10 and abs(dv00) < 1e-8 and abs(v10) < 1e-10
    entries.append(CheckEntry(
        "critical_point_at_origin", ok,
        "V0(0)=%.2e, V0'(0)=%.2e, V1(0)=%.2e" % (v00, dv00, v10),
        max(abs(v00), abs(dv00), abs(v10))))

    a11, a12, a22 = hessian_at_origin(model)
    det_a = a11 * a22 - a12 * a12
    ok = a11 > 0 and det_a > 0
    entries.append(CheckEntry(
        "potential_maximum_nondegenerate", ok,
        "A=[[%.6g, %.6g],[%.6g, %.6g]], det=%.6g" % (a11, a12, a12, a22, det_a),
        min(a11, det_a)))

    # interior excludes a margin near the endpoints where V0 vanishes
    margin = 1e-3 * (b - a)
    lo, hi = a + margin, (b - margin if model.periodic else b)
    worst_v0 = _keep_nan(max, [v for q1, v in zip(grid, v0) if lo < q1 < hi],
                         -math.inf)
    entries.append(CheckEntry(
        "potential_negative_on_interior", worst_v0 < 0,
        "max interior V0=%.3g" % worst_v0, worst_v0))

    if model.periodic:
        n = len(COEFF_NAMES)
        worst = _keep_nan(max, [
            abs(x - y) for q1, c in zip(grid[::3], jets[::3])
            for x, y in zip(model.jet(q1 + 2 * math.pi)[:n], c[:n])], 0.0)
        entries.append(CheckEntry(
            "coefficients_2pi_periodic", worst < 1e-10,
            "max |f(q1+2pi)-f(q1)|=%.2e" % worst, worst))

    entries.append(CheckEntry(
        "no_first_order_kinetic_term", True, "structural: B1 fields do not exist"))

    # nan where no loop passes, which fails the check too
    residuals, ok = [], True
    for x, y, z, v, w, d in zip(b110, b120, b220, v0, v1, ds1):
        try:
            beta, ds0, _s1 = loop_momenta(x, y, z, v)
            ds1_q1dot = d * beta * ds0
        except ZeroDivisionError:   # beta or b220 is 0: nan, which fails
            ds1_q1dot = math.nan
        residuals.append(abs(ds1_q1dot + w))
        ok = ok and restriction_holds(ds1_q1dot, w)
    worst = _keep_nan(max, residuals, 0.0)
    entries.append(CheckEntry(
        "loop_restriction_residual", ok,
        "max residual %.3g on %d-point grid" % (worst, len(grid)), worst))

    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# built-in models


def _neumann(lambda1: float, lambda2: float) -> HamiltonianModel:
    if not (0 < lambda1 < lambda2):
        raise ConstructionError("neumann requires 0 < lambda1 < lambda2")
    l1s, l2s = lambda1 * lambda1, lambda2 * lambda2

    # squares as a * a, where a ** 2 on a float would be libm's pow
    def jet(q1):
        a = 4.0 + q1 * q1
        a2 = a * a
        b11 = a2 / 16.0
        b12 = a / 4.0
        return (
            b11, 0.0, b11,                                  # b110 b120 b220
            b12, 0.0, b12,                                  # b112 b122 b222
            -8.0 * l1s * q1 * q1 / a2,                      # V0
            0.0,                                            # V1
            16.0 / a2 * (l2s - 2.0 * l1s * q1 * q1 / a),    # Y
            0.0, q1 * a / 4.0)                              # S1' b220'

    # V0' = -16 l1^2 q1 (4 - q1^2) / A^3 is -0.0 at 0, and V0''(0) = -l1^2
    return HamiltonianModel.from_jet(
        jet, (-0.0, 0.0, -l1s),
        domain=(0.0, 8.0), periodic=False, reversibility=(1, 1),
        name="neumann", params={"lambda1": lambda1, "lambda2": lambda2},
        matching=(2.0, inversion_transition()))


def _cosine_poly(coeffs: Sequence[float]) -> Callable:
    """f(q1) = sum of c_k cos(k q1).  A zero c_k, which adds nothing, costs
    no cos."""
    terms = tuple((k, c) for k, c in enumerate(map(float, coeffs)) if c)

    def f(q1):
        total = 0
        for k, c in terms:
            total += c * math.cos(k * q1)
        return total

    return f


def _pendula_identical(f_coeffs: Sequence[float],
                       strict: bool = True) -> HamiltonianModel:
    f_coeffs = list(f_coeffs) or [0.0]
    f = _cosine_poly(f_coeffs)
    f0 = f(0.0)
    if strict and not (0.0 <= f0 < 0.5):
        raise ConstructionError(
            "pendula_identical requires 0 <= f(0) < 1/2, got f(0)=%g" % f0)

    def jet(q1):
        # V0 = 2 (cos q1 - 1) as -4 sin^2(q1/2), which does not cancel
        # near the saddle
        sin_half = math.sin(q1 / 2.0)
        return (
            1.0, -1.0, 2.0,                                 # b110 b120 b220
            0.0, 0.0, 0.0,                                  # b112 b122 b222
            -4.0 * sin_half * sin_half,                     # V0
            -math.sin(q1),                                  # V1
            math.cos(q1) - f(q1),                           # Y
            math.cos(q1 / 2.0), 0.0)                        # S1' b220'

    # V0' = -2 sin q1, V1' = -cos q1 and V0'' = -2 cos q1 at 0
    return HamiltonianModel.from_jet(
        jet, (-0.0, -1.0, -2.0),
        domain=(0.0, 2.0 * math.pi), periodic=True, reversibility=(-1, -1),
        name="pendula_identical",
        params={"f%d" % k: float(c) for k, c in enumerate(f_coeffs)},
        matching=(math.pi, torus_shift_transition()))


def _weak_h(lam: float):
    """The coupling profile h of the weak-pendula model: (h, h_slope).

    On the half cell [0, pi], h = 4 atan(u) with u = t^lam and t =
    tan(q1/4); h(2pi - r) = 2pi - h(r) and h(q1 + 2pi) = h(q1) + 2pi extend
    it to the whole line.  Writing q1 = 2pi n + r with r in [0, 2pi), the
    half cell's t and u are taken at the distance d = min(r, 2pi - r) to
    the nearest multiple of 2pi, where h' = lam t^(lam-1) (1+t^2) / (1+u^2)
    is even in d, so every term of h in the slope jet is a rational
    function of t and u, without cancellation near the saddle.

    h(q1) is h itself, for H* and the location of loop points;
    h_slope(q1) = (h', n, r, t, u, v) is h' with the terms it is built
    from, v = t^(lam-1).
    """
    two_pi = 2.0 * math.pi

    def h_slope(q1):
        n = math.floor(q1 / two_pi)
        r = q1 - n * two_pi
        # d = min(r, 2pi - r), since pi - |r - pi| loses the digits of a
        # small d; its absolute value, since within an ulp or so of a
        # multiple of 2pi, r rounds below 0 or above 2pi
        t = math.tan(abs(min(r, two_pi - r)) / 4.0)
        v = t ** (lam - 1.0)
        u = v * t
        return lam * v * (1.0 + t * t) / (1.0 + u * u), n, r, t, u, v

    def h(q1):
        _h1, n, r, _t, u, _v = h_slope(q1)
        hb = 4.0 * math.atan(u)
        return (hb if r <= math.pi else two_pi - hb) + n * two_pi

    return h, h_slope


def _pendula_weak(lam: float) -> HamiltonianModel:
    if lam < 1.0:
        raise ConstructionError("pendula_weak requires lambda >= 1")
    lsq = lam * lam
    h, h_slope = _weak_h(lam)
    # h'' at the saddle itself, t = 0, where its formula is 0 / 0: the
    # limit, 1/2 at lam = 2 and 0 for lam = 1 or lam > 2; for 1 < lam < 2
    # h'' is unbounded there
    h2_saddle = 0.5 if lam == 2.0 else math.nan if 1.0 < lam < 2.0 else 0.0

    def jet(q1):
        h1, n, r, t, u, v = h_slope(q1)
        g, uu = 1.0 + t * t, u * u
        w = 1.0 + uu
        # sin(h/2) and cos(h/2) on the half cell; sigma is +1 on r <= pi,
        # else -1: h'' and sin h are odd under the reflection
        sin_h2, cos_h2 = 2.0 * u / w, (1.0 - uu) / w
        sin_half = math.sin(q1 / 2.0)
        sigma = 1.0 - 2.0 * (r > math.pi)
        # h'' on the half cell off the saddle, t^(lam-2) = v / t
        h2 = (lam * g / 4.0 * (v / t) / w
              * ((lam - 1.0) * g + 2.0 * t * t - 2.0 * lam * g * uu / w)
              if t else h2_saddle)
        return (
            1.0, -h1, 1.0 + h1 * h1,                        # b110 b120 b220
            0.0, 0.0, 0.0,                                  # b112 b122 b222
            # V0 = cos q1 - 1 - lam^2 (1 - cos h), each term as a square
            -2.0 * sin_half * sin_half - 2.0 * lsq * sin_h2 * sin_h2,
            -2.0 * lsq * sigma * sin_h2 * cos_h2,           # V1
            lsq * (1.0 - 2.0 * sin_h2 * sin_h2),            # Y
            # S1' = lam h' cos(h/2), whose sign flips from cell to cell
            lam * h1 * (1.0 - 2.0 * (n % 2)) * sigma * cos_h2,
            2.0 * h1 * sigma * h2)                          # b220'

    # on the loops h(q1) - q1 + q2 = xi(lam t) - xi(t - s) with xi(u) = 4
    # atan(e^u) = pi + 2 gd(u), so H* = 1 - cos(h(q1) - q1 + q2) is 2 g^2,
    # g = sin(gd(lam t) - gd(t - s)) = A b - B a, A, B = tanh, sech of
    # lam t and a, b of t - s
    def tanh_sech(t, s: float):
        # A, B of lam t, and a, b of u = t - s in two arrays of their own
        # (0-d at a float t and s), which integrand overwrites; sech is 1 /
        # inf = 0 far out, so the callers ignore overflow
        import numpy as np
        lt = lam * t
        u = np.asarray(t - s, dtype=float)
        a = np.tanh(u, out=np.empty_like(u))
        b = np.divide(1.0, np.cosh(u, out=u), out=u)
        return np.tanh(lt), 1.0 / np.cosh(lt), a, b

    def integrand(t, s: float):
        # g = A b - B a in b, 2 g in a, and 2 g^2, a square, which does
        # not cancel in the tails: three arrays of the broadcast shape
        import numpy as np
        with np.errstate(over="ignore"):
            A, B, a, b = tanh_sech(t, s)
            g = np.subtract(np.multiply(A, b, out=b),
                            np.multiply(B, a, out=a), out=b)
            return np.multiply(2.0, g, out=a) * g

    def integrand_s_jet(t, s: float):
        # d/ds of a and b are -b^2 and a b
        import numpy as np
        with np.errstate(over="ignore"):
            A, B, a, b = tanh_sech(t, s)
            g = A * b - B * a
            g_s = b * (A * a + B * b)
            g_ss = 2.0 * B * a * b * b - A * b * (b * b - a * a)
            return 4.0 * g * g_s, 4.0 * (g_s * g_s + g * g_ss)

    def locate(q1: float, q2: float):
        if not (0.0 < q1 < 2.0 * math.pi):
            raise ValueError("loop point needs q1 in (0, 2pi)")
        u = math.log(math.tan(q1 / 4.0))
        xi2 = q2 + h(q1)
        if not (0.0 < xi2 < 2.0 * math.pi):
            raise ValueError("point not on the separatrix sheet")
        t0 = math.log(math.tan(xi2 / 4.0)) / lam
        return (t0, t0 - u)

    def bounds():
        # on Im t = y, |tanh(x + iy)| <= 1 / cos y and |sech(x + iy)| <=
        # sech x / cos y.  With P = 1 / cos(lam y), Q = 1 / cos y, sig =
        # sech(x - s) and tau = sech(lam x) that gives |g| <= P Q (sig +
        # tau), |g_s| <= 2 P Q^2 sig and |g_ss| <= 4 P Q^3 sig, and the
        # x-integrals of sig^2, tau^2 and sig tau are at most 2, 2 / lam
        # and pi / lam.  The poles nearest the real axis are those of lam t
        # at +-i pi / (2 lam); the strip goes 93% of the way, near the
        # widest step for every lam.  On the real axis (P = Q = 1) sig and
        # tau are at most 2 exp(-(|t| - |s|)) wherever |t| >= |s|, so the
        # three majorants are at most 32, 64 and 192 exp(-2 (|t| - |s|))
        # halved before the division: 2 lam overflows above 9e307
        width = 0.93 * math.pi / 2.0 / lam
        pp = 1.0 / math.cos(lam * width) ** 2
        q = 1.0 / math.cos(width)
        return (
            IntegrandBound(width, 2.0 * pp * q * q
                           * (2.0 + (2.0 + 2.0 * math.pi) / lam), 32.0, 2.0),
            IntegrandBound(width, 8.0 * pp * q ** 3 * (2.0 + math.pi / lam),
                           64.0, 2.0),
            IntegrandBound(width, 16.0 * pp * q ** 4 * (4.0 + math.pi / lam),
                           192.0, 2.0))

    pert = PerturbationModel(
        integrand=integrand, integrand_s_jet=integrand_s_jet, locate=locate,
        bounds=bounds, name="pendula_weak")
    # V0' = -sin q1 - lam^2 h' sin h, V1' = -lam^2 h' cos h, V0'' = -cos q1
    # - lam^2 (h'' sin h + h'^2 cos h) at 0, where h = h'' sin h = 0
    h1 = -CoefficientJet(*jet(0.0)).b120    # h'(0): 1 at lam = 1, else 0
    return HamiltonianModel.from_jet(
        jet, (-0.0, -lsq * h1, -1.0 - lsq * h1 * h1),
        domain=(0.0, 2.0 * math.pi), periodic=True, reversibility=(-1, -1),
        name="pendula_weak", params={"lam": lam},
        matching=(math.pi, torus_shift_transition()), perturbation=pert)


# each built-in's constructor and parameter names; pendula_identical's are
# None, as it takes any number of cosine coefficients f0, f1, ... of its
# coupling
BUILTINS = {"neumann": (_neumann, ("lambda1", "lambda2")),
            "pendula_identical": (_pendula_identical, None),
            "pendula_weak": (_pendula_weak, ("lam",))}
BUILTIN_NAMES = tuple(BUILTINS)


def builtin_model(name: str, params: Sequence[float],
                  strict: bool = True) -> HamiltonianModel:
    """Construct a built-in model by name.

    neumann: params (lambda1, lambda2) with 0 < lambda1 < lambda2.
    pendula_identical: params are cosine coefficients of the coupling f.
    pendula_weak: params (lam,) with lam >= 1; the model carries its
    perturbation (None for the other built-ins).

    strict=False skips the admissibility bound on f(0) so a model that
    violates the saddle hypothesis can still be constructed and reported on
    by the hypothesis validator.
    """
    if name not in BUILTINS:
        raise ConstructionError("unknown model %r (choose from %s)"
                                % (name, ", ".join(BUILTIN_NAMES)))
    make, names = BUILTINS[name]
    if names is None:
        return make(list(params), strict=strict)
    if len(params) != len(names):
        raise ConstructionError("%s takes (%s%s)" % (
            name, ", ".join(names), "," * (len(names) == 1)))
    return make(*params)
