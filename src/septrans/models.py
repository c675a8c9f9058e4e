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
need.  The nine coefficient fields are views of the jet.  The saddle checks
also read V0'(0), V1'(0) and V0''(0), which a model carries as its saddle.

q1 is a number or a 1-D ndarray.  On a number (a float, an int or a
numpy float) the jet returns floats (the slope solve steps one point at a
time); on an ndarray each entry is an array of q1's shape, or a constant
that broadcasts against it, so a grid known in advance costs one call.  A
jet given to from_jet must accept both.  numpy is imported on the array
path only, so a run that evaluates numbers alone never loads it.

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

from .numerics import SCALARS, central_diff, second_diff

if TYPE_CHECKING:
    import numpy as np

ScalarFn = Callable[[float], float]

COEFF_NAMES = ("b110", "b120", "b220", "b112", "b122", "b222", "V0", "V1", "Y")


class CoefficientJet(NamedTuple):
    """The nine coefficients at q1, then S1' and b220' there: floats at a
    float q1, arrays (or constants) at an ndarray q1."""
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
    coefficients at one point, or elementwise on arrays (see
    septrans.loops).

    beta = det B0 / b220, dS0 = sqrt(-2 V0 / beta), S1 = -(b120 / b220) dS0.
    dS0 and S1 are nan where -2 V0 / beta < 0, where no loop passes.
    """
    beta = (b110 * b220 - b120 * b120) / b220
    rad = -2.0 * V0 / beta
    if isinstance(rad, SCALARS):
        if rad < 0.0:
            if rad <= -1e-14:
                return beta, math.nan, math.nan
            rad = 0.0
        ds0 = math.sqrt(rad)
        return beta, ds0, -(b120 / b220) * ds0
    import numpy as np
    ds0 = np.sqrt(np.where(rad < 0.0,
                           np.where(rad <= -1e-14, np.nan, 0.0), rad))
    return beta, ds0, -(b120 / b220) * ds0


class DomainError(ValueError):
    """A point outside the region the model describes."""


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
    chi: Callable[[float, float], tuple[float, float]]
    chi0: Callable[[float], float]
    jet2: Callable[[float], Jet2]


def torus_shift_transition() -> ChartTransition:
    """chi(q) = (q1 - 2pi, q2): the deck transformation of the torus cover."""
    return ChartTransition(
        chi=lambda q1, q2: (q1 - 2.0 * math.pi, q2),
        chi0=lambda q1: q1 - 2.0 * math.pi,
        jet2=lambda q1: Jet2(0.0, 1.0, 0.0, 0.0))


def inversion_transition() -> ChartTransition:
    """The sphere model's second chart: chi(q) = 4 q / |q|^2."""
    def chi(q1, q2):
        r2 = q1 * q1 + q2 * q2
        return (4.0 * q1 / r2, 4.0 * q2 / r2)

    return ChartTransition(
        chi=chi,
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
    jet: Callable[[float], CoefficientJet] | None = field(
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
    def from_jet(cls, jet: Callable[[float], CoefficientJet],
                 saddle: tuple[float, float, float] | None, **kwargs):
        """A model whose nine fields are views of jet, which takes a float
        or a 1-D ndarray q1 (see the module docstring)."""
        return cls(**{c: JetView(jet, i) for i, c in enumerate(COEFF_NAMES)},
                   saddle=saddle, jet=jet, **kwargs)

    def derivative(self, cname: str, q1: float) -> float:
        """First derivative of a coefficient field by central differences."""
        return central_diff(getattr(self, cname), q1)


def _assembled_jet(model: HamiltonianModel
                   ) -> Callable[[float], CoefficientJet]:
    """The jet of a model given by its fields: each field is called once per
    point (an ndarray q1 one element at a time), and S1' and b220' come by
    fourth-order differences.  S1' takes one step, 1e-4 of the domain,
    which outgrows the cancellation of fields such as cos(q1) - 1 near the
    saddle: a central stencil where it fits in the domain, else a
    one-sided stencil inside it, since S1 behaves like |q1 - a| at an end
    a where V0 vanishes."""
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

    def jet(q1) -> CoefficientJet:
        if isinstance(q1, SCALARS):
            return CoefficientJet(*[f(q1) for f in fields], ds1(q1),
                                  model.derivative("b220", q1))
        import numpy as np
        return CoefficientJet(*np.array([jet(q) for q in q1.tolist()]).T)

    return jet


@dataclass(frozen=True)
class PerturbationModel:
    """First-order perturbation H* together with the unperturbed loop family.

    integrand(t, s) is H*(x(t, s)) - H*(O) along the loop with section
    parameter s: the one evaluation of the perturbation that the Melnikov
    integrals make.  Its contract is a float or 1-D ndarray t of N nodes,
    and either a float s or an (M, 1) column of M section parameters that
    broadcasts against t; it returns values of their broadcast shape, (N,)
    or (M, N), with row i at s[i], or one scalar if they are all equal.
    melnikov evaluates a block of section points in one call and raises
    ValueError on any other shape.  A model writes it in closed form where
    the loops allow one, or passes the composition

        lambda t, s: h_star(*loop_family(t, s)) - h_star_at_O

    itself.  loop_family(t, s) returns the phase point (q1, q2, p1, p2) of
    the loop with section parameter s at time t; kappa(s) is the
    configuration point the loop passes through at t = 0, with kappa(0) =
    (pi, 0).  h_star, h_star_at_O and loop_family define the perturbation,
    and a closed-form integrand is checked against them.  The optional
    integrand_s_jet(t, s) returns the integrand's first and second
    s-derivatives on an ndarray t, from one evaluation; without it the
    derivatives of the reduced potential are finite differences in s.
    decay_rate bounds the exponential approach of the loops to the
    equilibrium and sets the quadrature window.  time_scale is the loop
    family's fastest rate: the window grows by |s| * time_scale, and the
    trapezoid step is 0.1 / time_scale.
    """
    h_star: Callable[..., np.ndarray]
    h_star_at_O: float
    loop_family: Callable[..., tuple]
    kappa: Callable[[float], tuple[float, float]]
    decay_rate: float
    time_scale: float = 1.0
    # required (see __post_init__); the None default keeps a class
    # attribute PerturbationModel.integrand, which bench/tracing.py
    # replaces while it traces
    integrand: Callable[[np.ndarray, float | np.ndarray],
                        np.ndarray] | None = None
    # optional hooks: without integrand_s_jet melnikov takes finite
    # differences in s; without locate, melnikov_potential takes only s
    integrand_s_jet: Callable[[np.ndarray, float], tuple] | None = None
    locate: Callable[[float, float], tuple[float, float]] | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.integrand is None:
            raise TypeError("PerturbationModel needs an integrand")


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
    return -ddv0, -dv1, model.jet(0.0).Y


def validate_hypotheses(model: HamiltonianModel) -> ValidationReport:
    """Spot-check the structural hypotheses on a sample grid.

    Checks: kinetic matrix B0 positive definite on the grid; V has a
    nondegenerate maximum at the origin (V0(0)=0, V0'(0)=0, V1(0)=0, and
    A = -D^2 V(0,0) positive definite); V0 < 0 on the open interior (so the
    zero-energy loop exists on q2=0); 2pi-periodicity of all coefficients
    when flagged; the loop restriction dS1 beta dS0 + V1 = 0 on the whole
    domain, endpoints included (the slope solve checks it only where it
    evaluates).  The absence of an order-1 kinetic term is structural.
    """
    import numpy as np
    entries: list[CheckEntry] = []
    a, b = model.domain
    grid = a + (b - a) * np.arange(257) / 256
    jets = CoefficientJet(*(np.broadcast_to(v, grid.shape)
                            for v in model.jet(grid)))

    worst_b11 = float(np.min(jets.b110))
    worst_det = float(np.min(jets.b110 * jets.b220 - jets.b120 * jets.b120))
    ok = worst_b11 > 0 and worst_det > 0
    entries.append(CheckEntry(
        "kinetic_positive_definite", ok,
        "min b110=%.3g, min det B0=%.3g on %d-point grid"
        % (worst_b11, worst_det, len(grid)), min(worst_b11, worst_det)))

    c0 = model.jet(0.0)
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
    worst_v0 = float(np.max(jets.V0[(lo < grid) & (grid < hi)],
                            initial=-math.inf))
    entries.append(CheckEntry(
        "potential_negative_on_interior", worst_v0 < 0,
        "max interior V0=%.3g" % worst_v0, worst_v0))

    if model.periodic:
        n = len(COEFF_NAMES)
        shifted = model.jet(grid[::3] + 2 * math.pi)
        worst = max(float(np.max(np.abs(x - y[::3])))
                    for x, y in zip(shifted[:n], jets[:n]))
        entries.append(CheckEntry(
            "coefficients_2pi_periodic", worst < 1e-10,
            "max |f(q1+2pi)-f(q1)|=%.2e" % worst, worst))

    entries.append(CheckEntry(
        "no_first_order_kinetic_term", True, "structural: B1 fields do not exist"))

    # nan where no loop passes, which fails the check too
    beta, ds0, _s1 = loop_momenta(jets.b110, jets.b120, jets.b220, jets.V0)
    worst = float(np.max(np.abs(jets.dS1 * beta * ds0 + jets.V1)))
    entries.append(CheckEntry(
        "loop_restriction_residual", worst <= 1e-6,
        "max residual %.3g on %d-point grid" % (worst, len(grid)), worst))

    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# built-in models


def _neumann(lambda1: float, lambda2: float) -> HamiltonianModel:
    if not (0 < lambda1 < lambda2):
        raise ConstructionError("neumann requires 0 < lambda1 < lambda2")
    l1s, l2s = lambda1 * lambda1, lambda2 * lambda2

    # arithmetic alone, so a float and an ndarray q1 take the same code and
    # round alike: a * a, where a ** 2 on a float would be libm's pow
    def jet(q1):
        a = 4.0 + q1 * q1
        a2 = a * a
        b11 = a2 / 16.0
        b12 = a / 4.0
        return CoefficientJet(
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
    """f(q1, m) = sum of c_k cos(k q1) by m.cos: m is math for a float q1,
    numpy for an ndarray."""
    terms = tuple(enumerate(float(c) for c in coeffs))

    def f(q1, m=math):
        total = 0
        for k, c in terms:
            total += c * m.cos(k * q1)
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
        if isinstance(q1, SCALARS):
            m = math
        else:
            import numpy as m
        # V0 = 2 (cos q1 - 1) as -4 sin^2(q1/2), which does not cancel
        # near the saddle
        sin_half = m.sin(q1 / 2.0)
        return CoefficientJet(
            1.0, -1.0, 2.0,                                 # b110 b120 b220
            0.0, 0.0, 0.0,                                  # b112 b122 b222
            -4.0 * sin_half * sin_half,                     # V0
            -m.sin(q1),                                     # V1
            m.cos(q1) - f(q1, m),                           # Y
            m.cos(q1 / 2.0), 0.0)                           # S1' b220'

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
    h_slope(q1) = (h', m, n, r, t, u, v) is h' with the terms it is built
    from: m is math for a number q1 and numpy for an ndarray, and v =
    t^(lam-1).  Both take a number or a 1-D ndarray q1.
    """
    two_pi = 2.0 * math.pi

    def cell(q1):
        if isinstance(q1, SCALARS):
            m, lesser = math, min
        else:
            import numpy as m
            lesser = m.minimum
        n = m.floor(q1 / two_pi)
        r = q1 - n * two_pi
        # d = min(r, 2pi - r), since pi - |r - pi| loses the digits of a
        # small d; its absolute value, since within an ulp or so of a
        # multiple of 2pi, r rounds below 0 or above 2pi
        t = m.tan(abs(lesser(r, two_pi - r)) / 4.0)
        v = t ** (lam - 1.0)
        return m, n, r, t, v * t, v

    def h_slope(q1):
        m, n, r, t, u, v = cell(q1)
        return lam * v * (1.0 + t * t) / (1.0 + u * u), m, n, r, t, u, v

    def h(q1):
        m, n, r, _t, u, _v = cell(q1)
        if m is math:
            hb = 4.0 * math.atan(u)
            return (hb if r <= math.pi else two_pi - hb) + n * two_pi
        hb = 4.0 * m.arctan(u)
        return m.where(r <= math.pi, hb, two_pi - hb) + n * two_pi

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

    def h2_half_cell(t, v, g, uu, w):
        # h'' on the half cell off the saddle, t^(lam-2) = v / t
        return lam * g / 4.0 * (v / t) / w * (
            (lam - 1.0) * g + 2.0 * t * t - 2.0 * lam * g * uu / w)

    def jet(q1):
        h1, m, n, r, t, u, v = h_slope(q1)
        g, uu = 1.0 + t * t, u * u
        w = 1.0 + uu
        # sin(h/2) and cos(h/2) on the half cell; sigma is +1 on r <= pi,
        # else -1: h'' and sin h are odd under the reflection
        sin_h2, cos_h2 = 2.0 * u / w, (1.0 - uu) / w
        sin_half = m.sin(q1 / 2.0)
        sigma = 1.0 - 2.0 * (r > math.pi)
        if m is math:
            h2 = h2_half_cell(t, v, g, uu, w) if t else h2_saddle
        else:
            with m.errstate(divide="ignore", invalid="ignore"):
                h2 = m.where(t == 0.0, h2_saddle,
                             h2_half_cell(t, v, g, uu, w))
        return CoefficientJet(
            1.0, -h1, 1.0 + h1 * h1,                        # b110 b120 b220
            0.0, 0.0, 0.0,                                  # b112 b122 b222
            # V0 = cos q1 - 1 - lam^2 (1 - cos h), each term as a square
            -2.0 * sin_half * sin_half - 2.0 * lsq * sin_h2 * sin_h2,
            -2.0 * lsq * sigma * sin_h2 * cos_h2,           # V1
            lsq * (1.0 - 2.0 * sin_h2 * sin_h2),            # Y
            # S1' = lam h' cos(h/2), whose sign flips from cell to cell
            lam * h1 * (1.0 - 2.0 * (n % 2)) * sigma * cos_h2,
            2.0 * h1 * sigma * h2)                          # b220'

    # loops of the unperturbed (uncoupled) separatrix sheet, straightened so
    # the s=0 loop lies on q2=0; t may be an ndarray, and numpy is imported
    # on first call
    def xi1_of(u):
        import numpy as np
        # far from the loop's centre exp overflows to inf, whose arctan is
        # the exact limit
        with np.errstate(over="ignore"):
            return 4.0 * np.arctan(np.exp(u))

    # on the loops h(q1) - q1 + q2 = xi1(lam t) - xi1(t - s) with xi1 = pi
    # + 2 gd, so H* is 2 g^2, g = sin(gd(lam t) - gd(t - s)) = A b - B a,
    # A, B = tanh, sech of lam t and a, b of t - s; the momenta are sechs
    def tanh_sech(t, s: float):
        import numpy as np
        u = t - s
        with np.errstate(over="ignore"):    # sech = 1 / inf = 0 far out
            return (np.tanh(lam * t), 1.0 / np.cosh(lam * t), np.tanh(u),
                    1.0 / np.cosh(u))

    def loop_family(t, s: float):
        _A, B, _a, b = tanh_sech(t, s)
        q1 = xi1_of(t - s)
        q2 = xi1_of(lam * t) - xi1_of(lam * (t - s))
        p2 = 2.0 * lam * B
        return (q1, q2, 2.0 * b + h_slope(q1)[0] * p2, p2)

    def kappa(s: float):
        return (xi1_of(-s), math.pi - xi1_of(-lam * s))

    def h_star(q1, q2, p1, p2):
        import numpy as np
        return 1.0 - np.cos(h(q1) - q1 + q2)

    def integrand(t, s: float):
        A, B, a, b = tanh_sech(t, s)
        g = A * b - B * a
        return 2.0 * g * g      # a square, which does not cancel in the tails

    def integrand_s_jet(t, s: float):
        # d/ds of a and b are -b^2 and a b
        A, B, a, b = tanh_sech(t, s)
        g = A * b - B * a
        g_s = b * (A * a + B * b)
        g_ss = 2.0 * B * a * b * b - A * b * (b * b - a * a)
        return 4.0 * g * g_s, 4.0 * (g_s * g_s + g * g_ss)

    def locate(q1: float, q2: float):
        if not (0.0 < q1 < 2.0 * math.pi):
            raise DomainError("loop point needs q1 in (0, 2pi)")
        u = math.log(math.tan(q1 / 4.0))
        xi2 = q2 + h(q1)
        if not (0.0 < xi2 < 2.0 * math.pi):
            raise DomainError("point not on the separatrix sheet")
        t0 = math.log(math.tan(xi2 / 4.0)) / lam
        return (t0, t0 - u)

    pert = PerturbationModel(
        h_star=h_star, h_star_at_O=0.0, loop_family=loop_family, kappa=kappa,
        decay_rate=1.0, time_scale=max(1.0, lam), integrand=integrand,
        integrand_s_jet=integrand_s_jet, locate=locate, name="pendula_weak")
    # V0' = -sin q1 - lam^2 h' sin h, V1' = -lam^2 h' cos h, V0'' = -cos q1
    # - lam^2 (h'' sin h + h'^2 cos h) at 0, where h = h'' sin h = 0
    h1 = -jet(0.0).b120     # h'(0): 1 at lam = 1, else 0
    return HamiltonianModel.from_jet(
        jet, (-0.0, -lsq * h1, -1.0 - lsq * h1 * h1),
        domain=(0.0, 2.0 * math.pi), periodic=True, reversibility=(-1, -1),
        name="pendula_weak", params={"lam": lam},
        matching=(math.pi, torus_shift_transition()), perturbation=pert)


BUILTIN_NAMES = ("neumann", "pendula_identical", "pendula_weak")


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
    if name == "neumann":
        if len(params) != 2:
            raise ConstructionError("neumann takes (lambda1, lambda2)")
        return _neumann(params[0], params[1])
    if name == "pendula_identical":
        return _pendula_identical(list(params), strict=strict)
    if name == "pendula_weak":
        if len(params) != 1:
            raise ConstructionError("pendula_weak takes (lam,)")
        return _pendula_weak(params[0])
    raise ConstructionError("unknown model %r (choose from %s)"
                            % (name, ", ".join(BUILTIN_NAMES)))
