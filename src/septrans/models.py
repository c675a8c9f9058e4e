"""Hamiltonian data model as transverse expansions along the loop line q2 = 0.

A model H = (1/2)<B(q)p, p> + V(q) near a hyperbolic equilibrium at the
origin is described by second-order jets in q2 along the loop line:

    B(q)  = B0(q1) + (1/2) B2(q1) q2^2        (no order-1 term)
    V(q)  = V0(q1) + V1(q1) q2 - (1/2) Y(q1) q2^2

with B0 = [[b110, b120], [b120, b220]] and B2 = [[b112, b122], [b122, b222]].
The sign convention puts Y positive when the potential curves downward in q2.

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
from typing import Callable, Mapping, Sequence

from .numerics import central_diff, second_diff

ScalarFn = Callable[[float], float]

COEFF_NAMES = ("b110", "b120", "b220", "b112", "b122", "b222", "V0", "V1", "Y")


class DomainError(ValueError):
    """q1 outside the model's validity interval."""


class ConstructionError(ValueError):
    """Built-in model parameters violate their admissibility constraints."""


@dataclass(frozen=True)
class Jet2:
    """Partial derivatives of the transition chi at (q1, 0)."""
    dchi1_dq2: float
    dchi2_dq2: float
    d2chi1_dq22: float
    d2chi2_dq22: float
    dchi1_dq1: float


@dataclass(frozen=True)
class ChartTransition:
    chi: Callable[[float, float], tuple[float, float]]
    chi0: Callable[[float], float]
    jet2: Callable[[float], Jet2]


def identity_transition() -> ChartTransition:
    return ChartTransition(
        chi=lambda q1, q2: (q1, q2),
        chi0=lambda q1: q1,
        jet2=lambda q1: Jet2(0.0, 1.0, 0.0, 0.0, 1.0))


def torus_shift_transition() -> ChartTransition:
    """chi(q) = (q1 - 2pi, q2): the deck transformation of the torus cover."""
    return ChartTransition(
        chi=lambda q1, q2: (q1 - 2.0 * math.pi, q2),
        chi0=lambda q1: q1 - 2.0 * math.pi,
        jet2=lambda q1: Jet2(0.0, 1.0, 0.0, 0.0, 1.0))


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
            d2chi2_dq22=0.0,
            dchi1_dq1=-4.0 / (q1 * q1)))


@dataclass(frozen=True)
class HamiltonianModel:
    """Transverse 2nd-order jets of B(q) and V(q) along q2 = 0, plus metadata.

    derivatives maps a coefficient name to its analytic first derivative in
    q1; two extra keys are recognized: "S1" (derivative of the loop's p2
    profile, consumed by the loop-profile builder) and "ddV0" (second
    derivative of V0, consumed by the linearization).  Missing entries fall
    back to central finite differences.

    matching is (q1*, transition): the point on the loop line where the
    verdict compares the slopes, and the chart transition that carries the
    stable generating function into the unstable chart there.
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
    derivatives: Mapping[str, ScalarFn] = field(default_factory=dict)
    name: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)
    matching: tuple[float, ChartTransition] | None = None

    def coefficient(self, cname: str) -> ScalarFn:
        if cname not in COEFF_NAMES:
            raise KeyError(cname)
        return getattr(self, cname)

    def derivative(self, cname: str, q1: float) -> float:
        """First derivative of a coefficient function, analytic if supplied."""
        fn = self.derivatives.get(cname)
        if fn is not None:
            return fn(q1)
        return central_diff(self.coefficient(cname), q1)

    def in_domain(self, q1: float, slack: float = 1e-12) -> bool:
        a, b = self.domain
        return a - slack <= q1 <= b + slack

    def beta(self, q1: float) -> float:
        """beta = det B0 / b220, the effective inverse mass along the loop."""
        b11, b12, b22 = self.b110(q1), self.b120(q1), self.b220(q1)
        return (b11 * b22 - b12 * b12) / b22


@dataclass(frozen=True)
class CoefficientValues:
    b110: float
    b120: float
    b220: float
    b112: float
    b122: float
    b222: float
    V0: float
    V1: float
    Y: float


@dataclass(frozen=True)
class PerturbationModel:
    """First-order perturbation H* together with the unperturbed loop family.

    loop_family(t, s) returns the phase point (q1, q2, p1, p2) of the loop
    with section parameter s at time t; kappa(s) is the configuration point
    the loop passes through at t = 0, with kappa(0) = (pi, 0).
    decay_rate bounds the exponential approach of the loops to the
    equilibrium and controls quadrature truncation.
    """
    h_star: Callable[[float, float, float, float], float]
    h_star_at_O: float
    loop_family: Callable[[float, float], tuple[float, float, float, float]]
    kappa: Callable[[float], tuple[float, float]]
    decay_rate: float
    time_scale: float = 1.0
    # optional analytic hooks; melnikov falls back to finite differences in s
    d_integrand_ds: Callable[[float, float], float] | None = None
    d2_integrand_ds2: Callable[[float, float], float] | None = None
    locate: Callable[[float, float], tuple[float, float]] | None = None
    name: str = "custom"

    def integrand(self, t: float, s: float) -> float:
        x = self.loop_family(t, s)
        return self.h_star(*x) - self.h_star_at_O


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


def eval_coefficients(model: HamiltonianModel, q1: float) -> CoefficientValues:
    """Pointwise values of the nine expansion coefficients at q1."""
    if not model.in_domain(q1):
        raise DomainError("q1=%g outside domain [%g, %g]"
                          % (q1, model.domain[0], model.domain[1]))
    return CoefficientValues(*(model.coefficient(c)(q1) for c in COEFF_NAMES))


def _grid(model: HamiltonianModel, n: int = 256) -> list[float]:
    a, b = model.domain
    return [a + (b - a) * i / n for i in range(n + 1)]


def hessian_at_origin(model: HamiltonianModel) -> tuple[float, float, float]:
    """Entries (a11, a12, a22) of A = -D^2 V(0,0) in loop-line coordinates."""
    ddv0 = model.derivatives.get("ddV0")
    a11 = -(ddv0(0.0) if ddv0 is not None else second_diff(model.V0, 0.0))
    a12 = -model.derivative("V1", 0.0)
    a22 = model.Y(0.0)
    return a11, a12, a22


def validate_hypotheses(model: HamiltonianModel) -> ValidationReport:
    """Spot-check the structural hypotheses on a sample grid.

    Checks: kinetic matrix B0 positive definite on the grid; V has a
    nondegenerate maximum at the origin (V0(0)=0, V0'(0)=0, V1(0)=0, and
    A = -D^2 V(0,0) positive definite); V0 < 0 on the open interior (so the
    zero-energy loop exists on q2=0); 2pi-periodicity of all coefficients
    when flagged.  The absence of an order-1 kinetic term is structural.
    """
    entries: list[CheckEntry] = []
    grid = _grid(model)

    worst_det = math.inf
    worst_b11 = math.inf
    for q1 in grid:
        b11, b12, b22 = model.b110(q1), model.b120(q1), model.b220(q1)
        worst_b11 = min(worst_b11, b11)
        worst_det = min(worst_det, b11 * b22 - b12 * b12)
    ok = worst_b11 > 0 and worst_det > 0
    entries.append(CheckEntry(
        "kinetic_positive_definite", ok,
        "min b110=%.3g, min det B0=%.3g on %d-point grid"
        % (worst_b11, worst_det, len(grid)), min(worst_b11, worst_det)))

    v00 = model.V0(0.0)
    dv00 = model.derivative("V0", 0.0)
    v10 = model.V1(0.0)
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
    a, b = model.domain
    margin = 1e-3 * (b - a)
    worst_v0 = -math.inf
    for q1 in grid:
        lo, hi = a + margin, (b - margin if model.periodic else b)
        if lo < q1 < hi:
            worst_v0 = max(worst_v0, model.V0(q1))
    entries.append(CheckEntry(
        "potential_negative_on_interior", worst_v0 < 0,
        "max interior V0=%.3g" % worst_v0, worst_v0))

    if model.periodic:
        worst = 0.0
        for cname in COEFF_NAMES:
            fn = model.coefficient(cname)
            for i in range(0, len(grid), 3):
                q1 = grid[i]
                worst = max(worst, abs(fn(q1 + 2 * math.pi) - fn(q1)))
        entries.append(CheckEntry(
            "coefficients_2pi_periodic", worst < 1e-10,
            "max |f(q1+2pi)-f(q1)|=%.2e" % worst, worst))

    entries.append(CheckEntry(
        "no_first_order_kinetic_term", True, "structural: B1 fields do not exist"))

    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# built-in models


def _neumann(lambda1: float, lambda2: float) -> HamiltonianModel:
    if not (0 < lambda1 < lambda2):
        raise ConstructionError("neumann requires 0 < lambda1 < lambda2")
    l1s, l2s = lambda1 * lambda1, lambda2 * lambda2

    def A(q1):
        return 4.0 + q1 * q1

    b110 = lambda q1: A(q1) ** 2 / 16.0
    b112 = lambda q1: A(q1) / 4.0
    zero = lambda q1: 0.0

    def V0(q1):
        return -8.0 * l1s * q1 * q1 / A(q1) ** 2

    def Y(q1):
        return 16.0 / A(q1) ** 2 * (l2s - 2.0 * l1s * q1 * q1 / A(q1))

    def dV0(q1):
        return -16.0 * l1s * q1 * (4.0 - q1 * q1) / A(q1) ** 3

    def ddV0(q1):
        a = A(q1)
        # d/dq1 of dV0, expanded by hand
        return -16.0 * l1s * ((4.0 - 3.0 * q1 * q1) / a ** 3
                              - 6.0 * q1 * q1 * (4.0 - q1 * q1) / a ** 4)

    derivs = {
        "b110": lambda q1: q1 * A(q1) / 4.0,
        "b220": lambda q1: q1 * A(q1) / 4.0,
        "b120": zero,
        "b112": lambda q1: q1 / 2.0,
        "b222": lambda q1: q1 / 2.0,
        "b122": zero,
        "V0": dV0,
        "ddV0": ddV0,
        "V1": zero,
        "S1": zero,
    }
    return HamiltonianModel(
        b110=b110, b120=zero, b220=b110, b112=b112, b122=zero, b222=b112,
        V0=V0, V1=zero, Y=Y, domain=(0.0, 8.0), periodic=False,
        reversibility=(1, 1), derivatives=derivs, name="neumann",
        params={"lambda1": lambda1, "lambda2": lambda2},
        matching=(2.0, inversion_transition()))


def _cosine_poly(coeffs: Sequence[float]) -> ScalarFn:
    cs = tuple(float(c) for c in coeffs)

    def f(q1: float) -> float:
        return sum(c * math.cos(k * q1) for k, c in enumerate(cs))

    return f


def _pendula_identical(f_coeffs: Sequence[float],
                       strict: bool = True) -> HamiltonianModel:
    if len(f_coeffs) == 0:
        f_coeffs = [0.0]
    f = _cosine_poly(f_coeffs)
    f0 = f(0.0)
    if strict and not (0.0 <= f0 < 0.5):
        raise ConstructionError(
            "pendula_identical requires 0 <= f(0) < 1/2, got f(0)=%g" % f0)

    cs = tuple(float(c) for c in f_coeffs)

    def df(q1):
        return -sum(c * k * math.sin(k * q1) for k, c in enumerate(cs))

    one = lambda q1: 1.0
    zero = lambda q1: 0.0
    return HamiltonianModel(
        b110=one, b120=lambda q1: -1.0, b220=lambda q1: 2.0,
        b112=zero, b122=zero, b222=zero,
        V0=lambda q1: 2.0 * (math.cos(q1) - 1.0),
        V1=lambda q1: -math.sin(q1),
        Y=lambda q1: math.cos(q1) - f(q1),
        domain=(0.0, 2.0 * math.pi), periodic=True, reversibility=(-1, -1),
        derivatives={
            "b110": zero, "b120": zero, "b220": zero,
            "b112": zero, "b122": zero, "b222": zero,
            "V0": lambda q1: -2.0 * math.sin(q1),
            "ddV0": lambda q1: -2.0 * math.cos(q1),
            "V1": lambda q1: -math.cos(q1),
            "Y": lambda q1: -math.sin(q1) - df(q1),
            "S1": lambda q1: math.cos(q1 / 2.0),
        },
        name="pendula_identical", params={"f%d" % k: c for k, c in enumerate(cs)},
        matching=(math.pi, torus_shift_transition()))


def _weak_h_funcs(lam: float):
    """The coupling profile h with h' and h'' for the weak-pendula model.

    h(0)=0, h(pi)=pi, h(2pi)=2pi, extended oddly and 2pi-equivariantly to
    the whole line.  Near multiples of 2pi, h ~ 4 (q1/4)^lam up to the sign,
    so the direct quotient formulas for h', h'' are replaced by their power
    limits to avoid 0/0.
    """
    def h_base(r: float) -> float:
        # r in [0, 2pi]; reflect the upper half to keep tan bounded
        if r <= math.pi:
            return 4.0 * math.atan(math.tan(r / 4.0) ** lam)
        return 2.0 * math.pi - h_base(2.0 * math.pi - r)

    def h(q1: float) -> float:
        two_pi = 2.0 * math.pi
        n = math.floor(q1 / two_pi)
        r = q1 - n * two_pi
        return h_base(r) + n * two_pi

    def h1(q1: float) -> float:
        two_pi = 2.0 * math.pi
        r = q1 - math.floor(q1 / two_pi) * two_pi
        d = min(r, two_pi - r)
        if d < 1e-5:
            # h ~ 4 (d/4)^lam about the nearest pendulum-1 equilibrium
            return lam * 4.0 ** (1.0 - lam) * d ** (lam - 1.0) if lam != 1.0 else 1.0
        return lam * math.sin(h(q1) / 2.0) / math.sin(q1 / 2.0)

    def h2(q1: float) -> float:
        two_pi = 2.0 * math.pi
        r = q1 - math.floor(q1 / two_pi) * two_pi
        d = min(r, two_pi - r)
        sign = 1.0 if r <= math.pi else -1.0
        if d < 1e-5:
            if lam == 1.0:
                return 0.0
            return sign * lam * (lam - 1.0) * 4.0 ** (1.0 - lam) * d ** (lam - 2.0)
        hp = h1(q1)
        s1 = math.sin(q1 / 2.0)
        return (lam / 2.0) * (hp * math.cos(h(q1) / 2.0)
                              - math.sin(h(q1) / 2.0)
                              * math.cos(q1 / 2.0) / s1) / s1

    return h, h1, h2


def _pendula_weak(lam: float) -> tuple[HamiltonianModel, PerturbationModel]:
    if lam < 1.0:
        raise ConstructionError("pendula_weak requires lambda >= 1")
    lsq = lam * lam
    h, h1, h2 = _weak_h_funcs(lam)

    def V0(q1):
        return (math.cos(q1) - 1.0) + lsq * (math.cos(h(q1)) - 1.0)

    def V1(q1):
        return -lsq * math.sin(h(q1))

    def Y(q1):
        return lsq * math.cos(h(q1))

    def dV0(q1):
        return -math.sin(q1) - lsq * h1(q1) * math.sin(h(q1))

    def ddV0(q1):
        hp = h1(q1)
        hh = h(q1)
        # h''*sin(h) ~ d^(2*lam-2) -> 0 at the equilibria for every lam >= 1
        two_pi = 2.0 * math.pi
        r = q1 - math.floor(q1 / two_pi) * two_pi
        if min(r, two_pi - r) < 1e-5:
            hpp_sin = 0.0
        else:
            hpp_sin = h2(q1) * math.sin(hh)
        return -math.cos(q1) - lsq * (hpp_sin + hp * hp * math.cos(hh))

    def dV1(q1):
        return -lsq * h1(q1) * math.cos(h(q1))

    one = lambda q1: 1.0
    zero = lambda q1: 0.0
    model = HamiltonianModel(
        b110=one, b120=lambda q1: -h1(q1), b220=lambda q1: 1.0 + h1(q1) ** 2,
        b112=zero, b122=zero, b222=zero,
        V0=V0, V1=V1, Y=Y,
        domain=(0.0, 2.0 * math.pi), periodic=True, reversibility=(-1, -1),
        derivatives={
            "b110": zero,
            "b120": lambda q1: -h2(q1),
            "b220": lambda q1: 2.0 * h1(q1) * h2(q1),
            "b112": zero, "b122": zero, "b222": zero,
            "V0": dV0, "ddV0": ddV0, "V1": dV1,
            "Y": lambda q1: -lsq * h1(q1) * math.sin(h(q1)),
            "S1": lambda q1: lam * h1(q1) * math.cos(h(q1) / 2.0),
        },
        name="pendula_weak", params={"lam": lam},
        matching=(math.pi, torus_shift_transition()))

    # loops of the unperturbed (uncoupled) separatrix sheet, straightened so
    # the s=0 loop lies on q2=0
    def xi1_of(u: float) -> float:
        return 4.0 * math.atan(math.exp(u))

    def loop_family(t: float, s: float):
        u = t - s
        q1 = xi1_of(u)
        q2 = xi1_of(lam * t) - xi1_of(lam * u)
        eta1 = 2.0 / math.cosh(u)
        eta2 = 2.0 * lam / math.cosh(lam * t)
        p2 = eta2
        p1 = eta1 + h1(q1) * eta2
        return (q1, q2, p1, p2)

    def kappa(s: float):
        return (xi1_of(-s), math.pi - xi1_of(-lam * s))

    def h_star(q1, q2, p1, p2):
        return 1.0 - math.cos(h(q1) - q1 + q2)

    def d_integrand_ds(t: float, s: float) -> float:
        u = t - s
        xi1 = xi1_of(u)
        xi2 = xi1_of(lam * t)
        dxi1 = -2.0 * math.sin(xi1 / 2.0)
        return -math.sin(xi2 - xi1) * dxi1

    def d2_integrand_ds2(t: float, s: float) -> float:
        u = t - s
        xi1 = xi1_of(u)
        xi2 = xi1_of(lam * t)
        dxi1 = -2.0 * math.sin(xi1 / 2.0)
        ddxi1 = math.sin(xi1)
        return math.cos(xi2 - xi1) * dxi1 * dxi1 - math.sin(xi2 - xi1) * ddxi1

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
        decay_rate=1.0, time_scale=max(1.0, lam),
        d_integrand_ds=d_integrand_ds, d2_integrand_ds2=d2_integrand_ds2,
        locate=locate, name="pendula_weak")
    return model, pert


BUILTIN_NAMES = ("neumann", "pendula_identical", "pendula_weak")


def builtin_model(name: str, params: Sequence[float], strict: bool = True):
    """Construct a built-in model by name.

    neumann: params (lambda1, lambda2) with 0 < lambda1 < lambda2.
    pendula_identical: params are cosine coefficients of the coupling f.
    pendula_weak: params (lam,) with lam >= 1; returns (model, perturbation).

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
