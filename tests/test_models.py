import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from septrans.loops import LoopConstructionError, loop_profile
from septrans.models import (ConstructionError, builtin_model,
                             hessian_at_origin, validate_hypotheses,
                             CoefficientJet, HamiltonianModel, COEFF_NAMES)
from septrans.numerics import central_diff, second_diff
from septrans.charts import chart_transversality
from septrans.riccati import (SolverOptions, riccati_initial, riccati_terms,
                              riccati_to_linear_oracle, solve_riccati)


def neumann(l1=1.0, l2=2.0):
    return builtin_model("neumann", [l1, l2])


def test_neumann_coefficients_at_zero():
    c = neumann().jet(0.0)
    assert c.b110 == 1.0
    assert c.b220 == 1.0
    assert c.b120 == 0.0
    assert c.V0 == 0.0
    assert c.V1 == 0.0
    assert c.Y == 4.0


def test_neumann_closed_forms_random_points():
    l1, l2 = 1.3, 2.4
    m = neumann(l1, l2)
    rng = np.random.default_rng(42)
    for q1 in rng.uniform(0.0, 8.0, size=20):
        a = 4.0 + q1 * q1
        assert m.b110(q1) == a * a / 16.0
        assert m.b112(q1) == a / 4.0
        assert m.b120(q1) == 0.0
        assert m.V0(q1) == -8.0 * l1 ** 2 * q1 * q1 / a ** 2
        assert m.Y(q1) == pytest.approx(
            16.0 / a ** 2 * (l2 ** 2 - 2.0 * l1 ** 2 * q1 * q1 / a), rel=1e-15)


def test_pendula_identical_constant_kinetic_matrix():
    m = builtin_model("pendula_identical", [0.1])
    for q1 in (0.0, 1.0, math.pi, 5.0):
        c = m.jet(q1)
        assert (c.b110, c.b120, c.b220) == (1.0, -1.0, 2.0)
        assert (c.b112, c.b122, c.b222) == (0.0, 0.0, 0.0)


def test_pendula_identical_potential_at_pi():
    m = builtin_model("pendula_identical", [0.0])
    c = m.jet(math.pi)
    assert c.V0 == pytest.approx(-4.0, abs=1e-14)


def test_validate_neumann_passes():
    rep = validate_hypotheses(neumann())
    assert rep.ok
    names = [e.name for e in rep.entries]
    assert "no_first_order_kinetic_term" in names


def test_validate_catches_bad_coupling():
    m = builtin_model("pendula_identical", [0.6], strict=False)
    rep = validate_hypotheses(m)
    assert not rep.ok
    assert any(e.name == "potential_maximum_nondegenerate"
               for e in rep.failed())


def test_validate_catches_wrong_sign_potential():
    one = lambda q1: 1.0
    zero = lambda q1: 0.0
    m = HamiltonianModel(
        b110=one, b120=zero, b220=one, b112=zero, b122=zero, b222=zero,
        V0=lambda q1: q1 * q1, V1=zero, Y=lambda q1: 1.0,
        domain=(0.0, 1.0))
    rep = validate_hypotheses(m)
    assert not rep.ok
    failed = {e.name for e in rep.failed()}
    assert "potential_maximum_nondegenerate" in failed or \
        "potential_negative_on_interior" in failed


def test_builtin_parameter_constraints():
    with pytest.raises(ConstructionError):
        builtin_model("neumann", [2.0, 1.0])
    with pytest.raises(ConstructionError):
        builtin_model("pendula_identical", [0.6])
    with pytest.raises(ConstructionError):
        builtin_model("pendula_weak", [0.5])
    with pytest.raises(ConstructionError):
        builtin_model("nope", [1.0])


def test_kinetic_positive_definite_all_builtins():
    models = [neumann(), builtin_model("pendula_identical", [0.2]),
              builtin_model("pendula_weak", [2.0])]
    for m in models:
        a, b = m.domain
        for q1 in np.linspace(a, b, 80):
            b11, b12, b22 = m.b110(q1), m.b120(q1), m.b220(q1)
            assert b11 > 0 and b11 * b22 - b12 * b12 > 0


def test_periodic_coefficients():
    for m in (builtin_model("pendula_identical", [0.1, 0.05]),
              builtin_model("pendula_weak", [2.0])):
        for cname in COEFF_NAMES:
            fn = getattr(m, cname)
            for q1 in np.linspace(0.0, 2 * math.pi, 100):
                assert abs(fn(q1 + 2 * math.pi) - fn(q1)) < 1e-12


def test_weak_reduces_to_identical_at_lam_one():
    mw = builtin_model("pendula_weak", [1.0])
    # h is the identity, so the coupling terms of B collapse to constants
    for q1 in (0.5, 2.0, math.pi, 5.0):
        assert mw.b120(q1) == pytest.approx(-1.0, abs=1e-12)
        assert mw.b220(q1) == pytest.approx(2.0, abs=1e-12)
        assert mw.V0(q1) == pytest.approx(2.0 * (math.cos(q1) - 1.0), abs=1e-12)
        assert mw.V1(q1) == pytest.approx(-math.sin(q1), abs=1e-12)


def test_weak_loop_family_invariants():
    pert = builtin_model("pendula_weak", [2.5]).perturbation
    k0 = pert.kappa(0.0)
    assert k0[0] == pytest.approx(math.pi, abs=1e-12)
    assert k0[1] == pytest.approx(0.0, abs=1e-12)
    h = 1e-6
    dk2 = (pert.kappa(h)[1] - pert.kappa(-h)[1]) / (2 * h)
    assert abs(dk2) > 1.0  # kappa2'(0) = 2*lam
    # loops tend to the equilibrium in both time directions
    for s in (0.0, 1.0):
        for t in (-35.0, 35.0):
            q1, q2, p1, p2 = pert.loop_family(t, s)
            dist = min(abs(q1), abs(q1 - 2 * math.pi)) + abs(q2) + abs(p1) + abs(p2)
            assert dist < 1e-10


@pytest.mark.parametrize("name,params,saddle", [
    ("neumann", [1.2, 2.6], (0.0, 0.0, -1.44)),
    ("pendula_identical", [0.2, -0.1], (0.0, -1.0, -2.0)),
    ("pendula_weak", [1.0], (0.0, -1.0, -2.0)),
    ("pendula_weak", [2.0], (0.0, 0.0, -1.0)),
    ("pendula_weak", [2.5], (0.0, 0.0, -1.0)),
])
def test_saddle_matches_closed_forms(name, params, saddle):
    # (V0'(0), V1'(0), V0''(0)); V0''(0) = -lambda1^2 on the sphere, and
    # pendula_weak's coupling h has h'(0) = 1 at lam = 1, else 0
    got = builtin_model(name, params).saddle
    assert got == pytest.approx(saddle, abs=1e-15)
    # validate prints V0'(0) as -0.00e+00
    assert math.copysign(1.0, got[0]) == -1.0


def test_analytic_derivatives_match_finite_differences():
    # guards the saddle numbers, the built-ins' hand-expanded derivative
    # formulas at 0
    models = [neumann(1.2, 2.6), builtin_model("pendula_identical", [0.2, -0.1]),
              builtin_model("pendula_weak", [1.0]),
              builtin_model("pendula_weak", [2.0])]
    for m in models:
        dv0, dv1, ddv0 = m.saddle
        assert dv0 == pytest.approx(central_diff(m.V0, 0.0), abs=1e-9)
        assert ddv0 == pytest.approx(second_diff(m.V0, 0.0), abs=1e-6)
        # pendula_weak's V1 = -lam^2 sin h is not smooth at 0 for lam > 1
        if m.params.get("lam", 1.0) == 1.0:
            assert dv1 == pytest.approx(central_diff(m.V1, 0.0), abs=1e-9)


def test_replaced_potential_gives_its_own_hessian():
    m = builtin_model("pendula_identical", [0.2])
    scaled = replace(m, V0=lambda q1: 6.25 * m.V0(q1),
                     V1=lambda q1: 6.25 * m.V1(q1))
    assert hessian_at_origin(scaled) == pytest.approx((12.5, 6.25, 0.8),
                                                      abs=1e-6)
    assert scaled.saddle is None


def test_replaced_b220_gives_its_own_derivative():
    m = neumann()
    b220 = lambda q1: m.b220(q1) + 0.07 * q1 * q1
    changed = replace(m, b220=b220)
    assert changed.jet(1.0).db220 == central_diff(b220, 1.0)
    assert changed.jet(1.0).db220 == pytest.approx(1.39, abs=1e-9)


def test_saddle_without_jet_raises():
    m = neumann()
    fields = {c: (lambda q1, f=getattr(m, c): f(q1)) for c in COEFF_NAMES}
    with pytest.raises(ValueError, match="saddle"):
        HamiltonianModel(**fields, domain=m.domain, saddle=m.saddle)
    custom = HamiltonianModel.from_jet(m.jet, (0.0, 0.0, -1.0),
                                       domain=m.domain)
    assert custom.saddle == (0.0, 0.0, -1.0)
    assert hessian_at_origin(custom) == (1.0, -0.0, 4.0)
    assert replace(custom, Y=lambda q1: m.Y(q1)).saddle is None


# ---------------------------------------------------------------------------
# the fused jet against the jet assembled from the fields

BUILTINS = [("neumann", [1.3, 2.4]), ("pendula_identical", [0.25, -0.125]),
            ("pendula_weak", [2.0])]


def rebuilt(m, **fields):
    """m rebuilt from its nine fields, which takes the assembled-jet path;
    fields replaces some of the nine."""
    kw = {c: getattr(m, c) for c in COEFF_NAMES}
    kw.update(fields)
    return HamiltonianModel(
        **kw, domain=m.domain, periodic=m.periodic,
        reversibility=m.reversibility, name=m.name, params=m.params,
        matching=m.matching)


def borrowing(m):
    """A copy of m whose jet calls the nine fields one by one and borrows
    S1' and b220' from m's jet."""
    fields = [getattr(m, c) for c in COEFF_NAMES]

    def jet(q1):
        return CoefficientJet(*[f(q1) for f in fields], *m.jet(q1)[9:])

    return HamiltonianModel.from_jet(
        jet, m.saddle, domain=m.domain, periodic=m.periodic,
        reversibility=m.reversibility, name=m.name, params=m.params,
        matching=m.matching)


def plain_solve(m):
    return solve_riccati(m, m.matching[0],
                         opts=SolverOptions(sensitivity_check=False))


@pytest.mark.parametrize("name,params", BUILTINS)
def test_fused_jet_solves_like_assembled_jet(name, params):
    m = builtin_model(name, params)
    copy = borrowing(m)
    assert copy.jet is not m.jet
    for q1 in (0.3, 1.7, 2.9):
        assert copy.jet(q1) == m.jet(q1)
    fused, assembled = plain_solve(m), plain_solve(copy)
    for key in ("n_rhs_evaluations", "n_steps"):
        assert assembled.diagnostics[key] == fused.diagnostics[key]
    target = m.matching[0]
    assert assembled(target) == pytest.approx(fused(target), abs=1e-13)
    assert riccati_to_linear_oracle(copy, target) == pytest.approx(
        riccati_to_linear_oracle(m, target), abs=1e-13)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_replaced_v1_fails_restriction_check(name, params):
    m = builtin_model(name, params)
    bad = replace(m, V1=lambda q1, v1=m.V1: v1(q1) + 0.1)
    assert bad.jet(1.0).V1 == m.V1(1.0) + 0.1
    with pytest.raises(LoopConstructionError, match="inconsistent V1"):
        loop_profile(bad)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_replaced_y_solves_like_rebuilt_copy(name, params):
    m = builtin_model(name, params)
    Y = lambda q1, y=m.Y: 0.9 * y(q1)
    a, b = plain_solve(replace(m, Y=Y)), plain_solve(rebuilt(m, Y=Y))
    assert a.diagnostics == b.diagnostics
    target = m.matching[0]
    assert a(target) == b(target)
    assert a(target) != plain_solve(m)(target)


def noop_replaced(m):
    """m with its Y wrapped, which routes it through the assembled jet."""
    return replace(m, Y=lambda q1, y=m.Y: y(q1))


@pytest.mark.parametrize("name,params", BUILTINS)
def test_assembled_jet_starts_from_the_fused_slope(name, params):
    # S1 behaves like |q1| at the saddle: a central difference across
    # q1 = 0 reads S1'(0) = 0, which gave pendula_identical T0 = 0.7071
    m = builtin_model(name, params)
    copy = noop_replaced(m)
    assert copy.jet is not m.jet
    assert copy.jet(0.0).dS1 == pytest.approx(m.jet(0.0).dS1, abs=1e-9)
    T0 = riccati_initial(riccati_terms(loop_profile(m)))[0]
    assert riccati_initial(riccati_terms(loop_profile(copy)))[0] == \
        pytest.approx(T0, abs=1e-8)


@pytest.mark.parametrize("q1,bound", [
    (3.14e-6, 1e-7),                  # the oracle's start
    (6.28e-4, 1e-9),                  # the Riccati start
    (0.01, 1e-10),
    (2 * math.pi - 6.28e-4, 2e-9),
])
def test_assembled_slope_derivative_near_the_saddle(q1, bound):
    # pendula's V0 = 2 (cos q1 - 1) has lost most of its relative digits
    # near the saddle, so a step of 1e-6 there reads mostly roundoff
    m = builtin_model("pendula_identical", [0.0])
    copy = noop_replaced(m)
    assert abs(copy.jet(q1).dS1 - m.jet(q1).dS1) < bound


def test_assembled_jet_keeps_the_tangent_verdict():
    copy = noop_replaced(builtin_model("pendula_identical", [0.0]))
    assert chart_transversality(copy, *copy.matching).verdict == "tangent"


@st.composite
def admissible_models(draw, name=None):
    """A built-in (name, or any) from the boxes of
    test_acceptance.random_admissible_sets."""
    name = name or draw(st.sampled_from([n for n, _ in BUILTINS]))
    if name == "neumann":
        l1 = draw(st.floats(0.5, 2.0))
        params = [l1, l1 * draw(st.floats(1.1, 4.0))]
    elif name == "pendula_identical":
        f0 = draw(st.floats(0.05, 0.35))
        params = [f0, draw(st.floats(-0.4, 0.4)) * f0]
    else:
        params = [draw(st.floats(1.5, 3.5))]
    return builtin_model(name, params)


@st.composite
def admissible_points(draw):
    """A built-in from the acceptance boxes and a point inside its loop."""
    m = draw(admissible_models())
    return m, draw(st.floats(0.1, m.domain[1] - 0.1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(admissible_points())
def test_jet_derivatives_match_central_differences(point):
    m, q1 = point
    c = m.jet(q1)
    assert c.dS1 == pytest.approx(central_diff(loop_profile(m).S1, q1),
                                  rel=1e-7, abs=1e-7)
    assert c.db220 == pytest.approx(central_diff(m.b220, q1),
                                    rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# the jet on an ndarray against its calls one point at a time


@st.composite
def grids(draw, m):
    """Points for m's jet: its domain, and for a periodic model the next
    period too (the periodicity check reads it), with the saddle, the
    matching point, the ends and the points near the ends where
    pendula_weak's h switches to its power limits."""
    a, b = m.domain
    hi = b + (b - a if m.periodic else 0.0)
    marked = [a, b, hi, m.matching[0], 5e-6, b - 5e-6, b + 5e-6, 1e-5]
    q1 = draw(st.lists(st.floats(a, hi) | st.sampled_from(marked),
                       min_size=1, max_size=40))
    return np.array(q1)


def assert_array_jet_is_pointwise(m, q1, close):
    arr = m.jet(q1)
    pointwise = [m.jet(q) for q in q1.tolist()]
    for name, got, want in zip(CoefficientJet._fields, arr, zip(*pointwise)):
        got = np.broadcast_to(got, q1.shape)
        want = np.array(want, dtype=float)
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        finite = ~np.isnan(want)
        close(name, got[finite], want[finite])


def field_scale(m):
    """Each jet entry's largest finite magnitude over m's domain."""
    c = m.jet(np.linspace(*m.domain, 257))
    return {name: np.nanmax(np.abs(np.broadcast_to(v, (257,))))
            for name, v in zip(CoefficientJet._fields, c)}


def within_ulps_of_math(m):
    """numpy's transcendental functions may differ from math's by an ulp:
    agreement within 1e-14 of the entry's size on the domain."""
    scale = field_scale(m)

    def close(name, got, want):
        err = np.abs(got - want)
        assert np.all(err <= 1e-14 * np.maximum(np.abs(want), scale[name])), \
            (name, err.max())

    return close


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_neumann_array_jet_within_two_ulps(data):
    # the jet is arithmetic alone, but a ** 2 on a float is libm's pow,
    # which misrounds about 1 square in 1,300, where numpy squares exactly:
    # b110 and b220 differ by at most an ulp there, V0 and Y by two
    m = data.draw(admissible_models("neumann"))
    q1 = data.draw(grids(m))

    def close(name, got, want):
        np.testing.assert_array_max_ulp(got, want, maxulp=2)

    assert_array_jet_is_pointwise(m, q1, close)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pendula_array_jets_match_pointwise(data):
    m = data.draw(admissible_models(
        data.draw(st.sampled_from(["pendula_identical", "pendula_weak"]))))
    assert_array_jet_is_pointwise(m, data.draw(grids(m)),
                                  within_ulps_of_math(m))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.4])
def test_pendula_weak_array_jet_near_the_saddle(lam):
    # every branch of h'': the quotient, the power limit, lam = 1 and the
    # nan at the saddle itself
    m = builtin_model("pendula_weak", [lam])
    q1 = np.array([0.0, 1e-7, 5e-6, 1e-5, 2e-5, math.pi,
                   2 * math.pi - 5e-6, 2 * math.pi, 2 * math.pi + 5e-6])
    assert_array_jet_is_pointwise(m, q1, within_ulps_of_math(m))
    # h'' is unbounded at the saddle for 1 < lam < 2
    assert np.isnan(m.jet(q1).db220[0]) == (1.0 < lam < 2.0)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_assembled_array_jet_is_its_pointwise_calls(data):
    # the fields of a model given by its fields may take floats only: the
    # assembled jet maps an array one point at a time
    m = rebuilt(data.draw(admissible_models()))

    def same(name, got, want):
        assert np.array_equal(got, want), name

    assert_array_jet_is_pointwise(m, data.draw(grids(m)), same)


def pointwise(m):
    """m with a jet that maps an array through m's float jet one point at
    a time: the reference for the checks' array calls."""
    def jet(q1):
        if isinstance(q1, np.ndarray):
            return CoefficientJet(*np.array([m.jet(q) for q in q1.tolist()]).T)
        return m.jet(q1)

    return HamiltonianModel.from_jet(
        jet, m.saddle, domain=m.domain, periodic=m.periodic,
        reversibility=m.reversibility, name=m.name, params=m.params,
        matching=m.matching)


@pytest.mark.parametrize("name,params", BUILTINS + [
    ("pendula_identical", [0.6]), ("pendula_weak", [1.5])])
def test_array_checks_match_pointwise_checks(name, params):
    m = builtin_model(name, params, strict=False)
    ref = pointwise(m)
    for e, f in zip(validate_hypotheses(m).entries,
                    validate_hypotheses(ref).entries):
        assert (e.name, e.passed) == (f.name, f.passed)
        assert e.worst == pytest.approx(f.worst, rel=1e-14, abs=1e-300)
    residual = [loop_profile(x).diagnostics["restriction_residual_max"]
                for x in (m, ref)]
    assert residual[0] == pytest.approx(residual[1], abs=1e-14)
