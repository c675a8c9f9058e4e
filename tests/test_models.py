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
    matching point, the ends and the points near the ends where an
    earlier pendula_weak jet switched to power limits."""
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


def bit_equal(name, got, want):
    assert np.array_equal(got, want), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_neumann_array_jet_equals_float_jet(data):
    # the jet is arithmetic alone, squares included (a ** 2 on a float
    # would be libm's pow, which misrounds about 1 square in 1,300), so
    # both paths round alike
    m = data.draw(admissible_models("neumann"))
    q1 = np.concatenate([data.draw(grids(m)), np.linspace(0.0, 8.0, 2001)])
    assert_array_jet_is_pointwise(m, q1, bit_equal)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pendula_array_jets_match_pointwise(data):
    m = data.draw(admissible_models(
        data.draw(st.sampled_from(["pendula_identical", "pendula_weak"]))))
    assert_array_jet_is_pointwise(m, data.draw(grids(m)),
                                  within_ulps_of_math(m))


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.4])
def test_pendula_weak_array_jet_near_the_saddle(lam):
    # the saddle, points on both sides of 1e-5 from it (where an earlier
    # jet switched between a quotient and a power limit), lam = 1 and the
    # nan at the saddle itself
    m = builtin_model("pendula_weak", [lam])
    q1 = np.array([0.0, 1e-7, 5e-6, 1e-5, 2e-5, math.pi,
                   2 * math.pi - 5e-6, 2 * math.pi, 2 * math.pi + 5e-6])
    assert_array_jet_is_pointwise(m, q1, within_ulps_of_math(m))
    # h'' is unbounded at the saddle for 1 < lam < 2
    assert np.isnan(m.jet(q1).db220[0]) == (1.0 < lam < 2.0)


# pendula_weak's jet entries (b120, b220, V0, V1, Y, S1', b220') at float
# q1, from the definition: h = 4 atan(tan(r/4)^lam) + 2 pi n for q1 = 2 pi n
# + r, b120 = -h', b220 = 1 + h'^2, V0 = cos q1 - 1 + lam^2 (cos h - 1),
# V1 = -lam^2 sin h, Y = lam^2 cos h and S1 = 2 lam sin(h/2), with h', h''
# and S1' by mpmath.diff at step 1e-35 in 120-digit arithmetic (mpmath
# 1.3.0), rounded to doubles.
# The points include both sides of 1e-5, where an earlier jet switched
# between a quotient and a power limit, and stay 1e-2 from 2 pi, where the
# rounding of the float 2 pi limits how well the distance to it is known.
WEAK_GOLDEN = {
    1.0: [
        (1e-07, (-1.0, 2.0, -9.99999999999999e-15, -9.999999999999982e-08,
                 0.999999999999995, 0.9999999999999988, 0.0)),
        (9.99e-06, (-1.0, 2.0, -9.980009999916998e-11, -9.989999999833832e-06,
                    0.9999999999500999, 0.999999999987525, 0.0)),
        (1.001e-05, (-1.0, 2.0, -1.0020009999916334e-10,
                     -1.0009999999832834e-05, 0.9999999999499,
                     0.999999999987475, 0.0)),
        (0.3, (-1.0, 2.0, -0.08932702174878795, -0.29552020666133955,
               0.955336489125606, 0.9887710779360422, 0.0)),
        (1.7, (-1.0, 2.0, -2.2576889885910494, -0.9916648104524686,
               -0.12884449429552464, 0.6599831458849822, 0.0)),
        (3.141592653589793, (-1.0, 2.0, -4.0, -1.2246467991473532e-16, -1.0,
                             6.123233995736766e-17, 0.0)),
        (4.6, (-1.0, 2.0, -2.22430505387011, 0.9936910036334644,
               -0.11215252693505487, -0.6662760212798241, 0.0)),
        (6.2731853071795864, (-1.0, 2.0, -9.999916666944508e-05,
                              0.009999833334166696, 0.9999500004166653,
                              -0.9999875000260416, 0.0)),
        (6.783185307179586, (-1.0, 2.0, -0.24483487621925434,
                             -0.4794255386042028, 0.8775825618903729,
                             -0.9689124217106448, 0.0)),
        (-1.3, (-1.0, 2.0, -1.4650023427508252, 0.963558185417193,
                0.26749882862458735, 0.7960837985490559, 0.0)),
    ],
    1.5: [
        (1e-07, (-0.00023717082451262862, 1.00000005625,
                 -5.000000281249995e-15, -3.557562367689428e-11, 2.25,
                 0.0003557562367689429, 0.5625000000000024)),
        (9.99e-06, (-0.0023705220944091167, 1.000005619375,
                    -4.990033040667846e-11, -3.5522273584572896e-08,
                    2.2499999999999996, 0.0035557831416136746,
                    0.5625000000245601)),
        (1.001e-05, (-0.002372893802950793, 1.000005630625,
                     -5.0100332094175706e-11, -3.562900045115741e-08,
                     2.2499999999999996, 0.0035593407044261895,
                     0.5625000000246585)),
        (0.3, (-0.41332394263771555, 1.1708366815575855, -0.052293676858886584,
               -0.1851419117792236, 2.2423698340155074, 0.6194600692428087,
               0.5829791025175639)),
        (1.7, (-1.11266522992794, 2.2380239138905953, -2.52638097329712,
               -2.0822598169697755, 0.8524635209984046, 1.3858073515047542,
               0.9648391373819385)),
        (3.141592653589793, (-1.5, 3.25, -6.5, -4.133182947122317e-16, -2.25,
                             2.0665914735611586e-16, 1.7221595613009655e-16)),
        (4.6, (-1.1053626209090472, 2.2218265237029184, -2.471009982747529,
               2.0660021698776077, 0.8911425441875258, -1.3852673523944727,
               -0.9617058117405237)),
        (6.2731853071795864, (-0.0750005457057053, 1.0056250818561536,
                              -5.0280835083753924e-05, 0.0011250034629007575,
                              2.249999718748251, -0.11250081504288546,
                              -0.5625245394045469)),
        (6.783185307179586, (-0.5390439726023563, 1.2905684043989298,
                             -0.15798807777174628, -0.3985004492764891,
                             2.214429360337881, -0.8053639288499059,
                             0.6167695766830786)),
        (-1.3, (-0.9338388352655538, 1.8720549702501261, -1.3712824585873806,
                1.5705012765234154, 1.611218712788032, 1.2975351574638734,
                -0.8550421522977227)),
    ],
    2.0: [
        (1e-07, (-5.000000000000004e-08, 1.0000000000000024,
                 -5.000000000000008e-15, -1.0000000000000003e-14, 4.0,
                 1.0000000000000007e-07, 5.000000000000016e-08)),
        (9.99e-06, (-4.9950000000415415e-06, 1.00000000002495,
                    -4.990005000083e-11, -9.980010000041499e-11, 4.0,
                    9.990000000083083e-06, 4.995000000166167e-06)),
        (1.001e-05, (-5.005000000041792e-06, 1.00000000002505,
                     -5.010005000083668e-11, -1.0020010000041835e-10, 4.0,
                     1.0010000000083584e-05, 5.005000000167167e-06)),
        (0.3, (-0.1511255822451, 1.0228389416089205, -0.04568357819130365,
               -0.09032993965428254, 3.99897993268309, 0.3022318940924963,
               0.1545287382273527)),
        (1.7, (-1.046659303054303, 2.095495696670119, -2.3654887800060287,
               -2.8920347847672216, 2.763355714289496, 1.924737265194058,
               1.7191124106553441)),
        (3.141592653589793, (-2.0, 5.0, -10.0, -9.797174393178826e-16, -4.0,
                             4.898587196589413e-16, 7.347880794884119e-16)),
        (4.6, (-1.0328872547902048, 2.0668560811080456, -2.2986592134153976,
               2.8432824999954156, 2.813493313519657, -1.9064386660888744,
               -1.687416897047761)),
        (6.2731853071795864, (-0.005000041666692722, 1.0000250004166686,
                              -5.000083334513917e-05, 0.0001000004166564241,
                              3.9999999987499897, -0.01000008333260418,
                              -0.0050001666678645825)),
        (6.783185307179586, (-0.255214639849123, 1.0651345123933176,
                             -0.13039103824933687, -0.25243855255980535,
                             3.9920263998602903, -0.5101748438473919,
                             0.2711939254925921)),
        (-1.3, (-0.7408558502722221, 1.5488673908825772, -1.134547178126667,
                1.7477777497340456, 3.597953993248746, 1.4439995125207448,
                -1.0457125989768943)),
    ],
    2.5: [
        (1e-07, (-9.882117688026194e-12, 1.0, -4.999999999999995e-15,
                 -2.4705294220065475e-18, 6.25, 2.4705294220065484e-11,
                 2.929687500000009e-15)),
        (9.99e-06, (-9.867298217998463e-09, 1.0, -4.9900049999584994e-11,
                    -2.464357729934868e-13, 6.25, 2.4668245544996157e-08,
                    2.923831054778687e-11)),
        (1.001e-05, (-9.896944569827927e-09, 1.0, -5.0100049999581676e-11,
                     -2.476710378589099e-13, 6.25, 2.474236142456982e-08,
                     2.93554980477942e-11)),
        (0.3, (-0.05178442072780208, 1.002681626230114, -0.044783281716683734,
               -0.03869265025256485, 6.24988022915771, 0.1294604315916507,
               0.027118372880425436)),
        (1.7, (-0.9000043205896158, 1.8100077770799758, -2.043217313788812,
               -3.2547784242000235, 5.335627180506712, 2.166154209487357,
               1.8833935465536793)),
        (3.141592653589793, (-2.5, 7.25, -14.5, -1.9135106236677395e-15, -6.25,
                             9.567553118338697e-16, 2.0091861548511263e-15)),
        (4.6, (-0.8825235770512189, 1.7788478640512786, -1.9783501470376545,
               3.1744561635359037, 5.3838023798974, -2.1284926749201856,
               -1.8231296911376824)),
        (6.2731853071795864, (-0.00031250292970466263, 1.0000000976580812,
                              -4.99995882175859e-05, 7.812540690267243e-06,
                              6.249999999995117, -0.000781257324261504,
                              -2.9297790540858274e-05)),
        (6.783185307179586, (-0.11310983551794308, 1.012793834890896,
                             -0.12398362660056823, -0.13991033982652668,
                             6.2484338115090585, -0.2827568731076582,
                             0.07916800491264869)),
        (-1.3, (-0.5421320780437666, 1.2939071900440526, -0.9477885323583373,
                1.626266695375505, 6.0347126390170756, 1.3436080850144076,
                -0.8170016481661917)),
    ],
    3.5: [
        (1e-07, (-3.4587411908091686e-19, 1.0, -4.999999999999995e-15,
                 -1.2105594167832085e-25, 12.25, 1.210559416783209e-18,
                 5.981445312500018e-30)),
        (9.99e-06, (-3.4501008219303357e-14, 1.0, -4.990004999958499e-11,
                    -1.2063277523829254e-18, 12.25, 1.2075352876756175e-13,
                    5.957555396192829e-22)),
        (1.001e-05, (-3.467394530046453e-14, 1.0, -5.010004999958167e-11,
                     -1.214801673596703e-18, 12.25, 1.2135880855162586e-13,
                     6.005407006546698e-22)),
        (0.3, (-0.00544759520109052, 1.0000296762934748, -0.04466483632185031,
               -0.005698549019116298, 12.249998674552543, 0.019066582688066727,
               0.0004986944257852435)),
        (1.7, (-0.5788345252332769, 1.3350494076020332, -1.5070631733840567,
               -3.020481463021676, 11.871781320911468, 2.010222443148665,
               1.2544706144187974)),
        (3.141592653589793, (-3.5, 13.25, -26.5, -5.2506731513442766e-15,
                             -12.25, 2.6253365756721383e-15,
                             8.43858185037473e-15)),
        (4.6, (-0.5608452401944504, 1.3145473834487706, -1.461977194278415,
               2.9066006007070233, 11.900175332656639, -1.9488938478937472,
               -1.184720777944442)),
        (6.2731853071795864, (-1.0937625326393219e-06, 1.0000000000011964,
                              -4.9999583334782354e-05, 3.828152913553976e-08,
                              12.25, -3.828168864237626e-06,
                              -5.981637220334801e-10)),
        (6.783185307179586, (-0.019898578038299357, 1.0003959534079463,
                             -0.12246590971143873, -0.03446087484216062,
                             12.249951528398189, -0.06964495424001715,
                             0.004050830005149263)),
        (-1.3, (-0.25672240155423737, 1.065906391459775, -0.7807776803208244,
                1.0864823274433097, 12.201723491054588, 0.8976427073918726,
                -0.2940878701676552)),
    ],
}


@pytest.mark.parametrize("lam", sorted(WEAK_GOLDEN))
def test_pendula_weak_jet_matches_golden_values(lam):
    m = builtin_model("pendula_weak", [lam])
    names = ("b120", "b220", "V0", "V1", "Y", "dS1", "db220")
    for q1, ref in WEAK_GOLDEN[lam]:
        for got in (m.jet(q1), m.jet(np.array([q1]))):
            for name, want in zip(names, ref):
                value = float(np.broadcast_to(getattr(got, name), (1,))[0])
                assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), \
                    (q1, name, value, want)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_assembled_array_jet_is_its_pointwise_calls(data):
    # the fields of a model given by its fields may take floats only: the
    # assembled jet maps an array one point at a time
    m = rebuilt(data.draw(admissible_models()))
    assert_array_jet_is_pointwise(m, data.draw(grids(m)), bit_equal)


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
