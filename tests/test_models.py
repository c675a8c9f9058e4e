import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from septrans.loops import LoopConstructionError, loop_profile
from septrans.models import (ConstructionError, DomainError, builtin_model,
                             eval_coefficients, hessian_at_origin,
                             validate_hypotheses, HamiltonianModel,
                             COEFF_NAMES)
from septrans.numerics import central_diff
from septrans.riccati import (SolverOptions, riccati_to_linear_oracle,
                              solve_riccati)


def neumann(l1=1.0, l2=2.0):
    return builtin_model("neumann", [l1, l2])


def test_neumann_coefficients_at_zero():
    c = eval_coefficients(neumann(), 0.0)
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
        c = eval_coefficients(m, q1)
        assert (c.b110, c.b120, c.b220) == (1.0, -1.0, 2.0)
        assert (c.b112, c.b122, c.b222) == (0.0, 0.0, 0.0)


def test_pendula_identical_potential_at_pi():
    m = builtin_model("pendula_identical", [0.0])
    c = eval_coefficients(m, math.pi)
    assert c.V0 == pytest.approx(-4.0, abs=1e-14)


def test_eval_coefficients_domain_error():
    with pytest.raises(DomainError):
        eval_coefficients(neumann(), 9.0)
    with pytest.raises(DomainError):
        eval_coefficients(builtin_model("pendula_identical", [0.0]), -1.0)


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
            fn = m.coefficient(cname)
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


def test_analytic_derivatives_match_finite_differences():
    # guards the hand-expanded derivative formulas of the built-ins
    from septrans.numerics import central_diff
    models = [neumann(1.2, 2.6), builtin_model("pendula_identical", [0.2, -0.1]),
              builtin_model("pendula_weak", [2.0])]
    for m in models:
        for cname in ("b120", "b220", "V0", "V1", "Y"):
            fn = m.derivatives.get(cname)
            if fn is None:
                continue
            for q1 in (0.7, 1.9, 3.0):
                assert fn(q1) == pytest.approx(
                    central_diff(m.coefficient(cname), q1), abs=1e-7)


def test_replaced_potential_gives_its_own_hessian():
    m = builtin_model("pendula_identical", [0.2])
    scaled = replace(m, V0=lambda q1: 6.25 * m.V0(q1),
                     V1=lambda q1: 6.25 * m.V1(q1))
    assert hessian_at_origin(scaled) == pytest.approx((12.5, 6.25, 0.8),
                                                      abs=1e-6)
    assert scaled.derivatives == {}


def test_replaced_b220_gives_its_own_derivative():
    m = neumann()
    b220 = lambda q1: m.b220(q1) + 0.07 * q1 * q1
    changed = replace(m, b220=b220)
    assert changed.jet(1.0).db220 == central_diff(b220, 1.0)
    assert changed.jet(1.0).db220 == pytest.approx(1.39, abs=1e-9)


def test_custom_derivatives_without_jet_views_are_kept():
    m = neumann()
    fields = {c: (lambda q1, f=getattr(m, c): f(q1)) for c in COEFF_NAMES}
    derivs = {"V1": lambda q1: 0.0}
    custom = HamiltonianModel(**fields, domain=m.domain, derivatives=derivs)
    assert custom.derivatives is derivs
    assert replace(custom, Y=m.Y).derivatives is derivs


# ---------------------------------------------------------------------------
# the fused jet against the jet assembled from the fields

BUILTINS = [("neumann", [1.3, 2.4]), ("pendula_identical", [0.25, -0.125]),
            ("pendula_weak", [2.0])]


def rebuilt(m, **fields):
    """m rebuilt from its nine fields and derivatives, which takes the
    assembled-jet path; fields replaces some of the nine."""
    kw = {c: getattr(m, c) for c in COEFF_NAMES}
    kw.update(fields)
    return HamiltonianModel(
        **kw, domain=m.domain, periodic=m.periodic,
        reversibility=m.reversibility, derivatives=m.derivatives,
        name=m.name, params=m.params, matching=m.matching)


def plain_solve(m):
    return solve_riccati(m, m.matching[0],
                         opts=SolverOptions(sensitivity_check=False))


@pytest.mark.parametrize("name,params", BUILTINS)
def test_fused_jet_solves_like_assembled_jet(name, params):
    m = builtin_model(name, params)
    copy = rebuilt(m)
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


@st.composite
def admissible_points(draw):
    """A built-in from the boxes of test_acceptance.random_admissible_sets,
    and a point inside its loop."""
    name = draw(st.sampled_from([n for n, _ in BUILTINS]))
    if name == "neumann":
        l1 = draw(st.floats(0.5, 2.0))
        params = [l1, l1 * draw(st.floats(1.1, 4.0))]
    elif name == "pendula_identical":
        f0 = draw(st.floats(0.05, 0.35))
        params = [f0, draw(st.floats(-0.4, 0.4)) * f0]
    else:
        params = [draw(st.floats(1.5, 3.5))]
    m = builtin_model(name, params)
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
