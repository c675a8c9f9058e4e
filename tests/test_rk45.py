"""The in-house DOP853 against scipy's solve_ivp(method="DOP853") as the
reference: on every solve the slope equations make, the same rhs
evaluations and steps, and the same values to 1e-12."""

import functools
import math
import operator

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as tableau

from septrans import riccati
from septrans.loops import loop_profile
from septrans.models import builtin_model
from septrans.numerics import MAX_STEP, OdeResult, _interpolant, dop853
from septrans.riccati import (BlowUpError, SolverOptions, riccati_initial,
                              riccati_to_linear_oracle, solve_riccati)


def scipy_dop853(fun, t_span, y0, rtol, atol, event=None):
    """dop853's contract on top of scipy's solve_ivp, with its steps
    capped at MAX_STEP of the span.  scipy solves the float state as one
    component, and fun, the event, the result and the dense output see
    its float.  scipy builds every step's interpolant, 3 rhs evaluations
    each, when asked for dense output; dop853 builds one when it is first
    read.  So the counts and the mesh states come from a solve without
    dense output, which takes the same steps, and the dense output from a
    second one."""
    def g(t, y):
        return event(t, float(y[0]))
    g.terminal = True

    def solve(dense):
        return scipy_solve_ivp(lambda t, y: [fun(t, float(y[0]))], t_span,
                               [y0], method="DOP853", rtol=rtol, atol=atol,
                               max_step=MAX_STEP * (t_span[1] - t_span[0]),
                               dense_output=dense,
                               events=None if event is None else g)

    r = solve(False)
    fired = event is not None and r.t_events[0].size > 0
    sol = solve(True).sol

    def dense(t):
        return sol(t)[0]
    dense.ts, dense.ys = sol.ts, r.y[0].tolist()
    return OdeResult(float(r.t[-1]), float(r.y[0, -1]), r.nfev, len(r.t) - 1,
                     r.success, fired, dense)


CASES = [("neumann", [1.0, 2.0]), ("neumann", [0.7, 2.9]),
         ("pendula_identical", [0.25, -0.125]), ("pendula_identical", [0.0]),
         ("pendula_weak", [2.0]), ("pendula_weak", [3.4])]
# each route's options (None: the oracle) and riccati.CAP
ROUTES = {
    "plain": (SolverOptions(), riccati.CAP),
    "rtol-1e-12": (SolverOptions(rtol=1e-12, sensitivity_check=False),
                   riccati.CAP),
    "cap-0.3": (SolverOptions(sensitivity_check=False), 0.3),
    "oracle": (None, riccati.CAP),
}


def outcome(monkeypatch, solver, model, route):
    """(what the route returned, the counts of each of its solves) with
    riccati's solver bound to solver: the slope on a grid up to the
    matching point, the oracle's slope there, or the blow-up point."""
    opts, cap = route
    monkeypatch.setattr(riccati, "CAP", cap)
    solves = []

    def recording(*args, **kwargs):
        solves.append(solver(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    target = model.matching[0]
    try:
        if opts is None:
            value = ("oracle", riccati_to_linear_oracle(model, target))
        else:
            sol = solve_riccati(model, target, opts=opts)
            value = ("slope", [sol(q) for q in np.linspace(0.0, target, 9)])
    except BlowUpError as exc:
        value = ("blow-up", exc.q1)
    return value, [(s.nfev, s.nsteps, s.success, s.event) for s in solves]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, params", CASES)
def test_steps_and_values_match_scipy(monkeypatch, name, params, route):
    model = builtin_model(name, params)
    (kind, ours), our_counts = outcome(monkeypatch, dop853, model,
                                       ROUTES[route])
    (ref_kind, ref), ref_counts = outcome(monkeypatch, scipy_dop853, model,
                                          ROUTES[route])
    assert our_counts == ref_counts
    assert kind == ref_kind
    assert np.max(np.abs(np.asarray(ours) - ref)) <= 1e-12


def test_blow_up_event_matches_scipy(monkeypatch):
    # every case above starts beyond cap 0.3 and raises before a step; on
    # pendula_identical [0.45] the slope rises from T0 = 0.66 to 1.42 at pi,
    # so cap 1 is crossed in flight
    model = builtin_model("pendula_identical", [0.45])
    route = (SolverOptions(sensitivity_check=False), 1.0)
    (kind, ours), our_counts = outcome(monkeypatch, dop853, model, route)
    (ref_kind, ref), ref_counts = outcome(monkeypatch, scipy_dop853, model,
                                          route)
    assert kind == ref_kind == "blow-up"
    assert our_counts == ref_counts and our_counts[0][3] is True
    assert 0.0 < ours < model.matching[0]
    assert abs(ours - ref) <= 1e-12


# nfev, nsteps and the slope on the 9-point grid of neumann's two cases,
# as float.hex, each equal bit for bit to a solve on the one-element list
# state the float state replaced (the rtol-1e-12 pair re-recorded when its
# atol became rtol / 1000, on that list-state dop853 as well).  Neumann's jet is
# arithmetic and sqrt alone, so no libm enters: any change to the float
# arithmetic of a step (say, the order of y_new's sum) changes them.
GOLDEN = {
    ("neumann", (1.0, 2.0), "plain"): (614, 45, [
        "0x1.0000000000000p+1", "0x1.f2f06eacbf918p+0",
        "0x1.cecacc06a43bcp+0", "0x1.9b2820dc8225bp+0",
        "0x1.60e2dafc3c178p+0", "0x1.2742b80186518p+0",
        "0x1.e5a8002cd1eedp-1", "0x1.8b42d15cfadb5p-1",
        "0x1.4000000032172p-1"]),
    ("neumann", (1.0, 2.0), "rtol-1e-12"): (1346, 107, [
        "0x1.0000000000000p+1", "0x1.f2f06eaccd4efp+0",
        "0x1.cecacc06b9980p+0", "0x1.9b2820dc8f714p+0",
        "0x1.60e2dafa7d441p+0", "0x1.2742b802cdc9ep+0",
        "0x1.e5a8002c2660ap-1", "0x1.8b42d15e0826cp-1",
        "0x1.400000000009ap-1"]),
    ("neumann", (0.7, 2.9), "plain"): (938, 72, [
        "0x1.7333333333333p+1", "0x1.69826e5496109p+1",
        "0x1.4ea75839053cbp+1", "0x1.2836a875f005fp+1",
        "0x1.f98904c3550edp+0", "0x1.a39d849499a6ep+0",
        "0x1.55a40465f44b2p+0", "0x1.12ca35c35cf43p+0",
        "0x1.b72c234f7dd57p-1"]),
    ("neumann", (0.7, 2.9), "rtol-1e-12"): (2354, 190, [
        "0x1.7333333333333p+1", "0x1.69826e5496542p+1",
        "0x1.4ea758390c2cfp+1", "0x1.2836a875f63bep+1",
        "0x1.f98904c3213c7p+0", "0x1.a39d8493ada14p+0",
        "0x1.55a40465a26b3p+0", "0x1.12ca35c34bac5p+0",
        "0x1.b72c234f72c4ep-1"]),
}


@pytest.mark.parametrize("name, params, route", GOLDEN)
def test_float_arithmetic_matches_its_golden_values(monkeypatch, name,
                                                    params, route):
    model = builtin_model(name, list(params))
    (kind, slope), counts = outcome(monkeypatch, dop853, model,
                                    ROUTES[route])
    nfev, nsteps, want = GOLDEN[name, params, route]
    assert kind == "slope"
    assert counts == [(nfev, nsteps, True, False)]
    assert [float(T).hex() for T in slope] == want


def test_too_small_step_fails_where_scipy_does():
    def square(_t, y):
        return y * y

    # y = 1/(1 - t) has a pole at t = 1
    ours = dop853(square, (0.0, 2.0), 1.0, 1e-9, 1e-12)
    ref = scipy_dop853(square, (0.0, 2.0), 1.0, 1e-9, 1e-12)
    assert not ours.success and not ref.success
    assert (ours.nfev, ours.nsteps) == (ref.nfev, ref.nsteps)
    assert ours.t == pytest.approx(ref.t, abs=1e-12)
    # it stalls at the pole: the last accepted point is 9.6e-11 past it
    assert abs(ours.t - 1.0) < 1e-9


def forced(t, y):
    return -y + math.sin(4.0 * t) + 0.1 * t


def test_forward_solve_and_dense_output_match_scipy():
    ours = dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12)
    ref = scipy_dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12)
    assert (ours.nfev, ours.nsteps) == (ref.nfev, ref.nsteps)
    assert ours.t == ref.t == 3.0
    for t in np.linspace(-1.0, 3.0, 41):
        assert abs(ours.sol(t) - ref.sol(t)) <= 1e-12


def test_dense_output_builds_a_piece_when_first_read():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return forced(t, y)

    res = dop853(rhs, (-1.0, 3.0), 1.0, 1e-10, 1e-12)
    sol = res.sol
    assert len(calls) == res.nfev
    # a mesh point is the state stored there, and costs nothing
    assert sol(3.0) == res.y and sol(sol.ts[2]) == sol.ys[2]
    assert len(calls) == res.nfev
    # a point inside a step builds that step's piece once
    inside = 0.5 * (sol.ts[2] + sol.ts[3])
    first = sol(inside)
    assert sol(inside) == first and len(calls) == res.nfev + 3
    # a point inside every step builds the rest
    for a, b in zip(sol.ts[:-1], sol.ts[1:]):
        sol(0.5 * (a + b))
    assert len(calls) == res.nfev + 3 * res.nsteps


def left_to_right(weights, stages):
    """The sum of w k over the nonzero weights, in stage order."""
    return functools.reduce(operator.add, [w * k for w, k in
                                           zip(weights, stages) if w])


def reference_piece(fun, t, h, y, y_new, k):
    """A step's piece from scipy's DOP853 tableau as stored: its extra
    stages' A rows and its D rows, each summed left to right."""
    k = list(k)
    for i in range(13, 16):
        k.append(fun(t + float(tableau.C[i]) * h,
                      y + h * left_to_right(tableau.A[i].tolist(), k)))
    dy = y_new - y
    return t, h, y, (dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0]),
                     *(h * left_to_right(d, k) for d in tableau.D.tolist()))


def test_piece_is_the_tableau_bit_for_bit():
    # _interpolant writes the tableau's nonzero entries out as literals
    rng = np.random.default_rng(11)
    for _ in range(2000):
        t, y = rng.uniform(-5.0, 5.0, 2)
        h = 10.0 ** rng.uniform(-8.0, 0.0)
        k = tuple((rng.uniform(-1.0, 1.0, 13)
                   * 10.0 ** rng.integers(-4, 5, 13)).tolist())
        step = (float(t), h, float(y), float(y + h * k[0]), k)
        got = _interpolant(forced, *step)
        want = reference_piece(forced, *step)
        assert got[:3] == want[:3]
        assert [f.hex() for f in got[3]] == [f.hex() for f in want[3]]


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (1.0, 1.0)])
def test_span_not_forward_raises(t_span):
    def never(_t, _y):
        raise AssertionError("evaluated the rhs")

    with pytest.raises(ValueError, match="forward"):
        dop853(never, t_span, 1.0, 1e-9, 1e-12)


@pytest.mark.parametrize("f0", [1e300, -math.inf, math.nan])
def test_start_derivative_past_the_error_scale_raises(f0):
    # f0 / (atol + |y0| rtol) overflows: scipy's first trial step, 0.01 d0
    # / d1, is 0, and the next line divided by it; a nan f0 gave a nan
    # step, which the step loop rejected without end
    with pytest.raises(FloatingPointError, match="start derivative"):
        dop853(lambda _t, _y: f0, (0.0, 1.0), 1.0, 1e-9, 1e-12)


def forced_solves():
    return [solver(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12).sol
            for solver in (dop853, scipy_dop853)]


def probe_times(sol, beyond):
    """Random points, every breakpoint, and points the distances beyond
    either end."""
    rng = np.random.default_rng(7)
    ts = np.asarray(sol.ts)
    beyond = np.asarray(beyond)
    return np.concatenate([rng.uniform(ts[0], ts[-1], 50), ts,
                           ts[0] - beyond, ts[-1] + beyond])


def test_dense_output_on_an_array_is_its_calls_bit_for_bit():
    ours, _ref = forced_solves()
    t = probe_times(ours, [1e-9, 0.5])
    got = np.array([ours(s) for s in t])
    assert got.shape == (t.size,)
    assert np.array_equal(got, np.array([ours(s) for s in t.tolist()]))


def test_dense_output_on_an_array_matches_ode_solution():
    # the end pieces' polynomials, extrapolated far, magnify the ulps in
    # which the two solvers' coefficients differ: stay near the ends
    ours, ref = forced_solves()
    t = probe_times(ours, [1e-9, 1e-3])
    got = np.array([ours(s) for s in t])
    assert got.shape == ref(t).shape
    assert np.max(np.abs(got - ref(t))) <= 1e-12


@pytest.mark.parametrize("name, params", CASES)
def test_slope_on_a_grid_is_its_calls(name, params):
    model = builtin_model(name, params)
    sol = solve_riccati(model, model.matching[0])
    eps = sol.epsilon_start
    grid = np.concatenate([[0.0, 0.5 * eps, eps], np.nextafter(eps, 1.0)
                           + np.linspace(0.0, sol.q1_target - eps, 41)])
    grid[-1] = sol.q1_target
    got = np.array([sol(q) for q in grid])
    assert np.array_equal(got, [sol(q) for q in grid.tolist()])
    assert got[:3].tolist() == [sol.T0] * 3


def time_form_oracle(model, q1_target):
    """T(q1_target) through the linear ODE y'' + A y' - B y = 0 in the
    time variable, q1 its third component, by scipy's DOP853 at rtol
    1e-13, seeded at q1 = 1e-7 q1_target on the slope condition y' = b220
    T(0) y and stopped where q1 reaches q1_target."""
    loop = loop_profile(model)
    T0, _ = riccati_initial(loop)
    h = 1e-5
    rate = loop(0.0)[7] * loop(h)[8] / h

    def rhs(_t, y):
        q1, yy, yp = y
        q1dot, alpha, delta, b, db, *_rest = loop(float(q1))
        return [q1dot, yp, -(2.0 * delta - db * q1dot / b) * yp
                + b * alpha * yy]

    def at_target(_t, y):
        return y[0] - q1_target
    at_target.terminal = True

    def b220(q1):
        return loop(q1)[3]

    q1s = 1e-7 * q1_target
    r = scipy_solve_ivp(rhs, (0.0, 100.0 / rate), [q1s, 1.0, b220(q1s) * T0],
                        method="DOP853", rtol=1e-13, atol=1e-12,
                        events=at_target)
    assert r.status == 1 and np.all(r.y[1] > 0.0)
    q1, y, yp = r.y_events[0][0]
    return yp / (b220(q1) * y)


@pytest.mark.parametrize("name, params",
                         CASES + [("pendula_identical", [0.45])])
def test_oracle_matches_the_time_form(name, params):
    model = builtin_model(name, params)
    target = model.matching[0]
    assert riccati_to_linear_oracle(model, target) == pytest.approx(
        time_form_oracle(model, target), abs=2e-11)
