"""The in-house DOP853 against scipy's solve_ivp(method="DOP853") as the
reference: on every solve the slope equations make, the same rhs
evaluations and steps, and the same values to 1e-12."""

import functools
import math
import operator

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as tableau

from septrans import riccati
from septrans.loops import loop_profile
from septrans.models import builtin_model
from septrans.numerics import (MAX_STEP, OdeResult, _interpolant, dop853,
                               richardson_diff)
from septrans.riccati import (BlowUpError, SolverOptions, riccati_initial,
                              riccati_to_linear_oracle, solve_riccati)


def scipy_dop853(fun, t_span, y0, rtol, atol, event=None, first_step=None):
    """dop853's contract on top of scipy's solve_ivp, with its steps
    capped at MAX_STEP of the span.  scipy solves the float state as one
    component, and fun, the event, the result and the dense output see
    its float.  scipy builds every step's interpolant, 3 rhs evaluations
    each, when asked for dense output; dop853 builds one when it is first
    read.  So the counts and the mesh states come from a solve without
    dense output, which takes the same steps, and the dense output from a
    second one.  A first_step bound gives scipy the smaller of it and
    scipy's own start-step heuristic, read off a DOP853 solver made on the
    same problem, and the count adds the heuristic's one evaluation."""
    def g(t, y):
        return event(t, float(y[0]))
    g.terminal = True

    def f(t, y):
        return [fun(t, float(y[0]))]

    max_step = MAX_STEP * (t_span[1] - t_span[0])
    probe = 0
    if first_step is not None:
        heuristic = DOP853(f, t_span[0], [y0], t_span[1], max_step=max_step,
                           rtol=rtol, atol=atol).h_abs
        first_step, probe = min(heuristic, first_step), 1

    def solve(dense):
        return scipy_solve_ivp(f, t_span, [y0], method="DOP853", rtol=rtol,
                               atol=atol, max_step=max_step,
                               first_step=first_step, dense_output=dense,
                               events=None if event is None else g)

    r = solve(False)
    fired = event is not None and r.t_events[0].size > 0
    sol = solve(True).sol

    def dense(t):
        return sol(t)[0]
    dense.ts, dense.ys = sol.ts, r.y[0].tolist()
    return OdeResult(float(r.t[-1]), float(r.y[0, -1]), r.nfev + probe,
                     len(r.t) - 1, r.success, fired, dense)


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
# Re-recorded when the slope solve's first step was capped at its start
# offset epsilon: scipy's heuristic guessed tens of epsilon on both cases,
# and each value moved by at most 1.1e-12 of itself (the error against
# the closed form T(2) = (lambda2 + lambda1 - lambda1^2 / lambda2) / 4 is
# within 3% of what it was).  pendula_weak [3.4] was recorded before the
# cap: its heuristic step is below epsilon, so the cap leaves its steps
# as they were.  Its jet calls tan and pow, so its bits are glibc's libm.
GOLDEN = {
    ("neumann", (1.0, 2.0), "plain"): (578, 45, [
        "0x1.0000000000000p+1", "0x1.f2f06eacc0258p+0",
        "0x1.cecacc06a54a0p+0", "0x1.9b2820dc83778p+0",
        "0x1.60e2dafc25ce4p+0", "0x1.2742b801f7e6dp+0",
        "0x1.e5a8002cd3de4p-1", "0x1.8b42d15d22a2fp-1",
        "0x1.400000003383fp-1"]),
    ("neumann", (1.0, 2.0), "rtol-1e-12"): (1322, 107, [
        "0x1.0000000000000p+1", "0x1.f2f06eaccd4eep+0",
        "0x1.cecacc06b997ap+0", "0x1.9b2820dc8f70fp+0",
        "0x1.60e2dafa7d432p+0", "0x1.2742b802cdc9cp+0",
        "0x1.e5a8002c26632p-1", "0x1.8b42d15e0826cp-1",
        "0x1.4000000000098p-1"]),
    ("neumann", (0.7, 2.9), "plain"): (926, 72, [
        "0x1.7333333333333p+1", "0x1.69826e54a2912p+1",
        "0x1.4ea7583903a0cp+1", "0x1.2836a875e83cbp+1",
        "0x1.f98904c36744fp+0", "0x1.a39d8493cd7acp+0",
        "0x1.55a404661918ap+0", "0x1.12ca35c35b6d8p+0",
        "0x1.b72c234f7e524p-1"]),
    ("neumann", (0.7, 2.9), "rtol-1e-12"): (2330, 190, [
        "0x1.7333333333333p+1", "0x1.69826e5496542p+1",
        "0x1.4ea758390c2d2p+1", "0x1.2836a875f63bcp+1",
        "0x1.f98904c3213a7p+0", "0x1.a39d8493ada3bp+0",
        "0x1.55a40465a26b0p+0", "0x1.12ca35c34bab8p+0",
        "0x1.b72c234f72c52p-1"]),
    ("pendula_weak", (3.4,), "plain"): (350, 26, [
        "0x1.b333333333333p+1", "0x1.b3332ad0f60cfp+1",
        "0x1.b32f687c75e8fp+1", "0x1.b2f05cd038bcfp+1",
        "0x1.b1089268f918dp+1", "0x1.a712d7ecdb5eap+1",
        "0x1.7e7e74384a68fp+1", "0x1.fe43b40860b3dp+0",
        "0x1.6564e80000000p-32"]),
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


def first_steps(monkeypatch):
    """Rebinds riccati.solve_ivp to record, per solve, its start offset and
    first accepted step."""
    seen = []

    def recording(*args, **kwargs):
        res = dop853(*args, **kwargs)
        ts = res.sol.ts
        seen.append((ts[0], ts[1] - ts[0]))
        return res

    monkeypatch.setattr(riccati, "solve_ivp", recording)
    return seen


@pytest.mark.parametrize("stable", [False, True], ids=["unstable", "stable"])
@pytest.mark.parametrize("rtol", [1e-9, 1e-12])
@pytest.mark.parametrize("name, params", CASES)
def test_slope_solve_first_step_is_at_most_its_start_offset(
        monkeypatch, name, params, rtol, stable):
    # scipy's heuristic guesses up to 74 epsilon at the singular point,
    # 47 on neumann [1.2, 3]; a smaller epsilon than the default is
    # capped the same way
    seen = first_steps(monkeypatch)
    model = builtin_model(name, params)
    target = model.matching[0]
    for eps in (None, 1e-6):
        solve_riccati(model, target, stable=stable, opts=SolverOptions(
            rtol=rtol, epsilon=eps, sensitivity_check=False))
    assert len(seen) == 2
    for start, step in seen:
        assert 0.0 < step <= start
    assert seen[1][0] == 1e-6


def test_cap_takes_the_smaller_step():
    # a bound above the heuristic's step changes nothing; one below it
    # gives the first step, after the heuristic's own evaluation
    free = dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12)
    first = free.sol.ts[1] - free.sol.ts[0]
    loose = dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12, first_step=1.0)
    assert (loose.nfev, loose.sol.ts) == (free.nfev, free.sol.ts)
    tight = dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12,
                   first_step=first / 4)
    assert tight.sol.ts[1] - tight.sol.ts[0] == first / 4
    ref = scipy_dop853(forced, (-1.0, 3.0), 1.0, 1e-10, 1e-12,
                       first_step=first / 4)
    assert (tight.nfev, tight.nsteps) == (ref.nfev, ref.nsteps)


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
    time variable, T = y'/(b220 y), with A = 2 delta - b220' q1dot / b220
    and B = b220 alpha, q1 its third component, by scipy's DOP853 at rtol
    1e-13, seeded at q1 = 1e-7 q1_target on the slope condition y' = b220
    T(0) y and stopped where q1 reaches q1_target.  b220', which the
    model does not supply, is a Richardson difference at step 3e-4 q1: on
    pendula_weak, whose exact T(pi) is 0, it reads within 1e-12 of 0 at
    lam 1 to 3.4, where the step 1e-3 q1 read 1.7e-11 at lam 3.4."""
    loop = loop_profile(model)
    T0, _ = riccati_initial(loop)
    h = 1e-5
    rate = loop(h)[0] / h

    def b220(q1):
        return loop(q1)[3]

    def rhs(_t, y):
        q1, yy, yp = y
        q1 = float(q1)
        q1dot, alpha, delta, b, *_rest = loop(q1)
        db = richardson_diff(b220, q1, 3e-4 * q1)
        return [q1dot, yp, -(2.0 * delta - db * q1dot / b) * yp
                + b * alpha * yy]

    def at_target(_t, y):
        return y[0] - q1_target
    at_target.terminal = True

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
