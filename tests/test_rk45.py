"""The in-house DOP853 against scipy's solve_ivp(method="DOP853") as the
reference: on every solve the slope equations make, the same rhs
evaluations and steps, and the same values to 1e-12."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from septrans import riccati
from septrans.models import builtin_model
from septrans.numerics import MAX_STEP, OdeResult, dop853
from septrans.riccati import (BlowUpError, SolverOptions,
                              riccati_to_linear_oracle, solve_riccati)


def scipy_dop853(fun, t_span, y0, rtol, atol, events=(),
                 dense_output=False):
    """dop853's contract on top of scipy's solve_ivp, with its steps
    capped at MAX_STEP of the span.  scipy builds every step's
    interpolant, 3 rhs evaluations each, when asked for dense output;
    dop853 builds one when it is first read.  So the counts come from a
    solve without dense output, which takes the same steps, and the dense
    output from a second one.  A number y0 is a float state: scipy solves
    it as one component, and fun, the events, the result and the dense
    output see its float."""
    scalar = isinstance(y0, (int, float))

    def state(y):
        # scipy passes the initial state as given, later ones as arrays
        y = np.asarray(y)
        return float(y[0]) if scalar else y.tolist()

    def terminal(event):
        def g(t, y):
            return event(t, state(y))
        g.terminal = True
        return g

    def solve(dense):
        return scipy_solve_ivp(lambda t, y: np.atleast_1d(fun(t, state(y))),
                               t_span, np.atleast_1d(y0), method="DOP853",
                               rtol=rtol, atol=atol,
                               max_step=MAX_STEP * (t_span[1] - t_span[0]),
                               dense_output=dense,
                               events=[terminal(e) for e in events] or None)

    r = solve(False)
    fired = [i for i, te in enumerate(r.t_events or ()) if te.size]
    sol = solve(True).sol if dense_output else None
    if scalar and sol:
        def dense(t):
            return sol(t)[0]
        dense.ts = sol.ts
    return OdeResult(float(r.t[-1]), state(r.y[:, -1]), r.nfev,
                     len(r.t) - 1, r.success, fired[0] if fired else None,
                     dense if scalar and sol else sol)


CASES = [("neumann", [1.0, 2.0]), ("neumann", [0.7, 2.9]),
         ("pendula_identical", [0.25, -0.125]), ("pendula_identical", [0.0]),
         ("pendula_weak", [2.0]), ("pendula_weak", [3.4])]
ROUTES = {
    "plain": SolverOptions(),
    "rtol-1e-12": SolverOptions(rtol=1e-12, atol=5e-14,
                                sensitivity_check=False),
    "cap-0.3": SolverOptions(cap=0.3, sensitivity_check=False),
    "oracle": None,
}


def outcome(monkeypatch, solver, model, opts):
    """(what the route returned, the counts of each of its solves) with
    riccati's solver bound to solver: the slope on a grid up to the
    matching point, the oracle's slope there, or the blow-up point."""
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
            value = ("slope", sol(np.linspace(0.0, target, 9)))
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
    opts = SolverOptions(cap=1.0, sensitivity_check=False)
    (kind, ours), our_counts = outcome(monkeypatch, dop853, model, opts)
    (ref_kind, ref), ref_counts = outcome(monkeypatch, scipy_dop853, model,
                                          opts)
    assert kind == ref_kind == "blow-up"
    assert our_counts == ref_counts and our_counts[0][3] == 0
    assert 0.0 < ours < model.matching[0]
    assert abs(ours - ref) <= 1e-12


def bits(v):
    """v's floats as bytes: equal only bit for bit (-0.0 is not 0.0)."""
    return np.asarray(v, dtype=float).tobytes()


def float_against_list(compared):
    """dop853 that solves a float state a second time as a one-element
    list, checks that both give the same result and dense output bit for
    bit, appends the float solve to compared and returns it; a list state
    (the oracle's) is solved once."""
    def solve(fun, t_span, y0, rtol, atol, events=(), dense_output=False):
        ours = dop853(fun, t_span, y0, rtol, atol, events=events,
                      dense_output=dense_output)
        if isinstance(y0, list):
            return ours
        ref = dop853(lambda t, y: [fun(t, y[0])], t_span, [y0], rtol, atol,
                     events=[lambda t, y, e=e: e(t, y[0]) for e in events],
                     dense_output=dense_output)
        assert type(ours.y) is float and type(ref.y) is list
        assert (ours.nfev, ours.nsteps, ours.success, ours.event) == (
            ref.nfev, ref.nsteps, ref.success, ref.event)
        assert bits([ours.t, ours.y]) == bits([ref.t, *ref.y])
        if dense_output:
            ts = ours.sol.ts
            assert bits(ts) == bits(ref.sol.ts)
            # mesh points, points inside every step, then beyond either end
            inner = [a + (b - a) * x for a, b in zip(ts, ts[1:])
                     for x in (0.1, 0.5, 0.93)]
            probes = ts + inner + [ts[0] - 1e-3, ts[-1] + 1e-3]
            for t in probes:
                assert type(ours.sol(t)) is float
                assert bits(ours.sol(t)) == bits(ref.sol(t))
            got, want = ours.sol(np.array(probes)), ref.sol(probes)
            assert got.shape == (len(probes),)
            assert bits(got) == bits(want[0])
        compared.append(ours)
        return ours
    return solve


# the slope solves each route makes on a float state: cap 0.3 raises
# before its solve (every case starts beyond it), and the oracle's state
# has three components
FLOAT_SOLVES = {"plain": 1, "rtol-1e-12": 1, "cap-0.3": 0, "oracle": 0}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, params", CASES)
def test_float_state_is_its_one_element_list_bit_for_bit(monkeypatch, name,
                                                         params, route):
    compared = []
    model = builtin_model(name, params)
    outcome(monkeypatch, float_against_list(compared), model, ROUTES[route])
    assert len(compared) == FLOAT_SOLVES[route]


def test_float_state_blow_up_is_its_one_element_list_bit_for_bit(
        monkeypatch):
    compared = []
    model = builtin_model("pendula_identical", [0.45])
    opts = SolverOptions(cap=1.0, sensitivity_check=False)
    (kind, _q1), _counts = outcome(monkeypatch, float_against_list(compared),
                                   model, opts)
    assert kind == "blow-up"
    assert len(compared) == 1 and compared[0].event == 0


def test_too_small_step_fails_where_scipy_does():
    def square(_t, y):
        return [y[0] * y[0]]

    # y = 1/(1 - t) has a pole at t = 1
    ours = dop853(square, (0.0, 2.0), [1.0], 1e-9, 1e-12)
    ref = scipy_dop853(square, (0.0, 2.0), [1.0], 1e-9, 1e-12)
    assert not ours.success and not ref.success
    assert (ours.nfev, ours.nsteps) == (ref.nfev, ref.nsteps)
    assert ours.t == pytest.approx(ref.t, abs=1e-12)
    # it stalls at the pole: the last accepted point is 9.6e-11 past it
    assert abs(ours.t - 1.0) < 1e-9


def test_forward_solve_and_dense_output_match_scipy():
    def rotation(t, y):
        return [y[1], -y[0] + 0.1 * t]

    ours = dop853(rotation, (-1.0, 3.0), [1.0, 0.5], 1e-10, 1e-12,
                  dense_output=True)
    ref = scipy_dop853(rotation, (-1.0, 3.0), [1.0, 0.5], 1e-10, 1e-12,
                       dense_output=True)
    assert (ours.nfev, ours.nsteps) == (ref.nfev, ref.nsteps)
    assert ours.t == ref.t == 3.0
    for t in np.linspace(-1.0, 3.0, 41):
        assert np.max(np.abs(np.asarray(ours.sol(t)) - ref.sol(t))) <= 1e-12


def test_dense_output_builds_a_piece_when_first_read():
    calls = []

    def rotation(t, y):
        calls.append(t)
        return [y[1], -y[0] + 0.1 * t]

    res = dop853(rotation, (-1.0, 3.0), [1.0, 0.5], 1e-10, 1e-12,
                 dense_output=True)
    sol = res.sol
    assert len(calls) == res.nfev
    # a mesh point is the state stored there, and costs nothing
    assert sol(3.0) == res.y and sol(sol.ts[2]) == sol.ys[2]
    assert len(calls) == res.nfev
    # a point inside a step builds that step's piece once
    inside = 0.5 * (sol.ts[2] + sol.ts[3])
    first = sol(inside)
    assert sol(inside) == first and len(calls) == res.nfev + 3
    # an array call builds the rest
    sol(np.linspace(-1.0, 3.0, 5))
    assert len(calls) == res.nfev + 3 * res.nsteps


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (1.0, 1.0)])
def test_span_not_forward_raises(t_span):
    def never(_t, _y):
        raise AssertionError("evaluated the rhs")

    with pytest.raises(ValueError, match="forward"):
        dop853(never, t_span, [1.0], 1e-9, 1e-12)


def rotation_solves():
    def rotation(t, y):
        return [y[1], -y[0] + 0.1 * t]

    return [solver(rotation, (-1.0, 3.0), [1.0, 0.5], 1e-10, 1e-12,
                   dense_output=True).sol for solver in (dop853, scipy_dop853)]


def probe_times(sol, beyond):
    """Random points, every breakpoint, and points the distances beyond
    either end."""
    rng = np.random.default_rng(7)
    ts = np.asarray(sol.ts)
    beyond = np.asarray(beyond)
    return np.concatenate([rng.uniform(ts[0], ts[-1], 50), ts,
                           ts[0] - beyond, ts[-1] + beyond])


def test_dense_output_on_an_array_is_its_calls_bit_for_bit():
    ours, _ref = rotation_solves()
    t = probe_times(ours, [1e-9, 0.5])
    got = ours(t)
    assert got.shape == (2, t.size)
    assert np.array_equal(got, np.array([ours(s) for s in t.tolist()]).T)


def test_dense_output_on_an_array_matches_ode_solution():
    # the end pieces' polynomials, extrapolated far, magnify the ulps in
    # which the two solvers' coefficients differ: stay near the ends
    ours, ref = rotation_solves()
    t = probe_times(ours, [1e-9, 1e-3])
    assert ours(t).shape == ref(t).shape
    assert np.max(np.abs(ours(t) - ref(t))) <= 1e-12


@pytest.mark.parametrize("name, params", CASES)
def test_slope_on_a_grid_is_its_calls(name, params):
    model = builtin_model(name, params)
    sol = solve_riccati(model, model.matching[0])
    eps = sol.epsilon_start
    grid = np.concatenate([[0.0, 0.5 * eps, eps], np.nextafter(eps, 1.0)
                           + np.linspace(0.0, sol.q1_target - eps, 41)])
    grid[-1] = sol.q1_target
    got = sol(grid)
    assert np.array_equal(got, [sol(q) for q in grid.tolist()])
    assert got[:3].tolist() == [sol.T0] * 3
