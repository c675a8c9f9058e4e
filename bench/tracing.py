"""Spans and counts for the traced benchmark run, recorded from outside.

``Tracer.install`` rebinds public septrans functions to recording wrappers.
The modules import names directly (``charts.solve_riccati``,
``cli.loop_profile``, ...), so every module binding of a function is
replaced, found by identity.  Each wrapped call records a span: name, op id,
parent span, thread, wall start and end, and thread CPU time.  Counts are
attached to the innermost open span of the calling thread: finite-difference
helper calls, Melnikov integrand evaluations and Riccati right-hand-side
evaluations.  Spans stay in memory; ``write`` saves them when the run ends.

``summarize`` turns the spans into the per-layer metrics.  A layer's time is
the median self time of its spans (see ``self_times``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

MODULES = ("cli", "models", "loops", "riccati", "charts", "melnikov",
           "equilibrium", "numerics")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    op: object
    parent: int | None
    thread: int
    t0: float
    t1: float = 0.0
    cpu: float = 0.0          # thread CPU seconds spent inside the span
    attrs: dict = dataclasses.field(default_factory=dict)


def _solve_name(args, kwargs) -> str:
    opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
    sens = opts is None or opts.sensitivity_check
    return "riccati.solve_sens" if sens else "riccati.solve_plain"


def _after_main(span, args, kwargs, result):
    argv = kwargs.get("argv", args[0] if args else None)
    span.attrs["command"] = argv[0] if argv else None


def _after_solve(span, args, kwargs, result):
    span.attrs["nfev"] = result.diagnostics["n_rhs_evaluations"]
    span.attrs["steps"] = result.diagnostics["n_steps"]


def _after_verdict(span, args, kwargs, result):
    span.attrs["verdict"] = result.verdict


class Tracer:
    def __init__(self, package):
        self.spans: list[Span] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patches = self._plan(package)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            self._local.stack = self._main_stack if main else []
            return self._local.stack

    def _call(self, fn, name, after, args, kwargs):
        stack = self._stack()
        # a worker thread's first span hangs under the main thread's open span
        outer = stack or self._main_stack
        span = Span(next(self._ids), name, self.op,
                    outer[-1].id if outer else None, threading.get_ident(),
                    time.perf_counter(), cpu=time.thread_time())
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        else:
            if after is not None:
                after(span, args, kwargs, result)
            return result
        finally:
            span.t1 = time.perf_counter()
            span.cpu = time.thread_time() - span.cpu
            stack.pop()
            self.spans.append(span)

    def _add(self, key: str, n: int) -> None:
        stack = self._stack()
        if stack:
            attrs = stack[-1].attrs
            attrs[key] = attrs.get(key, 0) + n
            return
        with self._lock:
            if self._main_stack:
                attrs = self._main_stack[-1].attrs
                attrs[key] = attrs.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self._call(fn, span_name, after, args, kwargs)
        return wrapper

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self._add(key, 1)
            return fn(*args, **kwargs)
        return wrapper

    def _melnikov_point(self, fn):
        def wrapper(*args, **kwargs):
            # reduced_melnikov shares one diag dict across the grid, so read
            # this call's tail bound and quadrature error right after it
            if len(args) > 3:
                diag = args[3]
            else:
                diag = kwargs.get("diag")
                if diag is None:
                    diag = kwargs["diag"] = {}

            def after(span, a, k, result):
                span.attrs["tail_bound"] = diag["tail_bound"]
                span.attrs["quad_error"] = diag["quad_error"]
            return self._call(fn, "melnikov.point", after, args, kwargs)
        return wrapper

    def _solve_ivp(self, fn):
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self._add("rhs", sol.nfev)
            return sol
        return wrapper

    def _plan(self, package):
        mods = [getattr(package, m) for m in MODULES] + [package]
        cli, models, loops, riccati, charts, mel, equilibrium, numerics = mods[:-1]
        replace = [
            (cli.main, self._span(cli.main, "cli.main", _after_main)),
            (models.builtin_model,
             self._span(models.builtin_model, "models.builtin_model")),
            (models.validate_hypotheses,
             self._span(models.validate_hypotheses, "models.validate_hypotheses")),
            (loops.loop_profile, self._span(loops.loop_profile, "loops.loop_profile")),
            (riccati.solve_riccati,
             self._span(riccati.solve_riccati, _solve_name, _after_solve)),
            (riccati.riccati_to_linear_oracle,
             self._span(riccati.riccati_to_linear_oracle, "riccati.oracle")),
            (charts.torus_transversality,
             self._span(charts.torus_transversality, "charts.transversality",
                        _after_verdict)),
            (charts.chart_transversality,
             self._span(charts.chart_transversality, "charts.transversality",
                        _after_verdict)),
            (mel.melnikov_potential, self._melnikov_point(mel.melnikov_potential)),
            (mel.melnikov_derivatives,
             self._span(mel.melnikov_derivatives, "melnikov.derivatives")),
            (equilibrium.linearize,
             self._span(equilibrium.linearize, "equilibrium.linearize")),
        ] + [(fn, self._counted(fn, "fd")) for fn in
             (numerics.central_diff, numerics.second_diff, numerics.richardson_diff)]
        patches = []
        for original, wrapper in replace:
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        # the Riccati solver's own binding only; loops uses solve_ivp too
        patches.append((riccati, "solve_ivp", riccati.solve_ivp,
                        self._solve_ivp(riccati.solve_ivp)))
        pert_cls = models.PerturbationModel
        patches.append((pert_cls, "integrand", pert_cls.integrand,
                        self._counted(pert_cls.integrand, "integrand")))
        return patches

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s), default=str) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(spans: list[Span]) -> dict[int, float]:
    """Thread CPU time of each span minus that of its child spans on the
    same thread.  CPU rather than wall time, so that a span in a sweep
    worker thread is not charged for waiting on the interpreter lock."""
    out = {s.id: s.cpu for s in spans}
    threads = {s.id: s.thread for s in spans}
    for s in spans:
        if threads.get(s.parent) == s.thread:
            out[s.parent] -= s.cpu
    return out


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def summarize(spans: list[Span], timed: set, warm: set, values: dict) -> dict:
    """Per-layer metrics from the spans of the timed ops.

    Per-call statistics of a layer that no timed op reached fall back to the
    warm-up ops, which run one op of every workload; per-op counts and
    totals always come from the timed ops.  Returns {name: (value, n)}.
    """
    selft = self_times(spans)
    timed_spans = [s for s in spans if s.op in timed]
    warm_spans = [s for s in spans if s.op in warm]

    def pick(*names, where=lambda s: True):
        for group in (timed_spans, warm_spans):
            found = [s for s in group if s.name in names and where(s)]
            if found:
                return found
        return []

    def med_self(*names):
        found = pick(*names)
        return _median(selft[s.id] for s in found), len(found)

    n_ops = max(1, len(timed))
    solves = pick("riccati.solve_plain", "riccati.solve_sens")
    points = pick("melnikov.point")
    sweeps = pick("cli.main", where=lambda s: s.attrs.get("command") == "sweep")
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    gains = [sum(c.cpu for c in by_parent[s.id] if c.thread != s.thread)
             / (s.t1 - s.t0) for s in sweeps]
    rhs = sum(s.attrs.get("rhs", 0) for s in solves)
    verdicts = [s.attrs.get("verdict") for s in timed_spans
                if s.name == "charts.transversality"]
    gaps = [v["equilibrium.t0_gap"] for op, v in values.items()
            if op in timed and "equilibrium.t0_gap" in v]
    if not gaps:
        gaps = [v["equilibrium.t0_gap"] for op, v in values.items()
                if op in warm and "equilibrium.t0_gap" in v]
    return {
        "cli.main.self_s": med_self("cli.main"),
        "cli.sweep.parallel_gain": (_median(gains), len(gains)),
        "models.builtin_model.s": med_self("models.builtin_model"),
        "models.validate_hypotheses.s": med_self("models.validate_hypotheses"),
        "loops.loop_profile.s": med_self("loops.loop_profile"),
        "loops.loop_profile.calls": (
            sum(s.name == "loops.loop_profile" for s in timed_spans) / n_ops, n_ops),
        "riccati.solve.nfev": (_mean(s.attrs["nfev"] for s in solves
                                     if "nfev" in s.attrs), len(solves)),
        "riccati.solve.steps": (_mean(s.attrs["steps"] for s in solves
                                      if "steps" in s.attrs), len(solves)),
        "riccati.solve_plain.s": med_self("riccati.solve_plain"),
        "riccati.solve_sens.s": med_self("riccati.solve_sens"),
        "riccati.rhs_us": (1e6 * sum(selft[s.id] for s in solves) / rhs
                           if rhs else 0.0, rhs),
        "riccati.oracle.s": med_self("riccati.oracle"),
        "riccati.blowups": (sum(s.attrs.get("error") == "BlowUpError"
                                for s in timed_spans
                                if s.name.startswith("riccati.")), n_ops),
        "charts.transversality.self_s": med_self("charts.transversality"),
        "charts.verdict.transversal": (verdicts.count("transversal"), len(verdicts)),
        "charts.verdict.tangent": (verdicts.count("tangent"), len(verdicts)),
        "charts.verdict.inconclusive": (verdicts.count("inconclusive"),
                                        len(verdicts)),
        "melnikov.point_s": med_self("melnikov.point"),
        "melnikov.integrand_evals_per_point": (
            _mean(s.attrs.get("integrand", 0) for s in points), len(points)),
        "melnikov.tail_bound_max": (max((s.attrs["tail_bound"] for s in points
                                         if "tail_bound" in s.attrs), default=0.0),
                                    len(points)),
        "melnikov.quad_error_max": (max((s.attrs["quad_error"] for s in points
                                         if "quad_error" in s.attrs), default=0.0),
                                    len(points)),
        "melnikov.derivatives.s": med_self("melnikov.derivatives"),
        "equilibrium.linearize.s": med_self("equilibrium.linearize"),
        "equilibrium.t0_gap_max": (max(gaps, default=0.0), len(gaps)),
        "numerics.fd_calls": (sum(s.attrs.get("fd", 0) for s in timed_spans)
                              / n_ops, n_ops),
    }


def coeff_calls_per_rhs(package, cases) -> float:
    """Calls to the nine coefficient functions and to ``derivative`` per
    Riccati right-hand-side evaluation, from one counted plain solve of each
    (model name, params, target) case."""
    models, riccati = package.models, package.riccati
    counts = {"calls": 0, "rhs": 0, "in_rhs": False}

    def counted(fn):
        def f(*args):
            if counts["in_rhs"]:
                counts["calls"] += 1
            return fn(*args)
        return f

    def solve_ivp(fun, *args, **kwargs):
        def rhs(t, y):
            counts["rhs"] += 1
            counts["in_rhs"] = True
            try:
                return fun(t, y)
            finally:
                counts["in_rhs"] = False
        return original_ivp(rhs, *args, **kwargs)

    original_ivp = riccati.solve_ivp
    original_derivative = models.HamiltonianModel.derivative
    riccati.solve_ivp = solve_ivp
    models.HamiltonianModel.derivative = counted(original_derivative)
    try:
        for name, params, target in cases:
            made = models.builtin_model(name, params)
            model = made[0] if isinstance(made, tuple) else made
            model = dataclasses.replace(model, **{
                c: counted(getattr(model, c)) for c in models.COEFF_NAMES})
            riccati.solve_riccati(model, target, opts=riccati.SolverOptions(
                sensitivity_check=False))
    finally:
        riccati.solve_ivp = original_ivp
        models.HamiltonianModel.derivative = original_derivative
    return counts["calls"] / counts["rhs"]
