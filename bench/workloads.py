"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one caller: the next op starts when the
previous one has returned.  Parameters come from the admissible boxes of
``tests/test_acceptance.py::random_admissible_sets``.  Draws are stratified
(see ``Strata``) so that the parameter mix of a run, and with it the median
latency, moves little from one seed to the next.

An op runs in process through ``septrans.cli.main`` or the public library
functions (``steps``: the calls that make up the op, in order, each
returning one result), or as fresh processes (``run_cold``); both give the
same list of results, which ``check`` compares with closed forms and with
independent routes.  Run as a script, this module executes one crosscheck op
given as JSON and prints its values; the cold crosscheck uses that.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from septrans import charts, cli, equilibrium, melnikov, models, riccati

PI = math.pi
FAMILIES = ("neumann", "pendula_identical", "pendula_weak")
VERDICT_CODE = {"transversal": 1.0, "tangent": 0.0, "inconclusive": -1.0}
# threshold of the frequency ratio, computed offline with mpmath at 40
# digits (root of xi_max(lam) = pi/2)
LAMBDA0 = 3.6807790226683075955
SUBPROCESS_TIMEOUT = 120.0


class Checks:
    """Collects the output checks of one op.

    ``close`` records the correct digits -log10(|err| / max(1, |ref|)),
    capped at 16, and fails the op when the error exceeds ``tol`` times
    max(1, |ref|).  ``values`` carries numbers that only a check computes,
    for the traced run's per-layer metrics.
    """

    def __init__(self):
        self.digits: list[float] = []
        self.failures: list[str] = []
        self.values: dict[str, float] = {}   # per-layer values seen by checks

    def close(self, what: str, got: float, ref: float, tol: float) -> None:
        rel = abs(got - ref) / max(1.0, abs(ref))
        if not math.isfinite(rel):
            self.failures.append("%s: got %r, expected %r" % (what, got, ref))
            return
        self.digits.append(-math.log10(max(rel, 1e-16)))
        if rel > tol:
            self.failures.append("%s: got %.17g, expected %.17g (err %.3g > %.3g)"
                                 % (what, got, ref, rel, tol))

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


class Strata:
    """Stratified draws on the unit square.

    Each block of ``k`` draws visits the cells (j, 3j mod k), j < k, of a
    fixed Latin square once each, in a seeded order, at a seeded position
    inside each cell.  Both coordinates are stratified, and every block
    covers the same cells, so that the mix of cheap and costly inputs in a
    run changes little from seed to seed.  ``k`` must be prime to 3.
    """

    def __init__(self, rng: random.Random, k: int = 8):
        self.rng = rng
        self.k = k
        self.order: list[int] = []

    def __call__(self) -> tuple[float, float]:
        if not self.order:
            self.order = list(range(self.k))
            self.rng.shuffle(self.order)
        j = self.order.pop()
        return ((j + self.rng.random()) / self.k,
                ((3 * j) % self.k + self.rng.random()) / self.k)


@dataclass
class Op:
    """One unit of work with its inputs; ``points`` are the parameter (or
    section) points it completes."""
    kind: str
    params: dict
    points: int
    argvs: list = field(default_factory=list)    # CLI argument lists
    models: list = field(default_factory=list)   # (name, params) built by setup


# ---------------------------------------------------------------------------
# reference values

def neumann_slope(l1: float, l2: float) -> float:
    """T(2) of the sphere model: (lambda2 + lambda1 - lambda1^2/lambda2)/4."""
    return 0.25 * (l2 + l1 - l1 * l1 / l2)


def constant_coupling_slope(f0: float) -> float:
    """T(pi) of identical pendula with constant coupling f0: (b - 1/b)/2,
    b = sqrt(1 - 2 f0)."""
    b = math.sqrt(1.0 - 2.0 * f0)
    return 0.5 * (b - 1.0 / b)


def weak_potential_lam1(s: float) -> float:
    """Reduced Melnikov potential of pendula_weak at lam = 1."""
    return -4.0 * math.tanh(s / 2.0) * (s / math.cosh(s / 2.0) ** 2
                                        + 2.0 * math.tanh(s / 2.0))


def cosine_bracket(f0: float, f1: float) -> tuple[float, float]:
    """T(pi) for f = f0 + f1 cos lies between the constant-coupling slopes
    of the extreme values of f."""
    a = constant_coupling_slope(f0 - abs(f1))
    b = constant_coupling_slope(f0 + abs(f1))
    return min(a, b) - 1e-9, max(a, b) + 1e-9


# ---------------------------------------------------------------------------
# helpers

def draw_point(family: str, strata: Strata) -> list[float]:
    u, v = strata()
    if family == "neumann":
        l1 = 0.5 + 1.5 * u
        return [l1, l1 * (1.1 + 2.9 * v)]
    if family == "pendula_identical":
        f0 = 0.05 + 0.30 * u
        return [f0, (-0.4 + 0.8 * v) * f0]
    return [1.5 + 2.0 * u]


def cli_params(family: str, p: list[float]) -> list[str]:
    if family == "neumann":
        keys = ("lambda1", "lambda2")
    elif family == "pendula_identical":
        keys = ("f0", "f1")
    else:
        keys = ("lam",)
    return ["--model", family, "--params"] + ["%s=%r" % kv for kv in zip(keys, p)]


def target_of(family: str) -> float:
    return 2.0 if family == "neumann" else PI


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_processes(argvs: list[list[str]], python: str, env: dict,
                  cwd: str) -> list[tuple[int, str, str]]:
    results = []
    for argv in argvs:
        proc = subprocess.run([python] + argv, env=env, cwd=cwd,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def table(text: str) -> tuple[dict, list[list[float]]]:
    """Comments and rows of a CSV table written by the CLI."""
    comments, rows, header = {}, [], False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            comments[k.strip()] = v.strip()
        elif not header:
            header = True
        else:
            rows.append([float(c) for c in line.split(",")])
    return comments, rows


def expect_ok(results, checks: Checks) -> bool:
    for rc, _out, err in results:
        if rc != 0:
            checks.failures.append("exit code %d: %s" % (rc, err.strip()[-300:]))
            return False
    return True


class CliWorkload:
    """A workload whose op is one or more CLI commands."""

    def steps(self, op: Op) -> list:
        return [partial(run_cli, argv) for argv in op.argvs]

    def run_cold(self, op: Op, python: str, env: dict, cwd: str):
        return run_processes([["-m", "septrans"] + a for a in op.argvs],
                             python, env, cwd)


# ---------------------------------------------------------------------------
# workloads

class Verdict(CliWorkload):
    """validate, transversality and riccati on one parameter point, the
    family rotating over the three built-ins."""
    name = "verdict"

    def ops(self, rng: random.Random):
        strata = {f: Strata(rng) for f in FAMILIES}
        i = 0
        while True:
            family = FAMILIES[i % 3]
            yield self.op(family, draw_point(family, strata[family]))
            i += 1

    def warmup_op(self) -> Op:
        return self.op("neumann", [1.0, 2.0])

    def op(self, family: str, p: list[float]) -> Op:
        args = cli_params(family, p)
        return Op(self.name, {"family": family, "p": p}, 1,
                  argvs=[["validate"] + args, ["transversality"] + args,
                         ["riccati"] + args],
                  models=[(family, p)])

    def check(self, op: Op, results, checks: Checks) -> None:
        if not expect_ok(results, checks):
            return
        family, p = op.params["family"], op.params["p"]
        checks.true("validate reports a failed hypothesis",
                    json.loads(results[0][1])["ok"] is True)
        rep = json.loads(results[1][1])
        _, rows = table(results[2][1])
        q1, T = rows[-1]
        checks.true("riccati grid ends at %r, not the matching point" % q1,
                    q1 == target_of(family))
        if family == "neumann":
            l1, l2 = p
            checks.true("verdict %s, expected transversal" % rep["verdict"],
                        rep["verdict"] == "transversal")
            checks.close("neumann T(2)", T, neumann_slope(l1, l2), 1e-6)
            checks.close("neumann gap", rep["gap"],
                         2.0 * neumann_slope(l1, l2) - l1 / 2.0, 1e-6)
        elif family == "pendula_identical":
            lo, hi = cosine_bracket(*p)
            checks.true("verdict %s, expected transversal" % rep["verdict"],
                        rep["verdict"] == "transversal")
            checks.true("T(pi)=%r outside [%r, %r]" % (T, lo, hi), lo <= T <= hi)
            checks.close("riccati T(pi) vs transversality Tu", T, rep["Tu"], 1e-6)
        else:
            checks.true("verdict %s, expected tangent" % rep["verdict"],
                        rep["verdict"] == "tangent")
            checks.close("pendula_weak T(pi)", T, 0.0, 1e-6)
            checks.close("pendula_weak Tu", rep["Tu"], 0.0, 1e-6)


class Sweep(CliWorkload):
    """``septrans sweep`` over one model family: eight values of f0 for
    identical pendula with constant coupling (from f0 = 0) and with a cosine
    term, and three values of lam for weakly coupled pendula, whose points
    cost about three times as much, so that every op takes about as long."""
    name = "sweep"
    n_points = {"constant": 8, "cosine": 8, "weak": 3}

    def ops(self, rng: random.Random):
        strata = [Strata(rng) for _ in range(4)]
        i = 0
        while True:
            kind = i % 3
            if kind == 0:
                b, _ = strata[0]()
                p = {"kind": "constant", "a": 0.0, "b": 0.30 + 0.15 * b}
            elif kind == 1:
                (a, f1), (b, _) = strata[1](), strata[2]()
                a = 0.05 + 0.10 * a
                p = {"kind": "cosine", "a": a, "b": 0.25 + 0.10 * b,
                     "f1": (-0.4 + 0.8 * f1) * a}
            else:
                a, b = strata[3]()
                p = {"kind": "weak", "a": 1.5 + 0.5 * a, "b": 3.0 + 0.5 * b}
            p["probe"] = rng.randrange(self.n_points[p["kind"]])
            yield self.op(p)
            i += 1

    def warmup_op(self) -> Op:
        return self.op({"kind": "constant", "a": 0.0, "b": 0.45, "probe": 0})

    def op(self, p: dict) -> Op:
        n = self.n_points[p["kind"]]
        if p["kind"] == "weak":
            model, pname, extra = "pendula_weak", "lam", []
            first = [p["a"]]
        else:
            model, pname = "pendula_identical", "f0"
            extra = ["--params", "f1=%r" % p["f1"]] if "f1" in p else []
            first = [p["a"]] + ([p["f1"]] if "f1" in p else [])
        argv = (["sweep", "--model", model] + extra
                + ["--sweep", "%s=%r:%r:%d" % (pname, p["a"], p["b"], n)])
        return Op(self.name, p, n, argvs=[argv], models=[(model, first)])

    def check(self, op: Op, results, checks: Checks) -> None:
        if not expect_ok(results, checks):
            return
        p = op.params
        _, rows = table(results[0][1])
        checks.true("sweep returned %d rows, expected %d" % (len(rows), op.points),
                    len(rows) == op.points)
        if len(rows) != op.points:
            return
        for v, Tu, Ts_hat, gap, code in rows:
            if p["kind"] == "constant":
                checks.true("f0=%r: code %r, expected %r" % (v, code, float(v > 0)),
                            code == (1.0 if v > 0 else 0.0))
                checks.close("constant coupling T(pi), f0=%r" % v, Tu,
                             constant_coupling_slope(v), 1e-6)
            elif p["kind"] == "cosine":
                lo, hi = cosine_bracket(v, p["f1"])
                checks.true("f0=%r: code %r, expected 1" % (v, code), code == 1.0)
                checks.true("f0=%r: T(pi)=%r outside [%r, %r]" % (v, Tu, lo, hi),
                            lo <= Tu <= hi)
            else:
                checks.true("lam=%r: code %r, expected 0" % (v, code), code == 0.0)
                checks.close("pendula_weak T(pi), lam=%r" % v, Tu, 0.0, 1e-6)
        # the same point run on its own must give the same verdict and slope
        v, Tu, _, _, code = rows[p["probe"]]
        model = "pendula_weak" if p["kind"] == "weak" else "pendula_identical"
        params = ["%s=%r" % ("lam" if p["kind"] == "weak" else "f0", v)]
        if "f1" in p:
            params.append("f1=%r" % p["f1"])
        rc, out, err = run_cli(["transversality", "--model", model,
                                "--params"] + params)
        if rc != 0:
            checks.failures.append("single point exit code %d: %s" % (rc, err))
            return
        single = json.loads(out)
        checks.true("sweep code %r differs from the single-point verdict %s"
                    % (code, single["verdict"]),
                    VERDICT_CODE[single["verdict"]] == code)
        checks.close("sweep Tu vs single point", Tu, single["Tu"], 1e-12)


class Melnikov(CliWorkload):
    """``septrans melnikov`` on pendula_weak over the 81-point section grid;
    every eighth op has lam = 1, where the potential has a closed form."""
    name = "melnikov"
    grid = "--grid=-4:4:81"

    def ops(self, rng: random.Random):
        strata = Strata(rng, k=7)
        i = 0
        while True:
            yield self.op(1.0 if i % 8 == 0 else 1.0 + 2.6 * strata()[0])
            i += 1

    def warmup_op(self) -> Op:
        return self.op(1.0)

    def op(self, lam: float) -> Op:
        argv = ["melnikov", "--model", "pendula_weak", "--params",
                "lam=%r" % lam, self.grid]
        return Op(self.name, {"lam": lam}, 81, argvs=[argv],
                  models=[("pendula_weak", [lam])])

    def check(self, op: Op, results, checks: Checks) -> None:
        if not expect_ok(results, checks):
            return
        lam = op.params["lam"]
        comments, rows = table(results[0][1])
        checks.true("verdict %s, expected perturbed_loop_transversal"
                    % comments.get("verdict"),
                    comments.get("verdict") == "perturbed_loop_transversal")
        checks.true("%d section points, expected 81" % len(rows), len(rows) == 81)
        if len(rows) != 81:
            return
        dL0, ddL0 = float(comments["dL0"]), float(comments["ddL0"])
        checks.true("L''(0)=%r is not negative" % ddL0, ddL0 < 0)
        checks.close("L'(0)", dL0, 0.0, 1e-8)
        L = [r[1] for r in rows]
        odd = max(abs(L[k] - L[80 - k]) for k in range(41))
        checks.close("L(s) - L(-s)", odd / max(1.0, max(map(abs, L))), 0.0, 1e-8)
        if lam == 1.0:
            worst = max(rows, key=lambda r: abs(r[1] - weak_potential_lam1(r[0])))
            checks.close("closed-form L(%r) at lam=1" % worst[0], worst[1],
                         weak_potential_lam1(worst[0]), 1e-6)
            checks.close("L''(0) at lam=1", ddL0, -8.0, 1e-5)
            checks.close("lambda0_threshold", melnikov.lambda0_threshold(),
                         LAMBDA0, 1e-8)


def crosscheck_values(family: str, p: list[float]) -> dict:
    """The library route of one crosscheck op: solve with startup
    sensitivity, the linear-ODE oracle, the direct stable-side solve and the
    linearization at the saddle."""
    made = models.builtin_model(family, p)
    model = made[0] if isinstance(made, tuple) else made
    target = target_of(family)
    sol = riccati.solve_riccati(model, target)
    oracle = riccati.riccati_to_linear_oracle(model, target)
    stable = riccati.solve_riccati(
        model, target, stable=True,
        opts=riccati.SolverOptions(sensitivity_check=False))
    Ts, Ts_hat = charts.stable_from_reversibility(sol, model)
    lin = equilibrium.linearize(model)
    return {"T": sol(target), "T0": sol.T0, "oracle": oracle,
            "Ts": stable(target), "Ts_rev": (Ts_hat or Ts)(target),
            "Eu11": float(lin.Eu[1, 1])}


class Crosscheck:
    """The independent routes on one point of each built-in family.

    An op is a round of three points, one per family, because the route's
    cost depends on the family: about 0.1 s for pendula_identical, 0.2-0.5 s
    for neumann and 0.5-0.9 s for pendula_weak.  With one point per op, the
    median op fell among the widely spread neumann costs, and over ten
    seeds it spread by 13.5% (interquartile range over median).
    """
    name = "crosscheck"

    def ops(self, rng: random.Random):
        strata = {f: Strata(rng) for f in FAMILIES}
        while True:
            yield self.op([(f, draw_point(f, strata[f])) for f in FAMILIES])

    def warmup_op(self) -> Op:
        return self.op([("neumann", [1.0, 2.0]),
                        ("pendula_identical", [0.2, 0.05]),
                        ("pendula_weak", [2.5])])

    def op(self, points: list) -> Op:
        return Op(self.name, {"points": points}, len(points), models=points)

    def steps(self, op: Op) -> list:
        return [partial(crosscheck_values, f, p)
                for f, p in op.params["points"]]

    def run_cold(self, op: Op, python: str, env: dict, cwd: str) -> list:
        """One fresh process per point, as the CLI ops run; so start-up is
        most of a cold sample, as it is in the other workloads."""
        script = str(Path(__file__).resolve())
        values = []
        for rc, out, err in run_processes(
                [[script, json.dumps([point])] for point in op.params["points"]],
                python, env, cwd):
            if rc != 0:
                raise RuntimeError("exit code %d: %s" % (rc, err.strip()[-300:]))
            values += json.loads(out)
        return values

    def check(self, op: Op, vs: list, checks: Checks) -> None:
        points = op.params["points"]
        checks.true("%d results for %d points" % (len(vs), len(points)),
                    len(vs) == len(points))
        for (family, p), v in zip(points, vs):
            checks.close("%s oracle vs solve" % family, v["oracle"], v["T"],
                         1e-6)
            checks.close("%s stable-side solve vs reversibility" % family,
                         v["Ts"], v["Ts_rev"], 1e-8)
            checks.close("%s Eu[1,1] vs T0" % family, v["Eu11"], v["T0"], 1e-8)
            if family == "neumann":
                checks.close("neumann T(2)", v["T"], neumann_slope(*p), 1e-6)
        checks.values["equilibrium.t0_gap"] = max(
            (abs(v["Eu11"] - v["T0"]) for v in vs), default=0.0)


WORKLOADS = {w.name: w for w in (Verdict(), Sweep(), Melnikov(), Crosscheck())}


if __name__ == "__main__":
    print(json.dumps([crosscheck_values(f, p)
                      for f, p in json.loads(sys.argv[1])]))
