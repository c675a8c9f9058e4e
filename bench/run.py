"""septrans benchmark: end-to-end metrics per workload, or a traced run.

Run from the repository root:

    python3 bench/run.py --workload verdict --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` a run prints the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it prints the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "septrans" / "__init__.py").is_file():
    sys.exit("bench: no septrans package under %s; run from a septrans checkout"
             % SRC)
sys.path.insert(0, str(SRC))

import septrans  # noqa: E402

if Path(septrans.__file__).resolve().parent != SRC / "septrans":
    sys.exit("bench: imported septrans from %s, not from %s"
             % (septrans.__file__, SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "cold_cli_s": "s",
    "latency_p50_s": "s",
    "throughput_pts_per_s": "1/s",
    "correct_digits_min": "digits",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.scipy_s": "s",
    "import.septrans_self_s": "s",
    "cli.main.self_s": "s",
    "cli.sweep.parallel_gain": "ratio",
    "models.builtin_model.s": "s",
    "models.validate_hypotheses.s": "s",
    "models.coeff_calls_per_rhs": "count",
    "loops.loop_profile.s": "s",
    "loops.loop_profile.calls": "count",
    "riccati.solve.nfev": "count",
    "riccati.solve.steps": "count",
    "riccati.solve_plain.s": "s",
    "riccati.solve_sens.s": "s",
    "riccati.rhs_us": "us",
    "riccati.oracle.s": "s",
    "riccati.blowups": "count",
    "charts.transversality.self_s": "s",
    "charts.verdict.transversal": "count",
    "charts.verdict.tangent": "count",
    "charts.verdict.inconclusive": "count",
    "melnikov.point_s": "s",
    "melnikov.integrand_evals_per_point": "count",
    "melnikov.tail_bound_max": "1",
    "melnikov.quad_error_max": "1",
    "melnikov.derivatives.s": "s",
    "equilibrium.linearize.s": "s",
    "equilibrium.t0_gap_max": "1",
    "numerics.fd_calls": "count",
    "trace.overhead_pct": "%",
}
# setup samples per run (import-time samples in a traced run)
N_SETUP = 3
# cold-op samples per run.  Sweep ops rotate over three kinds whose cold
# times differ, so a run takes whole rounds of them, two; melnikov takes as
# many.  A cold verdict or crosscheck op is three processes (about 3.5 s),
# so those take one round of three, to leave about half the run to warm ops.
N_COLD = {"verdict": 3, "crosscheck": 3}
N_COLD_DEFAULT = 6
# one plain solve of each built-in family, for models.coeff_calls_per_rhs
COEFF_CASES = (("neumann", [1.0, 2.0], 2.0),
               ("pendula_identical", [0.25, -0.125], workloads.PI),
               ("pendula_weak", [2.0], workloads.PI))

SETUP_SCRIPT = """\
import time
t0 = time.perf_counter()
import json, sys
import septrans, septrans.cli
for name, params in json.loads(sys.argv[1]):
    septrans.models.builtin_model(name, params)
print(repr(time.perf_counter() - t0))
"""

# Host speed.  The shared host this benchmark was built on changes speed by a
# third within seconds: timed in a loop for five minutes, the medians of the
# same warm ops over 26 s windows spread by 32-37% (IQR over median), and
# single cold starts of the same command by 13%.  So every time that
# --trace 0 reports is a wall time rescaled to a fixed reference speed:
# t * REF / k, where k is the time of a fixed kernel run right before and
# right after the sample (their geometric mean).  Neither kernel runs
# septrans code.  The warm kernel is a scipy solve of a small ODE with a
# Python right-hand side, which is what a warm op mostly does; rescaled by
# it, the window medians above spread by 3%.  (A pure-Python loop left 7%.)
# The cold kernel is a fresh interpreter importing stdlib modules that
# septrans does not use; rescaled by it, cold starts spread by 5%.
COLD_KERNEL = """\
import email.parser, http.client, unittest, decimal, xml.dom.minidom
import asyncio, logging, csv, sqlite3, tarfile
"""
# the kernels' times on that host (2-core shared x86-64 VM, CPython 3.11) in
# a fast phase: reported times are seconds at that speed
REF_WARM_KERNEL_S = 0.0085
REF_COLD_KERNEL_S = 0.145
# A long op is rescaled in parts, because a warm kernel samples about 10 ms
# of a host whose speed changes within a second.  A part ends after the step
# that brings it past SEGMENT kernel times: the points of a crosscheck op
# (about a second in all) are mostly rescaled one by one, and the kernels
# stay under 5% of the time.
SEGMENT = 20


def kernel_rhs(t, y):
    return [y[1], -np.sin(y[0]) + 0.1 * np.cos(t) * y[1]]


def warm_kernel() -> float:
    """Time of a fixed solve_ivp call, in seconds."""
    t0 = time.perf_counter()
    solve_ivp(kernel_rhs, (0.0, 8.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_times(stderr: str) -> tuple[float, float]:
    """Self import time of scipy and of septrans, in seconds, from the
    output of ``python -X importtime``."""
    scipy = own = 0
    for line in stderr.splitlines():
        head, _, rest = line.partition("|")
        _, _, package = rest.partition("|")
        package = package.strip()
        try:
            us = int(head.rpartition(":")[2])
        except ValueError:
            continue
        if package == "scipy" or package.startswith("scipy."):
            scipy += us
        elif package == "septrans" or package.startswith("septrans."):
            own += us
    return scipy / 1e6, own / 1e6


class Run:
    """One measured run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool,
                 n_setup: int, n_cold: int):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer(septrans) if traced else None
        if traced:
            self.tasks = ["importtime"] * n_setup
        else:
            # the setup and cold samples, spread evenly over the run
            self.tasks = [t for _, t in sorted(
                [((i + 0.5) / n_setup, "setup") for i in range(n_setup)]
                + [((i + 0.5) / n_cold, "cold") for i in range(n_cold)])]
        self.env = child_env()
        self.attempted = self.failed = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.digits: list[float] = []
        self.values: dict[str, dict] = {}
        # (wall time, the same rescaled to the reference host speed)
        self.latency: list[tuple[float, float]] = []
        self.setup: list[tuple[float, float]] = []
        self.cold: list[tuple[float, float]] = []
        self.points = 0
        self.kernel = 0.0     # the last warm kernel time
        self.warm_kernels: list[float] = []
        self.cold_kernels: list[float] = []
        self.imports: list[tuple[float, float]] = []
        self.paired: list[tuple[float, float]] = []   # (traced, untraced)
        self.timed_ids: set = set()
        self.warm_ids: set = set()

    # -- ops ---------------------------------------------------------------

    def execute(self, op, op_id: str, cold: bool = False,
                traced: bool = False, rescale: bool = False):
        """Run and check one op; returns its wall time (with rescale, the
        pair of wall and rescaled time), or None if it failed."""
        w = WORKLOADS[op.kind]
        checks = Checks()
        self.attempted += 1
        if traced:
            self.tracer.op = op_id
            self.tracer.install()
        try:
            if cold:
                t0 = time.perf_counter()
                result = w.run_cold(op, sys.executable, self.env, str(ROOT))
                dt = time.perf_counter() - t0
            else:
                result, dt = self.run_steps(w.steps(op), rescale)
        except Exception as exc:  # a raising op is a failed op, not a crash
            checks.failures.append("%s: %s" % (type(exc).__name__, exc))
            dt = None
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op = None
        if dt is not None:
            try:
                w.check(op, result, checks)
            except Exception as exc:
                checks.failures.append("check raised %s: %s"
                                       % (type(exc).__name__, exc))
        if op.kind == self.w.name:
            self.digits += checks.digits
        if checks.values:
            self.values[op_id] = checks.values
        if checks.failures:
            self.failed += 1
            self.failures.append((op_id, checks.failures))
            return None
        return dt

    def timed(self, op, op_id: str) -> None:
        if self.tracer is None:
            dt = self.execute(op, op_id, rescale=True)
            if dt is not None:
                self.latency.append(dt)
                self.points += op.points
            return
        # the same inputs with and without tracing, in alternating order
        order = (True, False) if len(self.paired) % 2 == 0 else (False, True)
        dt = {t: self.execute(op, op_id if t else op_id + ".untraced", traced=t)
              for t in order}
        if None not in dt.values():
            self.paired.append((dt[True], dt[False]))
        self.timed_ids.add(op_id)

    def run_steps(self, steps: list, rescale: bool):
        """Runs an op's steps in turn; returns their results and wall time.

        With rescale, the time is the pair (wall, rescaled).  A warm kernel
        runs after the op, and also after any stretch of its steps that took
        longer than SEGMENT kernel times, so that each part of a long op is
        rescaled by the host speed around it.
        """
        results, wall, scaled, seg = [], 0.0, 0.0, 0.0
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            results.append(step())
            seg += time.perf_counter() - t0
            if rescale and (i == len(steps) - 1
                            or seg > SEGMENT * self.kernel):
                scaled += seg * REF_WARM_KERNEL_S / self.next_warm_kernel()
                wall, seg = wall + seg, 0.0
        return results, (wall, scaled) if rescale else wall + seg

    def next_warm_kernel(self) -> float:
        """Runs the warm kernel; returns the geometric mean of its time and
        the previous one's."""
        k, self.kernel = self.kernel, warm_kernel()
        self.warm_kernels.append(self.kernel)
        return (k * self.kernel) ** 0.5

    # -- cold processes ----------------------------------------------------

    def cold_kernel(self) -> float:
        """Wall time of one fresh process running COLD_KERNEL."""
        t0 = time.perf_counter()
        [(rc, _, err)] = workloads.run_processes(
            [["-c", COLD_KERNEL]], sys.executable, self.env, str(ROOT))
        k = time.perf_counter() - t0
        if rc != 0:
            sys.exit("bench: the cold kernel failed: %s" % err.strip()[-300:])
        self.cold_kernels.append(k)
        return k

    def child(self, argv: list[str]) -> tuple[int, str, str]:
        self.attempted += 1
        [(rc, out, err)] = workloads.run_processes(
            [argv], sys.executable, self.env, str(ROOT))
        if rc != 0:
            self.failed += 1
            self.failures.append((argv[0], ["exit code %d: %s"
                                            % (rc, err.strip()[-300:])]))
        return rc, out, err

    def cold_task(self, task: str, op, k: int) -> None:
        if task == "importtime":
            rc, _, err = self.child(["-X", "importtime", "-c",
                                     "import septrans, septrans.cli"])
            if rc == 0:
                self.imports.append(import_times(err))
            return
        k0 = self.cold_kernel()
        if task == "cold":
            dt = self.execute(op, "cold%d" % k, cold=True)
        else:
            rc, out, _ = self.child(["-c", SETUP_SCRIPT, json.dumps(op.models)])
            dt = float(out) if rc == 0 else None
        kernel = (k0 * self.cold_kernel()) ** 0.5
        if dt is not None:
            (self.cold if task == "cold" else self.setup).append(
                (dt, dt * REF_COLD_KERNEL_S / kernel))

    # -- the run -----------------------------------------------------------

    def measure(self) -> None:
        # warm-up: one fixed op, so that lazy set-up is done before timing
        # starts; a traced run warms up every workload, so that every layer
        # is reached
        warm = WORKLOADS if self.tracer is not None else {self.w.name: self.w}
        for kind, w in warm.items():
            op_id = "warmup." + kind
            self.warm_ids.add(op_id)
            self.execute(w.warmup_op(), op_id, traced=self.tracer is not None)
        if self.tracer is not None:
            self.coeff_calls = tracing.coeff_calls_per_rhs(septrans, COEFF_CASES)
        ops = self.w.ops(random.Random(self.seed))
        cold_ops = self.w.ops(random.Random("cold-%d" % self.seed))
        deadline = time.perf_counter() + self.seconds
        i = 0
        # cold processes interleave with warm ops, because host speed drifts
        for k, task in enumerate(self.tasks):
            self.cold_task(task, next(cold_ops), k)
            now = time.perf_counter()
            slot_end = now + max(0.0, deadline - now) / (len(self.tasks) - k)
            self.kernel = warm_kernel()
            # no op starts after the slot's end, but a run times at least one
            while not (i and time.perf_counter() >= slot_end):
                self.timed(next(ops), "op%d" % i)
                i += 1

    # -- results -----------------------------------------------------------

    def end_to_end(self, i: int = 1) -> dict:
        """The end-to-end metrics, rescaled (i = 1) or as wall times (0)."""
        lat = [t[i] for t in self.latency]
        return {
            "setup_s": (median(t[i] for t in self.setup), len(self.setup)),
            "cold_cli_s": (median(t[i] for t in self.cold), len(self.cold)),
            "latency_p50_s": (median(lat), len(lat)),
            "throughput_pts_per_s": (
                self.points / sum(lat) if lat else math.nan, len(lat)),
            "correct_digits_min": (min(self.digits, default=math.nan),
                                   len(self.digits)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, 1),
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        out = tracing.summarize(tracer.spans, self.timed_ids, self.warm_ids,
                                self.values)
        out["import.scipy_s"] = (statistics.median(s for s, _ in self.imports),
                                 len(self.imports))
        out["import.septrans_self_s"] = (
            statistics.median(o for _, o in self.imports), len(self.imports))
        out["models.coeff_calls_per_rhs"] = (self.coeff_calls,
                                             len(COEFF_CASES))
        traced = statistics.median(a for a, _ in self.paired)
        untraced = statistics.median(b for _, b in self.paired)
        out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced,
                                     len(self.paired))
        return out

    def report(self) -> dict:
        """Print the human-readable report; return the result object."""
        traced = self.tracer is not None
        units = PER_LAYER if traced else END_TO_END
        metrics = self.per_layer() if traced else self.end_to_end()
        print("# workload=%s seed=%d seconds=%g trace=%d"
              % (self.w.name, self.seed, self.seconds, traced))
        print("# ops attempted %d, failed %d, fail_ratio %.6g"
              % (self.attempted, self.failed, self.failed / self.attempted))
        print("%-36s %-24s %-8s %s" % ("metric", "value", "unit", "n"))
        for name, unit in units.items():
            value, n = metrics[name]
            print("%-36s %-24r %-8s %d" % (name, value, unit, n))
        if not traced:
            print("# above: times rescaled to the reference host speed;"
                  " median kernel times, reference in brackets:")
            print("#   warm %.6g s [%g], cold %.6g s [%g]; as wall times:"
                  % (statistics.median(self.warm_kernels), REF_WARM_KERNEL_S,
                     statistics.median(self.cold_kernels), REF_COLD_KERNEL_S))
            wall = self.end_to_end(0)
            for name in ("setup_s", "cold_cli_s", "latency_p50_s",
                         "throughput_pts_per_s"):
                value, n = wall[name]
                print("%-36s %-24r %-8s %d" % (name + " (wall)", value,
                                               END_TO_END[name], n))
            n = len(self.latency)
            if n >= 100:
                p90 = statistics.quantiles([t[1] for t in self.latency],
                                           n=10)[-1]
                print("%-36s %-24r %-8s %d" % ("latency_p90_s", p90, "s", n))
            else:
                print("%-36s omitted: %d timed ops leave fewer than ten above"
                      " p90" % ("latency_p90_s", n))
            print("%-36s %-24r %-8s %d" % ("fail_ratio",
                                           self.failed / self.attempted,
                                           "ratio", self.attempted))
        else:
            path = ROOT / ".bench_trace"
            path.mkdir(exist_ok=True)
            path /= "%s-seed%d.jsonl" % (self.w.name, self.seed)
            self.tracer.write(path)
            print("# %d spans written to %s" % (len(self.tracer.spans),
                                                path.relative_to(ROOT)))
        for op_id, msgs in self.failures:
            for msg in msgs:
                print("FAILED %s: %s" % (op_id, msg), file=sys.stderr)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": metrics[name][0], "unit": unit}
                            for name, unit in units.items()}}


def median(xs) -> float:
    """The median; NaN when every sample failed (the run reports them)."""
    xs = list(xs)
    return statistics.median(xs) if xs else math.nan


def run(name: str, seed: int, seconds: float, traced: bool,
        brief: bool = False) -> dict:
    """One run; a brief one takes a single setup and cold sample."""
    r = Run(name, seed, seconds, traced, 1 if brief else N_SETUP,
            1 if brief else N_COLD.get(name, N_COLD_DEFAULT))
    r.measure()
    return r.report()


def smoke() -> None:
    """Self-test: every workload briefly, traced and untraced, with every
    named metric present with its unit; then a deliberately wrong reference
    value must show up as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for traced, key, units in ((False, "end_to_end", END_TO_END),
                               (True, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            sys.exit("smoke: BENCHMARK.json %s %r differs from %r"
                     % (key, declared, units))
        for name in WORKLOADS:
            res = run(name, 1, 0.5, traced, brief=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units or not res["correct"]:
                sys.exit("smoke: %s trace=%d gave %r" % (name, traced, res))
    print("smoke: the next run uses a wrong reference value and must fail",
          file=sys.stderr)
    good = workloads.neumann_slope
    workloads.neumann_slope = lambda l1, l2: good(l1, l2) + 1e-3
    try:
        res = run("verdict", 1, 0.5, False, brief=True)
    finally:
        workloads.neumann_slope = good
    if res["correct"] or res["failed"] < 1:
        sys.exit("smoke: a wrong reference value was not reported: %r" % res)
    print("smoke: ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=str(ROOT))
            rc = rc or proc.returncode
        return rc
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
