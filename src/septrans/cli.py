"""Command-line front end.

Subcommands: validate | riccati | transversality | melnikov | sweep.
Curves are emitted as comma-separated tables (17 significant digits,
'#'-comment lines for scalar metadata); reports as JSON documents.
Exit codes: 0 verdict issued, 1 verdict-level failure (hypothesis fail or
degenerate), 2 usage/config error, 3 numerical failure (blow-up,
quadrature).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from . import melnikov as mel
from .charts import chart_transversality, verdict_options
from .loops import LoopConstructionError, loop_profile
from .models import (BUILTIN_NAMES, ConstructionError, HamiltonianModel,
                     builtin_model, validate_hypotheses)
from .numerics import parse_grid
from .riccati import BlowUpError, SolverOptions, solve_riccati

FMT = "%.17g"


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    model: str = ""
    params: dict = field(default_factory=dict)
    rtol: float | None = None
    atol: float | None = None
    epsilon: float | None = None
    cap: float | None = None
    tol: float | None = None
    grid: str | None = None
    sweep: str | None = None
    out: str | None = None
    format: str | None = None

    def solver_options(self, base: SolverOptions) -> SolverOptions:
        """base with every solver setting the user gave put in its place."""
        given = {name: getattr(self, name)
                 for name in ("rtol", "atol", "epsilon", "cap")
                 if getattr(self, name) is not None}
        for name, value in given.items():
            if value <= 0:
                raise UsageError("%s must be positive" % name)
        return replace(base, **given)


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError("--params entries must be key=value, got %r" % item)
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = float(v)
        except ValueError as exc:
            raise UsageError("parameter %s is not a number: %r" % (k, v)) from exc
    return out


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError("cannot read config file %r" % path)
    flat: dict = {}
    if cp.has_section("run"):
        for k, v in cp.items("run"):
            flat[k] = v
    if cp.has_section("params"):
        flat["params"] = {k: float(v) for k, v in cp.items("params")}
    if cp.has_section("solver"):
        for k in ("rtol", "atol", "epsilon", "cap"):
            if cp.has_option("solver", k):
                flat[k] = cp.getfloat("solver", k)
    if cp.has_section("verdict") and cp.has_option("verdict", "tol"):
        flat["tol"] = cp.getfloat("verdict", "tol")
    if cp.has_section("output"):
        for k in ("out", "format"):
            if cp.has_option("output", k):
                flat[k] = cp.get("output", k)
    return flat


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for k, v in _load_config_file(args.config).items():
            setattr(cfg, k, v)
    for name in ("model", "rtol", "atol", "epsilon", "cap", "tol", "grid",
                 "sweep", "out", "format"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    params = _parse_params(getattr(args, "params", None))
    if params:
        merged = dict(cfg.params)
        merged.update(params)
        cfg.params = merged
    if not cfg.model:
        raise UsageError("--model is required (choose from %s)"
                         % ", ".join(BUILTIN_NAMES))
    return cfg


def make_model(cfg: RunConfig, strict: bool = True) -> HamiltonianModel:
    """The configured built-in model."""
    name, p = cfg.model, cfg.params
    try:
        if name == "neumann":
            if "lambda1" not in p or "lambda2" not in p:
                raise UsageError("neumann needs --params lambda1=.. lambda2=..")
            return builtin_model(name, [p["lambda1"], p["lambda2"]])
        if name == "pendula_identical":
            ks = sorted(k for k in p if k.startswith("f"))
            if not ks:
                raise UsageError("pendula_identical needs --params f0=.. [f1=..]")
            n = max(int(k[1:]) for k in ks)
            coeffs = [p.get("f%d" % i, 0.0) for i in range(n + 1)]
            return builtin_model(name, coeffs, strict=strict)
        if name == "pendula_weak":
            if "lam" not in p:
                raise UsageError("pendula_weak needs --params lam=..")
            return builtin_model(name, [p["lam"]])
        raise UsageError("unknown model %r" % name)
    except ConstructionError as exc:
        raise UsageError(str(exc)) from exc


@contextmanager
def _output(cfg: RunConfig):
    """The configured output file, closed on exit, or stdout."""
    if not cfg.out:
        yield sys.stdout
        return
    with open(cfg.out, "w") as stream:
        yield stream


def write_table(stream, comments: dict, header: list[str], rows) -> None:
    for k, v in comments.items():
        if isinstance(v, float):
            v = FMT % v
        stream.write("# %s = %s\n" % (k, v))
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(FMT % x for x in row) + "\n")


def cmd_validate(cfg: RunConfig) -> int:
    model = make_model(cfg, strict=False)
    report = validate_hypotheses(model)
    entries = [e.__dict__ for e in report.entries]
    loop_error = None
    try:
        prof = loop_profile(model)
        entries.append({"name": "loop_restriction_residual", "passed": True,
                        "detail": "max residual %.3g"
                        % prof.diagnostics["restriction_residual_max"],
                        "worst": prof.diagnostics["restriction_residual_max"]})
    except LoopConstructionError as exc:
        loop_error = str(exc)
        entries.append({"name": "loop_restriction_residual", "passed": False,
                        "detail": loop_error, "worst": math.inf})
    ok = report.ok and loop_error is None
    doc = {"model": cfg.model, "params": cfg.params, "ok": ok,
           "checks": entries}
    with _output(cfg) as stream:
        if (cfg.format or "json") == "json":
            json.dump(doc, stream, indent=2)
            stream.write("\n")
        else:
            for e in entries:
                stream.write("%s,%s,%s\n" % (e["name"],
                                             "pass" if e["passed"] else "fail",
                                             e["detail"].replace(",", ";")))
    return 0 if ok else 1


def cmd_riccati(cfg: RunConfig) -> int:
    model = make_model(cfg)
    # default grid: from the equilibrium to the matching point
    grid = parse_grid(cfg.grid or "0:%.17g:101" % model.matching[0])
    target = grid[-1]
    sol = solve_riccati(model, target, opts=cfg.solver_options(SolverOptions()))
    comments = {
        "model": cfg.model,
        "T0": sol.T0,
        "Delta": sol.Delta,
        "epsilon_start": sol.epsilon_start,
        "startup_sensitivity": sol.diagnostics.get("startup_sensitivity", 0.0),
        "startup_sensitivity_ok": ("true" if sol.diagnostics[
            "startup_sensitivity_ok"] else "false"),
    }
    rows = [(q1, sol(q1)) for q1 in grid]
    with _output(cfg) as stream:
        if (cfg.format or "csv") == "json":
            json.dump({"comments": comments, "header": ["q1", "Tu"],
                       "rows": rows}, stream, indent=2)
            stream.write("\n")
        else:
            write_table(stream, comments, ["q1", "Tu"], rows)
    return 0


def _transversality_report(cfg: RunConfig):
    model = make_model(cfg)
    return chart_transversality(
        model, *model.matching,
        opts=cfg.solver_options(verdict_options(model)), tol=cfg.tol)


def cmd_transversality(cfg: RunConfig) -> int:
    report = _transversality_report(cfg)
    doc = {"model": cfg.model, "params": cfg.params}
    doc.update(report.as_dict())
    with _output(cfg) as stream:
        if (cfg.format or "json") == "csv":
            write_table(stream, {"model": cfg.model},
                        ["q1_star", "Tu", "Ts_hat", "gap", "tol"],
                        [(report.q1_star, report.Tu, report.Ts_hat, report.gap,
                          report.tol)])
            stream.write("# verdict = %s\n" % report.verdict)
        else:
            json.dump(doc, stream, indent=2)
            stream.write("\n")
    return 0


def cmd_melnikov(cfg: RunConfig) -> int:
    pert = make_model(cfg).perturbation
    if pert is None:
        raise UsageError("melnikov needs a model with a perturbation "
                         "(pendula_weak)")
    grid = parse_grid(cfg.grid or "-4:4:81")
    res = mel.reduced_melnikov(pert, grid)
    derivs_diag: dict = {}
    derivs = mel.melnikov_derivatives(pert, diag=derivs_diag)
    verdict = mel.perturbed_loop_verdict("B", derivs=derivs, s_grid=grid,
                                         L_samples=res.L_samples)
    comments = {
        "model": cfg.model,
        "dL0": verdict.dL0,
        "ddL0": verdict.ddL0,
        "case": "B",
        "verdict": verdict.verdict,
        **res.quadrature_diag,
        **{"dL_" + k: v for k, v in derivs_diag.items()},
    }
    lam = cfg.params.get("lam")
    if lam is not None:
        lam0 = mel.lambda0_threshold()
        if abs(lam - lam0) < 0.01:
            comments["near_threshold"] = (
                "lam=%.6g is within 0.01 of the nondegeneracy threshold "
                "lam0=%.6g" % (lam, lam0))
    rows = list(zip(grid, res.L_samples))
    with _output(cfg) as stream:
        if (cfg.format or "csv") == "json":
            json.dump({"comments": comments, "header": ["s", "L"],
                       "rows": [[a, float(b)] for a, b in rows]},
                      stream, indent=2)
            stream.write("\n")
        else:
            write_table(stream, comments, ["s", "L"], rows)
    return 0 if verdict.verdict != "degenerate" else 1


def cmd_sweep(cfg: RunConfig) -> int:
    """One row per sweep value.  A value whose model cannot be built or
    solved gets a row of nan and an error_<value> comment, and the sweep
    exits with the exit code of its first such failure."""
    if not cfg.sweep:
        raise UsageError("sweep needs --sweep param=a:b:n")
    if "=" not in cfg.sweep:
        raise UsageError("--sweep must be param=a:b:n")
    pname, gspec = cfg.sweep.split("=", 1)
    comments = {"model": cfg.model, "sweep_param": pname}
    rows = []
    code = 0
    for v in parse_grid(gspec):
        try:
            r = _transversality_report(
                replace(cfg, params={**cfg.params, pname: v}))
        except (BlowUpError, ValueError) as exc:
            fcode, message = failure(exc)
            print("%s=%s: %s" % (pname, FMT % v, message), file=sys.stderr)
            comments["error_" + FMT % v] = message
            rows.append((v, math.nan, math.nan, math.nan, math.nan))
            code = code or fcode
            continue
        rows.append((v, r.Tu, r.Ts_hat, r.gap,
                     {"transversal": 1.0, "tangent": 0.0,
                      "inconclusive": -1.0}[r.verdict]))
    with _output(cfg) as stream:
        write_table(stream, comments,
                    ["%s" % pname, "Tu", "Ts_hat", "gap", "verdict_code"],
                    rows)
    return code


def failure(exc: BlowUpError | ValueError) -> tuple[int, str]:
    """The documented exit code of a failed run and its message."""
    if isinstance(exc, LoopConstructionError):
        return 1, "hypothesis failure: %s" % exc
    if isinstance(exc, BlowUpError):
        return 3, "numerical failure: %s" % exc
    return 2, "error: %s" % exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="septrans",
        description="Transversality of separatrix intersections via Riccati "
                    "slopes and Melnikov potentials")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "riccati", "transversality", "melnikov", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--model", choices=BUILTIN_NAMES)
        p.add_argument("--params", nargs="*", metavar="k=v")
        p.add_argument("--config")
        p.add_argument("--rtol", type=float)
        p.add_argument("--atol", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--cap", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--grid", metavar="a:b:n")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
        if name == "sweep":
            p.add_argument("--sweep", metavar="param=a:b:n")
    return ap


COMMANDS = {
    "validate": cmd_validate,
    "riccati": cmd_riccati,
    "transversality": cmd_transversality,
    "melnikov": cmd_melnikov,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        return COMMANDS[args.command](cfg)
    except (BlowUpError, ValueError) as exc:
        code, message = failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
