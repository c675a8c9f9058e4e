"""Command-line front end.

Subcommands: validate | riccati | transversality | melnikov | sweep.
Curves are emitted as comma-separated tables (17 significant digits,
'#'-comment lines for scalar metadata); reports as JSON documents, in
which a non-finite number is null.
Every setting is a flag of its command's argparse subparser, which takes
only the flags that command reads (see COMMANDS): a --config file stands
for the flags its entries name, so it gets the same checks (see main).
Each command returns its exit code and its text, formatted whole; main
alone picks the exit code, and emit alone writes, to stdout, --out and
stderr (sweep's per-value lines as they happen).
Exit codes: 0 verdict issued, 1 verdict-level failure (hypothesis fail or
degenerate), 2 usage/config error or output that cannot be written,
3 numerical failure (blow-up, overflow, quadrature), 141 stdout closed by
its reader (as for SIGPIPE); a stderr that cannot be written changes no
code, and a closed one sends nothing to stdout.
Only melnikov loads numpy: validate, riccati, transversality and sweep run
on floats alone.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

from .charts import chart_transversality
from .models import (BUILTIN_NAMES, BUILTINS, HamiltonianModel,
                     HypothesesError, builtin_model, validate_hypotheses)
from .numerics import BlowUpError, QuadratureError, parse_grid
from .riccati import SolverOptions, solve_riccati

FMT = "%.17g"

# the highest cosine index fk that pendula_identical takes here: its
# coefficient list is as long as the highest index given
MAX_COSINE_INDEX = 10**5


class UsageError(ValueError):
    pass


def positive(text: str) -> float:
    """A finite number > 0; argparse names the flag otherwise."""
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(text)
    return value


def param(item: str) -> tuple[str, float]:
    """One --params entry k=v."""
    k, sep, v = item.partition("=")
    if not sep:
        raise ValueError(item)
    return k.strip(), float(v)


def config_flags(path: str) -> list[str]:
    """The flags an INI file stands for: each [params] entry k = v is
    --params k=v, and every other entry key = value is --key=value."""
    import configparser
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise UsageError("cannot read config file %r" % path)
    except configparser.Error as exc:
        raise UsageError("config file %r: %s" % (path, exc)) from exc
    flags = []
    for name, section in cp.items():
        for key, value in section.items():
            flags += (["--params", "%s=%s" % (key, value)] if name == "params"
                      else ["--%s=%s" % (key, value)])
    return flags


def make_model(name: str, params: dict,
               strict: bool = True) -> HamiltonianModel:
    """The built-in model name at params, which must be exactly the finite
    parameters it takes (pendula_identical's up to f<MAX_COSINE_INDEX>)."""
    names = required = BUILTINS[name][1]
    if names is None:
        n = max((int(k[1:]) + 1 for k in params
                 if k[:1] == "f" and k[1:].isdecimal()), default=0)
        if n > MAX_COSINE_INDEX + 1:
            raise UsageError("%s takes cosine coefficients up to f%d, not f%d"
                             % (name, MAX_COSINE_INDEX, n - 1))
        names, required = tuple("f%d" % i for i in range(n)), ()
        needs = "f0=.. [f1=..]"
    else:
        needs = " ".join(k + "=.." for k in names)
    unknown = [k for k in params if k not in names]
    if unknown:
        raise UsageError("%s takes no parameter %s (it takes %s)"
                         % (name, ", ".join(unknown), needs))
    if not params or any(k not in params for k in required):
        raise UsageError("%s needs --params %s" % (name, needs))
    bad = [k for k, v in params.items() if not math.isfinite(v)]
    if bad:
        raise UsageError("parameter %s is not finite" % ", ".join(bad))
    return builtin_model(name, [params.get(k, 0.0) for k in names],
                         strict=strict)


def solver_options(args, base: SolverOptions) -> SolverOptions:
    """base with every solver flag the user gave put in its place."""
    return replace(base, **{k: getattr(args, k)
                            for k in ("rtol", "epsilon")
                            if getattr(args, k) is not None})


def emit(text: str, stream) -> OSError | None:
    """The one writer of stdout, stderr and --out: text in slices of at
    most io.DEFAULT_BUFFER_SIZE characters, so that on an unbuffered
    stream a pipe its reader closed raises BrokenPipeError at the next
    slice, not a short write Python drops; then a flush.  It returns the
    OSError that stopped it (EBADF for a stream closed at start, None) and
    points the failed stream at devnull, so that nothing later raises."""
    if stream is None:
        return OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
            stream.write(text[i:i + io.DEFAULT_BUFFER_SIZE])
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


class Parser(argparse.ArgumentParser):
    """argparse's, with help, usage and errors written by emit."""
    _print_message = staticmethod(emit)

    def print_usage(self, file=None):   # None: a closed stderr, not stdout
        emit(self.format_usage(), file)


def format_table(comments: dict, header: list[str], rows) -> str:
    """The comments as '# k = v' lines, then the header and the rows, each
    row through one FMT-per-column format string."""
    lines = ["# %s = %s\n" % (k, FMT % v if isinstance(v, float) else v)
             for k, v in comments.items()]
    lines.append(",".join(header) + "\n")
    row_fmt = ",".join([FMT] * len(header)) + "\n"
    lines += [row_fmt % tuple(row) for row in rows]
    return "".join(lines)


def _finite_or_null(v):
    """v with every non-finite float in it replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def format_json(doc) -> str:
    """doc as one strict JSON document: nan and inf, which JSON has no
    token for, are written null."""
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"


def format_curve(args, comments: dict, header: list[str], rows) -> str:
    """A curve as a table, or as one JSON document with --format json."""
    if args.format == "json":
        return format_json({"comments": comments, "header": header,
                            "rows": rows})
    return format_table(comments, header, rows)


def cmd_validate(args) -> tuple[int, str]:
    model = make_model(args.model, args.params, strict=False)
    report = validate_hypotheses(model)
    entries = [e.__dict__ for e in report.entries]
    code = 0 if report.ok else 1
    if args.format != "csv":
        return code, format_json({"model": args.model, "params": args.params,
                                  "ok": report.ok, "checks": entries})
    return code, "".join("%s,%s,%s\n" % (e["name"],
                                         "pass" if e["passed"] else "fail",
                                         e["detail"].replace(",", ";"))
                         for e in entries)


def cmd_riccati(args) -> tuple[int, str]:
    model = make_model(args.model, args.params)
    # default grid: from the equilibrium to the matching point
    grid = parse_grid(args.grid or "0:%.17g:101" % model.matching[0])
    sol = solve_riccati(model, grid[-1],
                        opts=solver_options(args, SolverOptions()))
    ok = sol.diagnostics["startup_sensitivity_ok"]
    comments = {"model": args.model, "T0": sol.T0, "Delta": sol.Delta,
                "epsilon_start": sol.epsilon_start,
                "startup_sensitivity": sol.diagnostics["startup_sensitivity"],
                "startup_sensitivity_ok": "true" if ok else "false"}
    return 0, format_curve(args, comments, ["q1", "Tu"],
                           [(q1, sol(q1)) for q1 in grid])


def _transversality_report(args, params: dict):
    model = make_model(args.model, params)
    opts = solver_options(args, SolverOptions(sensitivity_check=False))
    return chart_transversality(model, opts=opts, tol=args.tol)


def cmd_transversality(args) -> tuple[int, str]:
    report = _transversality_report(args, args.params)
    if args.format == "csv":
        return 0, format_table(
            {"model": args.model}, ["q1_star", "Tu", "Ts_hat", "gap", "tol"],
            [(report.q1_star, report.Tu, report.Ts_hat, report.gap,
              report.tol)]) + "# verdict = %s\n" % report.verdict
    return 0, format_json({"model": args.model, "params": args.params,
                           **asdict(report)})


def cmd_melnikov(args) -> tuple[int, str]:
    from . import melnikov as mel
    pert = make_model(args.model, args.params).perturbation
    if pert is None:
        raise UsageError("melnikov needs a model with a perturbation "
                         "(pendula_weak)")
    grid = parse_grid(args.grid or "-4:4:81")
    L, quad_diag = mel.reduced_melnikov(pert, grid)
    derivs_diag: dict = {}
    dL0, ddL0 = mel.melnikov_derivatives(pert, diag=derivs_diag)
    verdict = mel.perturbed_loop_verdict((dL0, ddL0),
                                         derivs_diag["error_bound"])
    comments = {"model": args.model, "dL0": dL0, "ddL0": ddL0,
                "verdict": verdict, **quad_diag,
                **{"dL_" + k: v for k, v in derivs_diag.items()}}
    lam, lam0 = args.params["lam"], mel.lambda0_threshold()
    if abs(lam - lam0) < 0.01:
        comments["near_threshold"] = (
            "lam=%.6g is within 0.01 of the nondegeneracy threshold "
            "lam0=%.6g" % (lam, lam0))
    return (0 if verdict != "degenerate" else 1,
            format_curve(args, comments, ["s", "L"],
                         [[s, float(v)] for s, v in zip(grid, L)]))


def cmd_sweep(args) -> tuple[int, str]:
    """One row per sweep value.  A value whose model cannot be built or
    solved gets a row of nan and an error_<value> comment, and the sweep
    exits with the exit code of its first such failure."""
    if "=" not in (args.sweep or ""):
        raise UsageError("sweep needs --sweep param=a:b:n")
    pname, gspec = args.sweep.split("=", 1)
    comments = {"model": args.model, "sweep_param": pname}
    rows, code = [], 0
    for v in parse_grid(gspec):
        try:
            r = _transversality_report(args, {**args.params, pname: v})
        except (BlowUpError, ValueError) as exc:
            fcode, message = failure(exc)
            emit("%s=%s: %s\n" % (pname, FMT % v, message), sys.stderr)
            comments["error_" + FMT % v] = message
            rows.append((v, math.nan, math.nan, math.nan, math.nan))
            code = code or fcode
            continue
        rows.append((v, r.Tu, r.Ts_hat, r.gap,
                     {"transversal": 1.0, "tangent": 0.0,
                      "inconclusive": -1.0}[r.verdict]))
    return code, format_curve(
        args, comments, [pname, "Tu", "Ts_hat", "gap", "verdict_code"], rows)


def failure(exc: BlowUpError | QuadratureError | ValueError
            ) -> tuple[int, str]:
    """The documented exit code of a failed run and its message."""
    if isinstance(exc, HypothesesError):
        return 1, "hypothesis failure: %s" % exc
    if isinstance(exc, (BlowUpError, QuadratureError)):
        return 3, "numerical failure: %s" % exc
    return 2, "error: %s" % exc


SOLVER = ("--rtol", "--epsilon")
# each command's function and the flags it reads besides --model, --params,
# --config, --out and --format
COMMANDS = {"validate": (cmd_validate, ()),
            "riccati": (cmd_riccati, SOLVER + ("--grid",)),
            "transversality": (cmd_transversality, SOLVER + ("--tol",)),
            "melnikov": (cmd_melnikov, ("--grid",)),
            "sweep": (cmd_sweep, SOLVER + ("--tol", "--sweep"))}
METAVARS = {"--grid": "a:b:n", "--sweep": "param=a:b:n"}  # others: positive


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it as it was, so
    every main call shares it."""
    # no prefix matching: a config entry rt = 1e-3 or a flag --to must not
    # stand for --rtol or --tol
    ap = Parser(
        prog="septrans", allow_abbrev=False,
        description="Transversality of separatrix intersections via Riccati "
                    "slopes and Melnikov potentials")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--model", choices=BUILTIN_NAMES)
        p.add_argument("--params", nargs="*", action="extend", type=param,
                       metavar="k=v")
        p.add_argument("--config")
        for flag in flags:
            p.add_argument(flag, metavar=METAVARS.get(flag),
                           type=None if flag in METAVARS else positive)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
    return ap


def main(argv=None) -> int:
    """Parse argv, run its command, emit its text and pick the exit code.
    With --config, parse again with the file's flags after the command and
    before argv's own: argv wins, and --params merge, the later per key."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            args = ap.parse_args(argv[:1] + config_flags(args.config)
                                 + argv[1:])
        if not args.model:
            raise UsageError("--model is required (choose from %s)"
                             % ", ".join(BUILTIN_NAMES))
        args.params = dict(args.params or ())
        code, text = COMMANDS[args.command][0](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (BlowUpError, QuadratureError, ValueError) as exc:
        code, message = failure(exc)
        emit(message + "\n", sys.stderr)
        return code
    if args.out:
        try:
            with open(args.out, "w") as stream:
                error = emit(text, stream)
        except OSError as exc:
            error = exc
    else:
        error = emit(text, sys.stdout)
    if isinstance(error, BrokenPipeError):
        return 141  # 128 + SIGPIPE, as cat reports
    if error:
        emit("error: cannot write %s: %s\n"
             % ("--out %r" % args.out if args.out else "stdout",
                error.strerror), sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
