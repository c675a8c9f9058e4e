"""septrans runs on numpy alone: importing septrans and running any
subcommand must leave sys.modules free of scipy.  Every command but
melnikov runs on floats alone: importing septrans and septrans.cli, and
running validate, riccati, transversality or sweep, must leave it free of
numpy too.  Each check runs in a fresh
interpreter, since this test process has long imported scipy and numpy."""

import json
import os
import subprocess
import sys

import pytest

import septrans

# prints the modules of one package loaded after the import and after
# running the CLI with the given arguments
CHILD = """
import contextlib, io, json, sys
import septrans, septrans.cli

package = sys.argv[2]

def modules():
    return sorted(m for m in sys.modules
                  if m == package or m.startswith(package + "."))

after_import = modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = septrans.cli.main(json.loads(sys.argv[1]))
assert code == 0, code
print(json.dumps([after_import, modules()]))
"""


def loaded_modules(package, args):
    """(package's modules after the import, after the run) in a fresh
    interpreter."""
    # the child process imports the same septrans as this one
    src = os.path.dirname(os.path.dirname(septrans.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    r = subprocess.run([sys.executable, "-c", CHILD, json.dumps(args),
                        package],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def scipy_modules(args):
    return loaded_modules("scipy", args)


@pytest.mark.parametrize("model, params", [
    ("neumann", ["lambda1=1", "lambda2=2"]),
    ("pendula_identical", ["f0=0.25", "f1=-0.125"]),
    ("pendula_weak", ["lam=2"]),
])
def test_import_and_validate_load_no_scipy(model, params):
    assert scipy_modules(["validate", "--model", model,
                          "--params", *params]) == [[], []]


NEUMANN = ["--model", "neumann", "--params", "lambda1=1"]


@pytest.mark.parametrize("args", [
    ["transversality", *NEUMANN, "lambda2=2"],
    ["riccati", *NEUMANN, "lambda2=2"],
    ["sweep", *NEUMANN, "--sweep", "lambda2=1.5:2.5:3"],
    ["melnikov", "--model", "pendula_weak", "--params", "lam=2"],
], ids=lambda args: args[0])
def test_solves_load_no_scipy(args):
    # the slope equations and the oracle run on the in-house DOP853, the
    # Melnikov integrals are numpy trapezoids and its threshold is a Newton
    # root
    assert scipy_modules(args) == [[], []]


@pytest.mark.parametrize("model, params, sweep", [
    ("neumann", ["lambda1=1", "lambda2=2"], "lambda2=1.5:2.5:3"),
    ("pendula_identical", ["f0=0.25", "f1=-0.125"], "f0=0.15:0.35:3"),
    ("pendula_weak", ["lam=2"], "lam=1.5:2.5:3"),
])
@pytest.mark.parametrize("command",
                         ["validate", "riccati", "transversality", "sweep"])
def test_verdicts_load_no_numpy(command, model, params, sweep):
    # the hypothesis grid, the solve, its restriction check, the start-up
    # quadrature, the output grid and the stable jet run on floats
    args = [command, "--model", model, "--params", *params]
    if command == "sweep":
        args += ["--sweep", sweep]
    assert loaded_modules("numpy", args) == [[], []]


DELETED = ("eval_coefficients", "identity_transition", "inner_time_param",
           "loop_action_sigma", "InnerTimeResult", "UnsupportedOperationError",
           "read_table")


def test_public_names_resolve():
    for name in septrans.__all__:
        assert hasattr(septrans, name), name
    assert not set(DELETED) & set(septrans.__all__)
    assert not any(hasattr(septrans, name) for name in DELETED)
