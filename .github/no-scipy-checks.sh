#!/usr/bin/env bash
# Commands that need the runtime alone (septrans and numpy, no scipy):
# run after `pip install -e .` and before the test extra brings scipy in.
# Usage: bash .github/no-scipy-checks.sh
set -eu

septrans melnikov --model pendula_weak --params lam=2 \
  | grep -q '^# verdict = perturbed_loop_transversal'
# exp overflows on the far nodes: a warning on stderr fails here; the
# grid's quad_error is a proven bound, at most 1e-12
err=$(septrans melnikov --model pendula_weak --params lam=40 2>&1 >/dev/null)
test -z "$err" || { echo "$err"; exit 1; }
septrans melnikov --model pendula_weak --params lam=40 | awk '
  /^# quad_error = / { seen = 1; ok = $4 <= 1e-12; print }
  END { exit !(seen && ok) }'
# case B's thresholds are the derivatives' proven error bound: printed,
# and at most 1e-10 (1.0e-11 at lam 40)
for lam in 1 40; do
  septrans melnikov --model pendula_weak --params lam=$lam | awk '
    /^# dL_error_bound = / { seen = 1; ok = $4 <= 1e-10; print }
    END { exit !(seen && ok) }'
done
# a section point's L does not depend on the grid it is sampled on
rows() { septrans melnikov --model pendula_weak --params lam=2.3 "--grid=$1" \
  | grep -E '^(-4|0|4),'; }
coarse=$(rows -4:4:3); fine=$(rows -4:4:81)
test "$(echo "$coarse" | wc -l)" = 3 && test "$coarse" = "$fine" \
  || { echo "$coarse"; echo "$fine"; exit 1; }
septrans transversality --model neumann --params lambda1=1 lambda2=2
septrans riccati --model pendula_identical --params f0=0.35 f1=0.1
# neumann's jet is arithmetic and sqrt alone, so its slope rows read the
# same bits on every supported Python and numpy: the dense output's pieces
# and the row writer, byte for byte (test_rk45's golden slopes)
rows=$(septrans riccati --model neumann --params lambda1=1 lambda2=2 \
  --grid 0:2:9 | grep -v '^#')
want='q1,Tu
0,2
0.25,1.9489812061075522
0.5,1.8077819362854726
0.75,1.6060810602534428
1,1.3784615388483923
1.25,1.1533617977910595
1.5,0.94854736849987065
1.75,0.7719941545668173
2,0.62500000002342648'
test "$rows" = "$want" || { echo "$rows"; exit 1; }
septrans validate --model pendula_weak --params lam=1.5
# coefficients that overflow to inf and nan fail validate's checks (exit
# 1) on floats: a warning on stderr fails here
for args in "--model neumann --params lambda1=1e200 lambda2=2e200" \
    "--model pendula_weak --params lam=1e300"; do
  code=0; err=$(septrans validate $args 2>&1 >/dev/null) || code=$?
  test "$code" = 1 && test -z "$err" \
    || { echo "validate $args: exit $code"; echo "$err"; exit 1; }
done
septrans transversality --model pendula_weak --params lam=1.5
septrans sweep --model pendula_weak --sweep lam=1.5:2.5:3
# constant coupling on the slope solve's float path: tangent at f0 = 0,
# transversal at the other three values (the last column is verdict_code)
septrans sweep --model pendula_identical --sweep f0=0:0.3:4 | awk -F, '
  /^#/ || /^f0,/ { next }
  { n++; ok += ($1 == 0) ? ($NF == 0) : ($NF == 1) }
  END { exit !(n == 4 && ok == 4) }'
# tangent by construction; the hardest lam the tests check
septrans transversality --model pendula_weak --params lam=40 \
  | grep '"verdict": "tangent"'
# in the band near lam 2.76 a solve at rtol 1e-12 accepts one step far
# above its tolerance (gap 2.7e-10 here); a tangent verdict decides at its
# second rung, rtol 1e-11, which reads 1.6e-12
septrans transversality --model pendula_weak --params lam=2.759886874077371 \
  | grep '"verdict": "tangent"'
# the slope climbs to about lam before it falls to 0 at pi: judged against
# the end slopes alone, the loose rung read transversal here
septrans transversality --model pendula_weak --params lam=1e4 \
  | grep '"verdict": "tangent"'
# a transversal verdict decides at the default first rung, printed as given
septrans transversality --model pendula_identical --params f0=0.2 f1=0.05 \
  | grep '"rtol": 1e-09'
# a node count that overflows, a loop speed that underflows to 0, and a
# coefficient that overflows to nan: each exits 3 with one line on stderr,
# not a traceback
for args in "melnikov --model pendula_weak --params lam=1e300 --grid=-1:1:3" \
    "riccati --model pendula_identical --params f0=0.2 --grid=0:3.14:3 --epsilon 1e-300" \
    "transversality --model neumann --params lambda1=1e-300 lambda2=2" \
    "transversality --model pendula_weak --params lam=1e300"; do
  code=0; err=$(septrans $args 2>&1 >/dev/null) || code=$?
  test "$code" = 3 || { echo "$args: exit $code"; echo "$err"; exit 1; }
  case "$err" in *Traceback*) echo "$err"; exit 1;; esac
done
# a stderr that cannot be written changes no exit code: the exit-3 solve
# above, with stderr on a full device; and a failing sweep (exit 2) with
# stderr closed prints its table on stdout, not its per-value lines
code=0; septrans transversality --model neumann --params lambda1=1e-300 \
  lambda2=2 2>/dev/full || code=$?
test "$code" = 3 || { echo "2>/dev/full: exit $code"; exit 1; }
code=0; out=$(septrans sweep --model neumann --params lambda1=1 \
  --sweep lambda2=0.5:2:4 2>&-) || code=$?
case "$code:$out" in "2:# model = neumann"*) ;;
  *) echo "sweep 2>&-: exit $code"; echo "$out"; exit 1;; esac
# an over-budget grid (186 million nodes) is refused before numpy allocates
# them: exit 3 with one line on stderr, in bounded time
code=0; err=$(timeout 20 septrans melnikov --model pendula_weak \
  --params lam=2 --grid=-1e7:1e7:5 2>&1 >/dev/null) || code=$?
test "$code" = 3 || { echo "grid 1e7: exit $code"; echo "$err"; exit 1; }
case "$err" in *Traceback*|*$'\n'*|"") echo "$err"; exit 1;; esac
# a start offset above its default, 1e-4 of the domain, exits 2 with nothing
# on stdout: epsilon 3 read transversal with the wrong sign of the gap
code=0; out=$(septrans transversality --model pendula_identical \
  --params f0=0.2 --epsilon 3 2>/dev/null) || code=$?
test "$code" = 2 && test -z "$out" || { echo "--epsilon 3: exit $code"; exit 1; }
# the linear-ODE oracle, through its Pruefer angle, agrees with the slope
# solve at the matching point; a target beyond the loop interval (neumann's
# is (0, 8]) raises ValueError, as it does for the solve
python - <<'EOF_PY'
from septrans import builtin_model, riccati_to_linear_oracle, solve_riccati
for name, params in [("neumann", [1.2, 3.0]),
                     ("pendula_identical", [0.2, 0.05]),
                     ("pendula_weak", [2.5])]:
    m = builtin_model(name, params)
    q1 = m.matching[0]
    gap = abs(riccati_to_linear_oracle(m, q1) - solve_riccati(m, q1)(q1))
    assert gap <= 1e-8, (name, params, gap)
try:
    riccati_to_linear_oracle(builtin_model("neumann", [1.0, 2.0]), 9.0)
except ValueError:
    pass
else:
    raise SystemExit("oracle at q1=9 past neumann's (0, 8] did not raise")
EOF_PY
# the oracle against two exact slopes, on the runtime alone: neumann's
# closed form T(2) = 0.625 at [1, 2], and pendula_weak's T(pi) = 0, as it
# is tangent by construction; and no scipy module loaded
python - <<'EOF_PY'
import math
import sys
from septrans import builtin_model, riccati_to_linear_oracle
gap = riccati_to_linear_oracle(builtin_model("neumann", [1.0, 2.0]),
                               2.0) - 0.625
T = riccati_to_linear_oracle(builtin_model("pendula_weak", [2.5]), math.pi)
print("oracle: neumann T(2) - 0.625 = %.2g, pendula_weak T(pi) = %.2g"
      % (gap, T))
assert abs(gap) <= 1e-10 and abs(T) < 1e-10
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
EOF_PY
# a cosine index above the cap exits 2 before a 50,000,001-entry list is
# built (about 10 GB)
code=0; timeout 20 septrans validate --model pendula_identical \
  --params f0=0.2 f50000000=1e-9 2>/dev/null || code=$?
test "$code" = 2 || { echo "f50000000: exit $code"; exit 1; }
# a grid size above the cap exits 2 before a billion-point list is built
# (about 32 GB)
code=0; timeout 20 septrans riccati --model neumann \
  --params lambda1=1 lambda2=2 --grid 0:2:1000000000 2>/dev/null || code=$?
test "$code" = 2 || { echo "grid 1e9: exit $code"; exit 1; }
# a flag the command does not read is a usage error, with nothing on
# stdout; no command reads --atol (rtol / 1000) or --cap (a constant)
for args in "melnikov --model pendula_weak --params lam=2 --rtol 1e-3" \
    "transversality --model neumann --params lambda1=1 lambda2=2 --atol 1e-12" \
    "riccati --model neumann --params lambda1=1 lambda2=2 --cap 10"; do
  code=0; out=$(septrans $args 2>/dev/null) || code=$?
  test "$code" = 2 && test -z "$out" || { echo "$args: exit $code"; exit 1; }
done
# so is a setting that is not finite
code=0; septrans transversality --model neumann --params lambda1=1 lambda2=2 \
  --rtol inf >/dev/null 2>&1 || code=$?
test "$code" = 2 || { echo "--rtol inf: exit $code"; exit 1; }
# an rtol below MIN_RTOL (1e-14) exits 2 with one error line naming the
# floor, not a traceback: dop853's first trial step would be nan there
code=0; err=$(septrans transversality --model neumann --params lambda1=1 \
  lambda2=2 --rtol 1e-300 2>&1 >/dev/null) || code=$?
test "$code" = 2 || { echo "--rtol 1e-300: exit $code"; echo "$err"; exit 1; }
case "$err" in *Traceback*|*$'\n'*|"") echo "$err"; exit 1;; esac
# a reader that closes the pipe early gets exit 141 (as for SIGPIPE), with
# nothing on stderr
err=$( { septrans riccati --model neumann --params lambda1=1 lambda2=2 \
  --grid 0:2:20000 | head -1 >/dev/null; echo "exit ${PIPESTATUS[0]}"; } 2>&1 )
test "$err" = "exit 141" || { echo "$err"; exit 1; }
# an --out that cannot be written exits 2 with one error line, not a
# traceback
code=0; err=$(septrans validate --model neumann --params lambda1=1 \
  lambda2=2 --out /nonexistent/x.json 2>&1 >/dev/null) || code=$?
test "$code" = 2 || { echo "--out: exit $code"; echo "$err"; exit 1; }
case "$err" in *Traceback*|*$'\n'*) echo "$err"; exit 1;; esac
# so is an output that cannot be written, here a full device
code=0; err=$(septrans validate --model neumann --params lambda1=1 \
  lambda2=2 --out /dev/full 2>&1 >/dev/null) || code=$?
test "$code" = 2 || { echo "--out /dev/full: exit $code"; echo "$err"; exit 1; }
case "$err" in *Traceback*|*$'\n'*|"") echo "$err"; exit 1;; esac
# and a help that cannot be written, which exited 0 with the help lost
code=0; err=$(septrans validate --help 2>&1 >/dev/full) || code=$?
test "$code" = 2 || { echo "--help >/dev/full: exit $code"; echo "$err"; exit 1; }
case "$err" in *Traceback*|*$'\n'*|"") echo "$err"; exit 1;; esac
# a grid whose (b - a) * (n - 1) overflows exits 2 with nothing on stdout:
# it printed a lam=inf row and exited 3, though the spec ends at 1e308
code=0; out=$(septrans sweep --model pendula_weak --sweep lam=1:1e308:3 \
  2>/dev/null) || code=$?
test "$code" = 2 && test -z "$out" || { echo "lam=1:1e308:3: exit $code"; exit 1; }
