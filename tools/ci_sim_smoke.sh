#!/usr/bin/env bash
# Scenario-suite smoke for the discrete-event simulator: replays every
# shipped scenarios/*.sim through examples/hetero_sim with four schedulers
# (immediate-mode greedy_mct and the BatchEngine-backed batch_min_min,
# batch_max_min and batch_sufferage), runs the whole sweep twice, and
# asserts
#   (a) the machine-parsable RESULT lines — trace hash included — are
#       bit-identical between the two passes, and
#   (b) every run reports non-zero energy (a zero means the P/C/S-state
#       accounting fell over silently).
#
# Usage, from the repository root (after cmake --build build):
#   tools/ci_sim_smoke.sh
# Env knobs: BUILD_DIR (default build), SCHEDULERS (comma list, default
# greedy_mct,batch_min_min,batch_max_min,batch_sufferage).
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${BUILD_DIR:-$REPO_ROOT/build}
SCHEDULERS=${SCHEDULERS:-greedy_mct,batch_min_min,batch_max_min,batch_sufferage}

sim="$BUILD_DIR/examples/hetero_sim"
[ -x "$sim" ] || { echo "missing binary: $sim (build first)" >&2; exit 1; }

scenarios=("$REPO_ROOT"/scenarios/*.sim)
[ -e "${scenarios[0]}" ] || {
  echo "no scenario files under $REPO_ROOT/scenarios" >&2
  exit 1
}

run_pass() {
  "$sim" --schedulers="$SCHEDULERS" --power-gate "${scenarios[@]}" \
    | grep '^RESULT '
}

echo "== sim smoke: ${#scenarios[@]} scenarios x {$SCHEDULERS}, two passes"
pass1=$(run_pass)
pass2=$(run_pass)

if [ "$pass1" != "$pass2" ]; then
  echo "RESULT lines differ between passes (determinism violation):" >&2
  diff <(printf '%s\n' "$pass1") <(printf '%s\n' "$pass2") >&2 || true
  exit 1
fi

bad=$(printf '%s\n' "$pass1" | grep -E 'energy_j=0(\.0*)?( |$)' || true)
if [ -n "$bad" ]; then
  echo "zero-energy RESULT rows:" >&2
  printf '%s\n' "$bad" >&2
  exit 1
fi

count=$(printf '%s\n' "$pass1" | wc -l)
expected=$((${#scenarios[@]} * $(echo "$SCHEDULERS" | tr ',' '\n' | wc -l)))
if [ "$count" -ne "$expected" ]; then
  echo "expected $expected RESULT rows, got $count:" >&2
  printf '%s\n' "$pass1" >&2
  exit 1
fi

echo "== sim smoke: OK ($count deterministic runs, all energy > 0)"
printf '%s\n' "$pass1"
