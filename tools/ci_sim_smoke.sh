#!/usr/bin/env bash
# Scenario-suite smoke for the discrete-event simulator: replays every
# shipped scenarios/*.sim through examples/hetero_sim with four schedulers
# (immediate-mode greedy_mct and the BatchEngine-backed batch_min_min,
# batch_max_min and batch_sufferage), runs the whole sweep twice, and
# asserts
#   (a) the machine-parsable RESULT lines — trace hash included — are
#       bit-identical between the two passes,
#   (b) every run reports non-zero energy (a zero means the P/C/S-state
#       accounting fell over silently), and
#   (c) the RESULT lines, and the stdout of bench/app_dynamic_modes and
#       examples/dynamic_scheduling, match the recorded outputs in
#       tools/expected/ byte for byte, so an output that changed since
#       they were recorded fails here. An intended change re-records them
#       (the RESULT lines this script prints, each binary's stdout) and
#       says why in its commit.
#
# Usage, from the repository root (after cmake --build build):
#   tools/ci_sim_smoke.sh
# Env knobs: BUILD_DIR (default build), SCHEDULERS (comma list, default
# greedy_mct,batch_min_min,batch_max_min,batch_sufferage; the recorded
# RESULT lines cover the default list only).
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${BUILD_DIR:-$REPO_ROOT/build}
DEFAULT_SCHEDULERS=greedy_mct,batch_min_min,batch_max_min,batch_sufferage
SCHEDULERS=${SCHEDULERS:-$DEFAULT_SCHEDULERS}
EXPECTED="$REPO_ROOT/tools/expected"

sim="$BUILD_DIR/examples/hetero_sim"
modes="$BUILD_DIR/bench/app_dynamic_modes"
dynamic="$BUILD_DIR/examples/dynamic_scheduling"
for bin in "$sim" "$modes" "$dynamic"; do
  [ -x "$bin" ] || { echo "missing binary: $bin (build first)" >&2; exit 1; }
done

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

# (c) Recorded outputs, each compared as one file.
check_expected() {
  local name=$1 actual=$2
  if ! diff <(printf '%s\n' "$actual") "$EXPECTED/$name" >&2; then
    echo "output differs from tools/expected/$name (diff above:" \
         "< this build, > recorded)" >&2
    exit 1
  fi
}
if [ "$SCHEDULERS" = "$DEFAULT_SCHEDULERS" ]; then
  check_expected sim_smoke_results.txt "$pass1"
else
  echo "== sim smoke: custom SCHEDULERS, recorded RESULT lines not compared"
fi
check_expected app_dynamic_modes.txt "$("$modes")"
check_expected dynamic_scheduling.txt "$("$dynamic")"

echo "== sim smoke: OK ($count deterministic runs, all energy > 0," \
     "outputs match tools/expected/)"
printf '%s\n' "$pass1"
