#!/usr/bin/env bash
# End-to-end smoke for the service. First pipes a fixed NDJSON script
# (tools/served_stdin.ndjson: subscribe, updates, characterize, a garbage
# line) through hetero_served's stdin mode and diffs the sorted responses
# against tools/expected/served_stdin.txt. Then boots hetero_served with
# two event-loop workers on an ephemeral port, drives it over real sockets
# with a few hundred concurrent closed-loop clients via the perf_service
# harness (which exits non-zero on any malformed or dropped response),
# and checks that SIGTERM produces a graceful drain and a clean exit
# with the connection gauges in the shutdown metrics dump.
#
# Usage, from the repository root (after cmake --build build):
#   tools/ci_service_smoke.sh
# Env knobs: BUILD_DIR (default build), CLIENTS (300), REQUESTS (20),
# WORKERS (2), PORT (0 = ephemeral).
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${BUILD_DIR:-$REPO_ROOT/build}
CLIENTS=${CLIENTS:-300}
REQUESTS=${REQUESTS:-20}
WORKERS=${WORKERS:-2}
PORT=${PORT:-0}

# Pre-flight for a fixed port: a conflict must be a readable failure up
# front, not a hang waiting for a listening line that never comes.
if [ "$PORT" -ne 0 ]; then
  if command -v ss >/dev/null 2>&1 && ss -Hltn "sport = :$PORT" | grep -q .; then
    echo "port $PORT is already bound:" >&2
    ss -ltnp "sport = :$PORT" >&2 || true
    exit 1
  fi
fi

served="$BUILD_DIR/examples/hetero_served"
harness="$BUILD_DIR/bench/perf_service"
for bin in "$served" "$harness"; do
  [ -x "$bin" ] || { echo "missing binary: $bin (build first)" >&2; exit 1; }
done

# Stdin mode answers in completion order, so the order-free comparison is
# of the sorted lines.
echo "== smoke: stdin script through --threads 2"
"$served" --threads 2 < "$REPO_ROOT/tools/served_stdin.ndjson" 2>/dev/null |
  LC_ALL=C sort | diff -u "$REPO_ROOT/tools/expected/served_stdin.txt" -

log=$(mktemp)
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  rm -f "$log"
}
trap cleanup EXIT

"$served" --tcp "$PORT" --workers "$WORKERS" 2> "$log" &
pid=$!

# The server prints "svc: listening on port N (M workers)" once bound.
port=
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on port \([0-9][0-9]*\).*/\1/p' "$log" | head -1)
  [ -n "$port" ] && break
  # A bind/listen failure is terminal even if the process lingers: dump
  # the server's own error instead of spinning out the startup budget.
  if grep -qE 'bind\(\)|listen\(\)|socket\(\)' "$log"; then
    echo "server failed during socket setup:" >&2
    cat "$log" >&2
    exit 1
  fi
  kill -0 "$pid" 2>/dev/null || { echo "server died during startup:" >&2
                                  cat "$log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported its port; stderr was:" >&2
                    cat "$log" >&2; exit 1; }
echo "== smoke: $CLIENTS closed-loop clients x $REQUESTS requests" \
     "against $WORKERS workers on port $port"

# Closed-loop drive; non-zero exit (malformed/dropped/timeout) fails the
# script via set -e.
"$harness" --connect="127.0.0.1:$port" \
           --clients="$CLIENTS" --requests="$REQUESTS"

# Graceful shutdown: SIGTERM must drain and exit 0 within the grace
# budget, and the metrics dump must report the connection gauges.
kill -TERM "$pid"
deadline=$((SECONDS + 30))
while kill -0 "$pid" 2>/dev/null; do
  [ "$SECONDS" -lt "$deadline" ] || { echo "server did not exit after SIGTERM" >&2
                                      cat "$log" >&2; exit 1; }
  sleep 0.1
done
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "server exited with status $rc:" >&2
  cat "$log" >&2
  exit 1
fi
pid=

grep -q "^connections: " "$log" || {
  echo "shutdown dump is missing the connection gauges:" >&2
  cat "$log" >&2
  exit 1
}
echo "== smoke: OK"
grep "^connections: " "$log"
