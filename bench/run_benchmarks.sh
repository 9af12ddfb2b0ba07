#!/usr/bin/env bash
# Runs every perf_* benchmark binary and records one JSON file per suite
# under bench_results/, named BENCH_<tag>_<suite>.json. The tag defaults to
# the current git short SHA so runs from different commits can sit side by
# side; pass a tag explicitly as the first argument (e.g. pr1) when
# labelling a milestone.
#
# Usage, from the repository root (after cmake --build build):
#   bench/run_benchmarks.sh [tag]
#
# Set FILTER to a google-benchmark regex to restrict what runs, e.g.
#   FILTER='BM_MinMin|BM_Batch' bench/run_benchmarks.sh pr2
# runs only the scheduler suites touched by a change, and
#   FILTER='BM_Service' bench/run_benchmarks.sh pr5
# runs only the service-layer closed-loop suites (perf_service: warm/cold
# characterize at 1/4/16 clients, schedule, cache hit-rate sweep).
#
# Set SIZES to an RxC list to add per-size rows to the size-sweep suites
# (perf_svd, perf_sinkhorn, perf_rsvd), e.g.
#   SIZES=4096x256,16384x1024 FILTER=BM_BlockedCharacterize \
#       bench/run_benchmarks.sh pr6
# runs the large-matrix frontier sweep only.
#
# Set HETERO_NATIVE=1 to configure and build a separate build-native tree
# with -DHETERO_NATIVE=ON (-march=native) and benchmark that instead — for
# measuring what the host ISA buys on top of the dispatched kernels.
#
# Set CLIENTS to additionally run the perf_service TCP harness (the epoll
# event loop driven over real sockets by the non-blocking loadgen of
# hetero_reference, reference/loadgen.cpp) at that
# many concurrent connections, recording BENCH_<tag>_service_tcp.json;
# WORKERS (default 1) sets the event-loop thread count and REQUESTS
# (default 100) the per-client request count, e.g.
#   CLIENTS=1000 WORKERS=$(nproc) bench/run_benchmarks.sh pr7
#
# Set MATRIX to a comma list of WxT (event-loop workers x compute threads)
# pairs to sweep the harness across a worker/thread grid, recording one
# JSON array in BENCH_<tag>_service_matrix.json, e.g.
#   CLIENTS=200 MATRIX=1x1,2x2,4x4 bench/run_benchmarks.sh pr9
#
# Set STREAM=1 (with CLIENTS) to run the delta-stream workload instead of
# characterize: every connection subscribes once and then streams `update`
# requests (BENCH_<tag>_stream_tcp.json). STREAM_SIZE (default 128x16) and
# STREAM_BATCH (default 1) shape the session matrix and the cells revised
# per update.
#
# Set OPEN_RPS to a comma list of offered loads to additionally run the
# harness open loop at each rate (latency-under-offered-load study),
# recording one JSON array in BENCH_<tag>_service_openloop.json.
#
# Set SIM=1 to run only the simulator suite (perf_sim): full discrete-event
# runs over the shipped scenarios/ files per scheduler token, plus the cold
# min_min/max_min/sufferage re-planners of hetero_reference, recorded as
# BENCH_<tag>_sim.json. SCENARIO narrows the sweep to specific files
# (comma list of paths), e.g.
#   SIM=1 SCENARIO=scenarios/starvation.sim bench/run_benchmarks.sh pr10
#
# Every recorded file is stamped with host metadata (cores, CPU, compiler,
# HETERO_SIMD backend) via tools/bench_meta.py.
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${BUILD_DIR:-$REPO_ROOT/build}

# Every result file is piped through bench_meta.py; if python3 is missing
# the stamping step would die mid-loop leaving unstamped (or, under FILTER,
# wrongly deleted) BENCH JSON behind. Refuse up front instead.
if ! command -v python3 >/dev/null 2>&1; then
  echo "run_benchmarks.sh: python3 not found; refusing to record unstamped" \
       "BENCH JSON (tools/bench_meta.py cannot run)" >&2
  exit 1
fi
if ! python3 -c 'import json' 2>/dev/null || \
   [ ! -r "$REPO_ROOT/tools/bench_meta.py" ]; then
  echo "run_benchmarks.sh: tools/bench_meta.py is not runnable with this" \
       "python3; refusing to record unstamped BENCH JSON" >&2
  exit 1
fi

if [ "${HETERO_NATIVE:-0}" = "1" ]; then
  BUILD_DIR=$REPO_ROOT/build-native
  echo "== HETERO_NATIVE=1: configuring and building $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DHETERO_NATIVE=ON \
        -DHETERO_BUILD_TESTS=OFF -DHETERO_BUILD_EXAMPLES=OFF \
        -DHETERO_BUILD_TOOLS=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)"
fi

TAG=${1:-$(git -C "$REPO_ROOT" rev-parse --short HEAD)}
OUT_DIR=${OUT_DIR:-$REPO_ROOT/bench_results}
MIN_TIME=${MIN_TIME:-0.3}
FILTER=${FILTER:-}
SIZES=${SIZES:-}
mkdir -p "$OUT_DIR"

# SIM=1: only the simulator suite. perf_sim defaults to the four shipped
# scenarios; SCENARIO (comma list of .sim paths) replaces that sweep.
if [ "${SIM:-0}" = "1" ]; then
  bench="$BUILD_DIR/bench/perf_sim"
  if [ ! -x "$bench" ]; then
    echo "run_benchmarks.sh: $bench not built — build with" \
         "cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
  scenario_args=
  for s in $(echo "${SCENARIO:-}" | tr ',' ' '); do
    scenario_args="$scenario_args --scenario=$s"
  done
  out="$OUT_DIR/BENCH_${TAG}_sim.json"
  echo "== perf_sim${SCENARIO:+ (${SCENARIO})} -> $out"
  # shellcheck disable=SC2086  # scenario_args is a flag list by design
  "$bench" $scenario_args \
           --benchmark_out="$out" --benchmark_out_format=json \
           --benchmark_min_time="$MIN_TIME" \
           ${FILTER:+--benchmark_filter="$FILTER"}
  python3 "$REPO_ROOT/tools/bench_meta.py" "$out"
  exit 0
fi

found=0
for bench in "$BUILD_DIR"/bench/perf_*; do
  [ -x "$bench" ] || continue
  found=1
  name=$(basename "$bench")
  out="$OUT_DIR/BENCH_${TAG}_${name#perf_}.json"
  echo "== $name -> $out"
  # Only the size-sweep binaries understand --sizes; the others would
  # reject it as an unknown flag.
  sizes_arg=
  case "$name" in
    perf_svd|perf_sinkhorn|perf_rsvd) [ -n "$SIZES" ] && sizes_arg="--sizes=$SIZES" ;;
  esac
  "$bench" ${sizes_arg:+"$sizes_arg"} \
           --benchmark_out="$out" --benchmark_out_format=json \
           --benchmark_min_time="$MIN_TIME" \
           ${FILTER:+--benchmark_filter="$FILTER"}
  # When FILTER matches nothing in this binary google-benchmark still exits
  # zero but leaves the output file empty — that means "not this suite",
  # not a failure; drop the empty file instead of recording it.
  if [ -n "$FILTER" ] && ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$out" 2>/dev/null; then
    echo "   (no benchmarks matching FILTER in $name; skipped)"
    rm -f "$out"
    continue
  fi
  python3 "$REPO_ROOT/tools/bench_meta.py" "$out"
done

if [ "$found" -eq 0 ]; then
  echo "no perf_* binaries under $BUILD_DIR/bench — build with" \
       "cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# TCP harness passes: real sockets, N concurrent clients against the epoll
# event loop. perf_service exits non-zero on malformed/dropped responses,
# which fails this script (set -e) — a bad number is never recorded.
if [ -n "${CLIENTS:-}" ]; then
  stream_args=
  suffix=service_tcp
  if [ "${STREAM:-0}" = "1" ]; then
    stream_args="--stream=1 --stream-size=${STREAM_SIZE:-128x16} --stream-batch=${STREAM_BATCH:-1}"
    suffix=stream_tcp
  fi

  run_harness() {
    # run_harness WORKERS THREADS OUT; appends the report line to OUT.
    "$BUILD_DIR/bench/perf_service" \
        --clients="$CLIENTS" \
        --workers="$1" \
        --threads="$2" \
        --requests="${REQUESTS:-100}" \
        ${stream_args:+$stream_args} \
        ${3:+--open-rps="$3"}
  }

  if [ -n "${MATRIX:-}" ]; then
    # WORKERS x THREADS grid: one harness run per WxT pair, all reports in
    # one JSON array tagged with their grid coordinates.
    out="$OUT_DIR/BENCH_${TAG}_service_matrix.json"
    echo "== perf_service $suffix matrix ($MATRIX) -> $out"
    {
      echo '['
      first=1
      for combo in $(echo "$MATRIX" | tr ',' ' '); do
        w=${combo%x*}
        t=${combo#*x}
        [ "$first" -eq 1 ] || echo ','
        first=0
        report=$(run_harness "$w" "$t" "")
        printf '{"workers":%s,"threads":%s,"report":%s}' "$w" "$t" "$report"
      done
      echo
      echo ']'
    } > "$out"
    python3 "$REPO_ROOT/tools/bench_meta.py" "$out"
    cat "$out"
  else
    out="$OUT_DIR/BENCH_${TAG}_${suffix}.json"
    echo "== perf_service --clients=$CLIENTS $stream_args -> $out"
    run_harness "${WORKERS:-1}" "${THREADS:-0}" "" > "$out"
    python3 "$REPO_ROOT/tools/bench_meta.py" "$out"
    cat "$out"
  fi

  if [ -n "${OPEN_RPS:-}" ]; then
    # Open-loop latency-under-offered-load study: fixed arrival schedule at
    # each offered rate, one report per rate.
    out="$OUT_DIR/BENCH_${TAG}_service_openloop.json"
    echo "== perf_service open-loop sweep ($OPEN_RPS rps) -> $out"
    {
      echo '['
      first=1
      for rps in $(echo "$OPEN_RPS" | tr ',' ' '); do
        [ "$first" -eq 1 ] || echo ','
        first=0
        report=$(run_harness "${WORKERS:-1}" "${THREADS:-0}" "$rps")
        printf '{"offered_rps":%s,"report":%s}' "$rps" "$report"
      done
      echo
      echo ']'
    } > "$out"
    python3 "$REPO_ROOT/tools/bench_meta.py" "$out"
    cat "$out"
  fi
fi
