#!/usr/bin/env bash
# bench.sh — run the pinned benchmark suites and record the numbers.
#
# Three suites, one JSON file each:
#
#   reach   BenchmarkExplore*/BenchmarkCover*/BenchmarkMaxCover* in
#           internal/reach (includes the retained pre-arena core as the
#           "before" side)                          → BENCH_reach.json
#   sim     BenchmarkSimStep*/BenchmarkRunReplicas* in internal/sim
#           (includes the retained linear-scan core as the "before" side)
#                                                   → BENCH_sim.json
#   stable  BenchmarkStableAnalyze* in internal/stable (includes the
#           retained seed fixpoint as the "before" side; expect the Naive
#           benchmark to take minutes per iteration)  → BENCH_stable.json
#
# Usage:
#   scripts/bench.sh                   # all suites, full run
#   scripts/bench.sh sim               # one suite
#   BENCHTIME=1x scripts/bench.sh      # smoke run (CI)
#   OUT_SIM=/tmp/s.json scripts/bench.sh sim   # alternate output path
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
suites="${1:-all}"

# Temp files are cleaned up on any exit, including a failing `go test`
# under `set -e`.
tmpfiles=()
trap 'rm -f "${tmpfiles[@]:-}"' EXIT

# render <suite> <notes> <raw-file> <out-file>: turn `go test -bench` output
# into the committed JSON shape.
render() {
  awk -v suite="$1" -v notes="$2" \
      -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      -v goversion="$(go version | awk '{print $3}')" \
      -v benchtime="$benchtime" \
      -v maxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}" \
      -v hostcpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)" '
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
  name = $1; iters = $2
  sub(/-[0-9]+$/, "", name) # drop the GOMAXPROCS suffix: names must match across machines
  ns = ""; bytes = ""; allocs = ""; metrics = ""
  for (i = 3; i < NF; i += 2) {
    v = $i; u = $(i + 1)
    if (u == "ns/op") ns = v
    else if (u == "B/op") bytes = v
    else if (u == "allocs/op") allocs = v
    else {
      if (metrics != "") metrics = metrics ", "
      metrics = metrics "\"" u "\": " v
    }
  }
  row = "    {\"name\": \"" name "\", \"iterations\": " iters
  if (ns != "")     row = row ", \"ns_per_op\": " ns
  if (bytes != "")  row = row ", \"bytes_per_op\": " bytes
  if (allocs != "") row = row ", \"allocs_per_op\": " allocs
  if (metrics != "") row = row ", \"metrics\": {" metrics "}"
  row = row "}"
  rows[n++] = row
}
END {
  print "{"
  print "  \"suite\": \"" suite "\","
  print "  \"date\": \"" date "\","
  print "  \"go\": \"" goversion "\","
  print "  \"cpu\": \"" cpu "\","
  print "  \"gomaxprocs\": " maxprocs ","
  print "  \"host_cpus\": " hostcpus ","
  print "  \"benchtime\": \"" benchtime "\","
  print "  \"notes\": \"" notes "\","
  print "  \"benchmarks\": ["
  for (i = 0; i < n; i++) print rows[i] (i < n - 1 ? "," : "")
  print "  ]"
  print "}"
}' "$3" > "$4"
  echo "wrote $4" >&2
}

run_reach() {
  local out="${OUT_REACH:-BENCH_reach.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/reach -run '^$' \
    -bench 'Benchmark(Explore|Cover|MaxCover)' \
    -benchmem -benchtime "$benchtime" -count 1 | tee "$tmp" >&2
  render reach \
    "*Naive benchmarks run the retained pre-arena core (the before side of the comparison)" \
    "$tmp" "$out"
}

run_sim() {
  local out="${OUT_SIM:-BENCH_sim.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/sim -run '^$' \
    -bench 'Benchmark(SimStep|RunReplicas)' \
    -benchmem -benchtime "$benchtime" -count 1 | tee "$tmp" >&2
  render sim \
    "SimStepReference runs the retained linear-scan core and RunReplicasRebuild the per-replica-rebuild baseline (the before sides); the SimStep/SimStepReference interactions/sec ratio is the pinned single-thread speedup on the Q=132 product workload" \
    "$tmp" "$out"
}

run_stable() {
  local out="${OUT_STABLE:-BENCH_stable.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/stable -run '^$' \
    -bench 'BenchmarkStableAnalyze' \
    -benchmem -benchtime "$benchtime" -count 1 -timeout 2h | tee "$tmp" >&2
  render stable \
    "StableAnalyzeNaive runs the retained seed fixpoint (the before side; the seed complementation cannot finish this workload, so the baseline borrows the production complementation — the fixpoint ratio is conservative); pinned workload binary:104, |U_0 basis| = 11538" \
    "$tmp" "$out"
}

case "$suites" in
  reach)    run_reach ;;
  sim)      run_sim ;;
  stable)   run_stable ;;
  all)      run_reach; run_sim; run_stable ;;
  *) echo "usage: scripts/bench.sh [reach|sim|stable|all]" >&2; exit 2 ;;
esac
