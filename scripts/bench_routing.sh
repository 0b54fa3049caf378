#!/bin/sh
# Benchmark the routing hot path (serial and sharded Step, open loop,
# batch route), the amortized-execution layer (cold vs warm Execute
# over the artifact cache) and the mapped emulation's recursive bisection,
# and record the results as BENCH_routing.json
# at the repo root. The JSON keeps the benchmark trajectory diffable
# across PRs and is uploaded as a CI artifact.
#
# Usage:  scripts/bench_routing.sh [output.json]
#
# Environment:
#   COUNT      repetitions per benchmark, averaged into one row (default 3)
#   BENCHTIME  go test -benchtime value (default 10x; the sharded Step on
#              the dim-16 hypercube costs tens of ms per op)
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_routing.json}"
count="${COUNT:-3}"
benchtime="${BENCHTIME:-10x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test ./internal/routing/ -run '^$' -bench 'BenchmarkSim' \
    -benchmem -benchtime "$benchtime" -count "$count" | tee "$raw"
go test ./internal/runspec/ -run '^$' -bench 'BenchmarkExecuteColdVsWarm' \
    -benchmem -benchtime "$benchtime" -count "$count" | tee -a "$raw"
go test ./internal/mapping/ -run '^$' -bench 'BenchmarkRecursiveBisection' \
    -benchmem -benchtime "$benchtime" -count "$count" | tee -a "$raw"
go run ./cmd/benchjson < "$raw" > "$out"
echo "wrote $out"
