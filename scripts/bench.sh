#!/usr/bin/env sh
# bench.sh — measure the evaluation engine and emit machine-readable
# results.
#
# Runs the staged trace-replay micro-benchmarks (ns/op and B/op for the
# replay inner loop — pooled, with warm and with cold phase tables, on a
# fresh stack — and for one evaluation by replay and by the live
# reference), then the population-32
# evaluator benchmark over every paper workload, writing its result —
# ns/genome, B/genome, stage-cache hit rates, speedup, and score
# identity per workload — as JSON.
#
# Also runs the offline-training benchmark — application-fidelity direct
# sweep vs the replay-backed sweep over the identical run plan, plus
# full-retrain and artifact-resume wall times — and writes it as JSON.
#
# Runs the online re-tuning benchmark — every paper workload served
# across a mid-run machine degradation, reporting time-to-readapt,
# recovery vs a zero-delay oracle, and the stage time saved by
# SHAMan-style pruning (with bit-identical window curves) — as JSON.
#
# Finally records the host the figures were measured on — nproc,
# GOMAXPROCS, Go version — beside them, so a committed host-speed figure
# always says what it was measured with. Serving under concurrent load is
# bench/'s business (BENCHMARK.json, bench/run.sh), not this script's.
#
# Usage: scripts/bench.sh [eval.json] [train.json] [drift.json] [host.json]
#        (defaults BENCH_eval.json, BENCH_train.json, BENCH_drift.json,
#        BENCH_host.json)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_eval.json}"
trainout="${2:-BENCH_train.json}"
driftout="${3:-BENCH_drift.json}"
hostout="${4:-BENCH_host.json}"

echo "== micro-benchmarks (ns/op, B/op) =="
go test -run '^$' -bench 'BenchmarkStagedExec(Pooled|WarmTables|WarmTablesCollective|ColdTables|FreshStack)|BenchmarkEval(DirectInterp|TraceReplay)|BenchmarkWarmHit' \
    -benchmem ./internal/replay ./internal/tuner

echo "== population benchmark (32 genomes x 5 workloads) -> $out =="
go run ./cmd/tunebench -fig eval -json "$out"

echo "== training pipeline benchmark (sweep + retrain + resume) -> $trainout =="
go run ./cmd/tunebench -fig train -json "$trainout"

echo "== online re-tuning benchmark (drift + pruning) -> $driftout =="
go run ./cmd/tunebench -fig drift -json "$driftout"

cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
printf '{\n  "nproc": %s,\n  "gomaxprocs": %s,\n  "go": "%s"\n}\n' \
    "$cpus" "${GOMAXPROCS:-$cpus}" "$(go env GOVERSION)" > "$hostout"

echo "bench: wrote $out, $trainout, $driftout, and $hostout"
