#!/usr/bin/env sh
# bench.sh — measure the evaluation engine and emit machine-readable
# results.
#
# Runs the staged trace-replay micro-benchmarks (ns/op and B/op for the
# replay inner loop — pooled, with warm and with cold phase tables, on a
# fresh stack — and both evaluators), then the population-32
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
# Finally runs the concurrent-load serving benchmark — 8 simultaneous
# sessions per workload against one shared engine (in process and over a
# live HTTP server), sharded/copy-on-write caches vs a single-global-
# mutex baseline, with warm-path cache throughput and curve bit-identity
# against solo Tune — and writes it as JSON.
#
# Usage: scripts/bench.sh [eval.json] [train.json] [drift.json] [serve.json]
#        (defaults BENCH_eval.json, BENCH_train.json, BENCH_drift.json,
#        BENCH_serve.json)
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_eval.json}"
trainout="${2:-BENCH_train.json}"
driftout="${3:-BENCH_drift.json}"
serveout="${4:-BENCH_serve.json}"

echo "== micro-benchmarks (ns/op, B/op) =="
go test -run '^$' -bench 'BenchmarkStagedExec(Pooled|WarmTables|WarmTablesCollective|ColdTables|FreshStack)|BenchmarkEval(DirectInterp|TraceReplay)|BenchmarkWarmHit' \
    -benchmem ./internal/replay ./internal/tuner

echo "== population benchmark (32 genomes x 5 workloads) -> $out =="
go run ./cmd/tunebench -fig eval -json "$out"

echo "== training pipeline benchmark (sweep + retrain + resume) -> $trainout =="
go run ./cmd/tunebench -fig train -json "$trainout"

echo "== online re-tuning benchmark (drift + pruning) -> $driftout =="
go run ./cmd/tunebench -fig drift -json "$driftout"

echo "== concurrent-load serving benchmark (8 sessions, sharded vs mutex) -> $serveout =="
go run ./cmd/tunebench -fig serve -json "$serveout"

echo "bench: wrote $out, $trainout, $driftout, and $serveout"
