#!/usr/bin/env sh
# ci.sh — the repository's full verification gate.
#
# Runs the build, vet, formatting, and test (including race) checks that
# must pass before merging. Usage: scripts/ci.sh [package-pattern]
# (defaults to ./...).
set -eu

cd "$(dirname "$0")/.."
pkgs="${1:-./...}"

echo "== go build =="
go build "$pkgs"

echo "== go vet =="
go vet "$pkgs"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test =="
go test "$pkgs"

echo "== go test -race (evaluation engine) =="
# The batch evaluation engine's concurrency and staged-replay equivalence
# tests always run under the race detector, even when a narrower package
# pattern was requested: the stage cache and stack pool are shared across
# workers, so the bit-identity proofs must hold concurrently too.
go test -race -run 'TestPool|TestMemo|TestSeedFor|TestRunBatch|TestTune(ParallelDeterminism|Cancellation|Memoization)|TestTraceEvaluator|TestGate' ./internal/tuner .
go test -race -run 'TestStagedExec|TestStageCache|TestSharedStageCache|TestKernelStore|TestPooledStack' ./internal/replay

echo "== go test -race (stage 3a phase tables) =="
# Phase tables are published into slots shared by every execution of a
# wire plan: the plan/charge equivalence proof, the first-touch race, the
# aborted-prefix and stale-table fallbacks run under the race detector
# even when a narrower package pattern was requested.
go test -race -run 'TestPlanCharge|TestStaleTable|TestWideLoad|TestLayout|TestEpochStamps|TestFront|TestDriftWalks|TestReadTable|TestBackendFile' ./internal/lustre
go test -race -run 'TestStagedExec|TestAbortedExec|TestFlippedCreationOrder|TestMemBackend|TestWarmExecAllocs|TestMetaTables|TestLowerPlanSlot' ./internal/replay
# Stage 3b: the noise stream every one of those runs draws from is seeded
# on demand, and must stay math/rand's own.
go test -race -run 'TestNoiseSource|TestSimReset' ./internal/cluster
# Collective rounds charge tables through the one mpiio round loop, and the
# stage cache hands equal content out as one artifact: the round oracle and
# the canonical-plan proofs (8 goroutines racing first touch) run here too.
go test -race -run 'TestCollectiveRounds' ./internal/lustre
go test -race ./internal/mpiio
go test -race -count=3 -run 'TestCanonical' ./internal/replay

echo "== go test -race (tuning server) =="
# The server multiplexes concurrent tenants onto one shared engine
# (worker gate, kernel store, stage cache), so its whole test suite —
# including the concurrent-session and SSE streaming tests — runs under
# the race detector unconditionally.
go test -race ./internal/server

echo "== serve benchmark smoke (concurrent serving path) =="
# One workload, 4 concurrent sessions, in process and over HTTP: the
# serving path must complete and every served curve must stay
# bit-identical to a solo Tune under both cache architectures.
go test -race -run 'TestServeBenchSmoke' ./internal/servebench

echo "== go test -race (signature/trace cross-validation) =="
# The static I/O signature must exactly match the recorded trace on every
# fixture workload (event counts and byte totals, no tolerance).
go test -race -run 'TestCrossValidate' ./internal/replay

echo "== benchmark module (bench/) =="
# bench/ is a nested module (tunio/bench, replace tunio => ../), so the
# root build and test never see it: vet it and run its own tests — the
# smoke run of all four workloads re-verifies every served curve against
# a fresh engine.
go -C bench vet ./...
go -C bench test ./...

echo "== statecheck (no package-level mutable state) =="
# The evaluation engine packages are shared across worker goroutines;
# allowlisted names are init-once lookup tables that are never written
# afterwards — wireFootprint, sigEventKind, and the noise stream's seeding
# tables noisePow and noiseCooked — plus ErrBudgetExceeded, a conventional
# sentinel error (assigned once, compared with errors.Is).
go run ./cmd/statecheck -allow wireFootprint,sigEventKind,ErrBudgetExceeded,noisePow,noiseCooked internal/replay internal/tuner internal/server internal/train internal/cluster internal/lustre

echo "== fuzz smoke (interval lattice, format expansion, noise stream) =="
go test -run=NONE -fuzz=FuzzIntervalJoinWiden -fuzztime=3s ./internal/analysis
go test -run=NONE -fuzz=FuzzExpandFormat -fuzztime=3s ./internal/analysis
go test -run=NONE -fuzz=FuzzNoiseSource -fuzztime=3s ./internal/cluster

echo "== go test -race =="
go test -race "$pkgs"

echo "== iolint self-run (fixture corpus) =="
# Generate the built-in workload sources and lint them: the shipped
# fixtures must stay free of error-severity findings, and the verifier
# must accept every transform on them (their computed paths propagate to
# constants, so TR003 stays quiet).
fixdir="$(mktemp -d)"
trap 'rm -rf "$fixdir"' EXIT
go run ./cmd/iofixtures -dir "$fixdir" > /dev/null
go run ./cmd/iolint -verify "$fixdir"/*.c

echo "== CLI exit-code contract =="
sh scripts/test_cli.sh

echo "ci: all checks passed"
