#!/usr/bin/env sh
# ci.sh — the repository's full verification gate.
#
# Runs the build, vet, formatting, and test (including race) checks that
# must pass before merging. Usage: scripts/ci.sh [package-pattern]
# (defaults to ./...).
set -eu

cd "$(dirname "$0")/.."
pkgs="${1:-./...}"

# race_run PACKAGES PATTERN...: run the tests the patterns name under the
# race detector, refusing a pattern that names none — a renamed or deleted
# test must fail the gate, not silently shrink it.
race_run() {
    race_pkgs="$1"
    shift
    race_joined=""
    for race_pat in "$@"; do
        # shellcheck disable=SC2086
        if ! go test -list "$race_pat" $race_pkgs | grep -q '^\(Test\|Fuzz\)'; then
            echo "ci: -race pattern '$race_pat' names no test in $race_pkgs" >&2
            exit 1
        fi
        race_joined="${race_joined:+$race_joined|}$race_pat"
    done
    # shellcheck disable=SC2086
    go test -race -run "$race_joined" $race_pkgs
}

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
# The evaluation engine's concurrency tests (the one fan-out, pool, memo,
# gate), the staged-replay equivalence proofs and the engine's trace/
# fallback rules always run under the race detector, even when a narrower
# package pattern was requested: the stage cache and stack pool are shared
# across workers, so the bit-identity proofs must hold concurrently too. A
# catalogue of warm kernels must never be evicted from them.
race_run "./internal/tuner ." TestPool TestFanOut TestMemo TestSeedFor TestRunBatch \
    'TestTune(ParallelDeterminism|Cancellation|Memoization)' TestTraceEvaluator TestResolveKernel TestGate \
    'TestDrift(WorkerCount|Pruning)' 'TestEngine(KernelIdentity|Untraceable|KernelFallsBack)' \
    'TestEngine(DistinctTraces|EqualTraces|TunesWhatTheSignatureContradicts|HostileSources)' TestKernelIsItsTrace \
    TestEngineColdJobBuildsByFootprint TestRecordingNeedsNoMachine 'TestEngine(RefusesNonFiniteCompute|FixPinsShareARecording)' \
    TestWarmSetsNeverEvict
# Stage 1 is a planning library per miss, built on whichever worker misses:
# its refusal test and the trace walker's seed corpus race with the rest.
# A kernel's first build teaches it its plan footprint while the other
# workers wait on it; the footprint's soundness proof runs here as well. The
# caches forget under a bytes budget: sessions racing on a one-kernel cache
# keep their curves, a kernel evicted mid-session keeps its builds, the
# counters never go backwards and the store evicts least recently used.
race_run ./internal/replay TestStagedExec TestStageCache TestSharedStageCache TestKernelStore TestPooledStack TestStagedPlanRefuses FuzzTraceWalk \
    TestPlanFootprintIsSound 'TestStageCacheEviction(KeepsCurves|MidSession)' TestStageCacheStatsMonotoneAcrossEviction \
    TestKernelStoreEvictsLeastRecentlyUsed
# Recording runs the interpreter on the session's goroutine, many sessions
# at once: it shares nothing and starts nothing, which its seed corpus, the
# differential corpus of the tree walk it replaced, the depth limit, the
# refused non-finite compute and the first-error and goroutine-count tests
# show under the detector.
race_run ./internal/cinterp FuzzRun TestCorpusGolden TestLangRunawayRecursionCaught TestLangNonFiniteComputeRefused \
    TestRunFirstError TestRunStaysOnTheCallersGoroutine
# Every shared table above is one internal/cowmap.Map: its first-writer-
# wins, delete and immutable-snapshot contracts are raced here, the
# build-once slots on top of it by the TestStageCache pattern above.
go test -race -count=3 ./internal/cowmap

echo "== go test -race (stage 3a phase tables) =="
# Phase tables are published into slots shared by every execution of a
# wire plan: the plan/charge equivalence proof, the first-touch race, the
# aborted-prefix and stale-table fallbacks run under the race detector
# even when a narrower package pattern was requested.
race_run ./internal/lustre TestPlanCharge TestStaleTable TestWideLoad TestLayout TestEpochStamps TestFront TestDriftWalks TestReadTable TestBackendFile
race_run ./internal/replay TestStagedExec TestAbortedExec TestFlippedCreationOrder TestMemBackend TestWarmExecAllocs TestMetaTables TestLowerPlanSlot
# Stage 3b: the noise stream every one of those runs draws from is seeded
# on demand, and must stay math/rand's own.
race_run ./internal/cluster TestNoiseSource TestSimReset
# Collective rounds charge tables through the one mpiio round loop, and the
# stage cache hands equal content out as one artifact: the round oracle and
# the canonical-plan proofs (8 goroutines racing first touch) run here too.
race_run ./internal/lustre TestCollectiveRounds
go test -race ./internal/mpiio
go test -race -count=3 -run 'TestCanonical' ./internal/replay

echo "== go test -race (tuning server) =="
# The server multiplexes concurrent tenants onto one shared engine
# (worker gate, kernel store, stage cache), so its whole test suite —
# including the concurrent-session and SSE streaming tests — runs under
# the race detector unconditionally.
go test -race ./internal/server

echo "== go test -race (signature/trace cross-validation) =="
# The static I/O signature must exactly match the recorded trace on every
# fixture workload (event counts and byte totals, no tolerance), and on the
# pinned corpus of rank-divergent programs wherever it claims to be exact:
# a test-time oracle, not a gate on the job path.
race_run ./internal/replay TestCrossValidate
race_run ./internal/tuner TestCrossValidatePinnedTraces

echo "== benchmark module (bench/) =="
# bench/ is a nested module (tunio/bench, replace tunio => ../), so the
# root build and test never see it: vet it and run its own tests — the
# smoke run of all four workloads re-verifies every served curve against
# a fresh engine.
go -C bench vet ./...
go -C bench test ./...

echo "== interpreter benchmarks compile and run once =="
go test -run '^$' -bench 'BenchmarkRunRanks|BenchmarkRecordCold' -benchtime 1x ./internal/cinterp

echo "== statecheck (no package-level mutable state) =="
# The evaluation engine packages are shared across worker goroutines;
# allowlisted names are init-once lookup tables that are never written
# afterwards — sigEventKind, the noise stream's seeding tables noisePow
# and noiseCooked, and darshan's layerNames — plus
# ErrBudgetExceeded, a conventional sentinel error (assigned once, compared
# with errors.Is). The layers under the engine are covered too: a planning
# library runs on every worker that misses stage 1, a live stack on every
# worker that replays, and neither may grow package state unnoticed. So are
# the parser and the interpreter, which run on every session that records:
# their allowlisted names are the read-only lookup maps fullyCollective,
# constants, unaryOps, binaryOps, binaryPrec, keywords and typeNames, and
# the interpreter's sentinels for what is unwinding a rank: errBreak,
# errContinue, errReturn, errExit and errBudget.
go run ./cmd/statecheck -allow sigEventKind,ErrBudgetExceeded,noisePow,noiseCooked,layerNames,fullyCollective,constants,unaryOps,binaryOps,errBreak,errContinue,errReturn,errExit,errBudget,binaryPrec,keywords,typeNames internal/replay internal/tuner internal/server internal/train internal/cluster internal/lustre internal/hdf5 internal/mpiio internal/workload internal/darshan internal/cinterp internal/csrc

echo "== fuzz smoke (interval lattice, format expansion, noise stream, trace walk, interpreter, phase planner) =="
go test -run=NONE -fuzz=FuzzIntervalJoinWiden -fuzztime=3s ./internal/analysis
go test -run=NONE -fuzz=FuzzExpandFormat -fuzztime=3s ./internal/analysis
go test -run=NONE -fuzz=FuzzNoiseSource -fuzztime=3s ./internal/cluster
go test -run=NONE -fuzz=FuzzTraceWalk -fuzztime=3s ./internal/replay
go test -run=NONE -fuzz=FuzzRun -fuzztime=3s ./internal/cinterp
go test -run=NONE -fuzz=FuzzPlan -fuzztime=3s ./internal/lustre

echo "== go test -race =="
go test -race "$pkgs"

echo "== iolint self-run (fixture corpus) =="
# Generate the built-in workload sources and lint them: the shipped
# fixtures must stay free of error-severity findings, and the verifier
# must accept every transform on them (their computed paths propagate to
# constants, so TR003 stays quiet).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/iofixtures -dir "$tmp" > /dev/null
go run ./cmd/iolint -verify "$tmp"/*.c

echo "== drift figure (BENCH_drift.json) =="
# Every field of the online re-tuning figure is a simulated quantity, so
# the committed JSON must be byte for byte what the code regenerates. Host
# speed is not diffed here: that is bench/'s (BENCHMARK.json).
go run ./cmd/tunebench -fig drift -json "$tmp/drift.json" > /dev/null
cmp "$tmp/drift.json" BENCH_drift.json

echo "== CLI exit-code contract =="
sh scripts/test_cli.sh

echo "ci: all checks passed"
