#!/usr/bin/env sh
# benchcmp.sh — compare benchmark results between a base revision and the
# working tree.
#
# Checks the base revision out into a temporary git worktree, runs the
# selected benchmarks there and in the current tree, and prints a
# per-benchmark ns/op table with the speedup. No dependencies beyond git,
# go, and awk.
#
# With -f, compares a tunebench JSON figure instead: the figure is
# regenerated in both trees (e.g. -f eval for BENCH_eval.json), each
# result is flattened to "path value" lines by cmd/benchjson, and every
# numeric field is diffed side by side. Fields that exist on only one
# side (a new figure, a renamed column) print as "new"/"gone".
#
# Usage: scripts/benchcmp.sh [-b base-rev] [-p pattern] [-n benchtime] [-f figure]
#   -b  base revision to compare against (default HEAD)
#   -p  benchmark regexp passed to -bench  (default BenchmarkTuneEvaluationEngine|BenchmarkFoldInterpreter)
#   -n  -benchtime value                   (default 3x)
#   -f  tunebench figure to diff as JSON (e.g. eval, train, drift)
set -eu

cd "$(dirname "$0")/.."

base="HEAD"
pattern='BenchmarkTuneEvaluationEngine|BenchmarkFoldInterpreter'
benchtime="3x"
figure=""
while getopts b:p:n:f: opt; do
    case "$opt" in
    b) base="$OPTARG" ;;
    p) pattern="$OPTARG" ;;
    n) benchtime="$OPTARG" ;;
    f) figure="$OPTARG" ;;
    *) echo "usage: $0 [-b base-rev] [-p pattern] [-n benchtime] [-f figure]" >&2; exit 2 ;;
    esac
done

run_bench() {
    (cd "$1" && go test -run XXX -bench "$pattern" -benchtime "$benchtime" ./... 2>/dev/null) |
        awk '$1 ~ /^Benchmark/ && $3 == "ns/op" { print $1, $2 } $1 ~ /^Benchmark/ && $4 == "ns/op" { print $1, $3 }'
}

# run_fig regenerates the figure's JSON in the given tree and flattens
# it with the CURRENT tree's benchjson (the base revision may predate
# it). A tree without the figure yields no lines, which the diff below
# renders as all-new fields.
run_fig() {
    json="$2/bench_fig.json"
    if (cd "$1" && go run ./cmd/tunebench -fig "$figure" -json "$json" >/dev/null 2>&1); then
        go run ./cmd/benchjson "$json"
    fi
}

worktree="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$worktree" >/dev/null 2>&1 || true
    rm -rf "$worktree"
}
trap cleanup EXIT INT TERM

git worktree add --quiet --detach "$worktree" "$base"

if [ -n "$figure" ]; then
    echo "benchcmp: base=$base figure=$figure"
    scratch="$(mktemp -d)"
    trap 'cleanup; rm -rf "$scratch"' EXIT INT TERM
    mkdir -p "$scratch/base" "$scratch/new"
    echo "== regenerating figure '$figure' at base ($base) =="
    before="$(run_fig "$worktree" "$scratch/base")"
    echo "== regenerating figure '$figure' in working tree =="
    after="$(run_fig . "$scratch/new")"
    printf '%s\n' "$before" > "$scratch/.before"
    printf '%s\n' "$after" | awk -v beforefile="$scratch/.before" '
BEGIN {
    while ((getline line < beforefile) > 0) {
        sp = index(line, " ")
        if (sp > 0) base[substr(line, 1, sp - 1)] = substr(line, sp + 1)
    }
    printf "%-55s %18s %18s %9s\n", "field", "base", "new", "delta"
}
{
    sp = index($0, " ")
    if (sp == 0) next
    name = substr($0, 1, sp - 1); new = substr($0, sp + 1)
    if (name in base) {
        old = base[name]
        delta = (old + 0 != 0 && old ~ /^-?[0-9.]/ && new ~ /^-?[0-9.]/) ? \
            sprintf("%+.1f%%", (new - old) / old * 100) : (old == new ? "=" : "!=")
        printf "%-55s %18s %18s %9s\n", name, substr(old, 1, 18), substr(new, 1, 18), delta
        delete base[name]
    } else {
        printf "%-55s %18s %18s %9s\n", name, "-", substr(new, 1, 18), "new"
    }
}
END {
    for (name in base)
        printf "%-55s %18s %18s %9s\n", name, substr(base[name], 1, 18), "-", "gone"
}'
    exit 0
fi

echo "benchcmp: base=$base bench='$pattern' benchtime=$benchtime"

echo "== running base ($base) =="
before="$(run_bench "$worktree")"

echo "== running working tree =="
after="$(run_bench .)"

printf '%s\n' "$before" > "$worktree/.bench_before"
printf '%s\n' "$after" | awk -v beforefile="$worktree/.bench_before" '
BEGIN {
    while ((getline line < beforefile) > 0) {
        split(line, f, " ")
        base[f[1]] = f[2]
    }
    printf "%-60s %14s %14s %9s\n", "benchmark", "base ns/op", "new ns/op", "speedup"
}
{
    name = $1; new = $2
    if (name in base) {
        old = base[name]
        printf "%-60s %14.0f %14.0f %8.2fx\n", name, old, new, (new > 0 ? old / new : 0)
        delete base[name]
    } else {
        printf "%-60s %14s %14.0f %9s\n", name, "-", new, "new"
    }
}
END {
    for (name in base)
        printf "%-60s %14.0f %14s %9s\n", name, base[name], "-", "gone"
}'
