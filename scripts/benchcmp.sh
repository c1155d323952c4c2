#!/usr/bin/env sh
# benchcmp.sh — compare benchmark results between a base revision and the
# working tree.
#
# Checks the base revision out into a temporary git worktree, runs the
# selected benchmarks there and in the current tree, and prints a
# per-benchmark ns/op table with the speedup. No dependencies beyond git,
# go, and awk.
#
# Usage: scripts/benchcmp.sh [-b base-rev] [-p pattern] [-n benchtime]
#   -b  base revision to compare against (default HEAD)
#   -p  benchmark regexp passed to -bench  (default BenchmarkTuneEvaluationEngine)
#   -n  -benchtime value                   (default 3x)
set -eu

cd "$(dirname "$0")/.."

base="HEAD"
pattern='BenchmarkTuneEvaluationEngine'
benchtime="3x"
while getopts b:p:n: opt; do
    case "$opt" in
    b) base="$OPTARG" ;;
    p) pattern="$OPTARG" ;;
    n) benchtime="$OPTARG" ;;
    *) echo "usage: $0 [-b base-rev] [-p pattern] [-n benchtime]" >&2; exit 2 ;;
    esac
done

run_bench() {
    (cd "$1" && go test -run XXX -bench "$pattern" -benchtime "$benchtime" ./... 2>/dev/null) |
        awk '$1 ~ /^Benchmark/ && $3 == "ns/op" { print $1, $2 } $1 ~ /^Benchmark/ && $4 == "ns/op" { print $1, $3 }'
}

worktree="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$worktree" >/dev/null 2>&1 || true
    rm -rf "$worktree"
}
trap cleanup EXIT INT TERM

git worktree add --quiet --detach "$worktree" "$base"

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
