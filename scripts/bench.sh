#!/bin/sh
# Quote-path performance harness: runs the predictor, trace-scan, scheduler,
# simulator and qosd daemon micro-benchmarks plus a reduced-scale end-to-end sweep
# (Figure 1 at PROBQOS_BENCH_JOBS jobs), then folds the results into the
# BENCH_sweep.json trajectory at the repo root via scripts/benchjson, which
# first fails the run if a gated benchmark is missing or allocates past its
# bound (the table is scripts/benchjson/gates.go).
#
#   scripts/bench.sh                 # full run, appended as label "after"
#   scripts/bench.sh -label mybox    # name the run
#   scripts/bench.sh -smoke          # CI mode: fixed iteration counts,
#                                    # 200-job sweep, no trajectory update
#
# Compare two recorded runs with benchstat:
#   jq -r '.runs[] | select(.label=="baseline").benchfmt[]' BENCH_sweep.json > old.txt
#   jq -r '.runs[] | select(.label=="after").benchfmt[]'    BENCH_sweep.json > new.txt
#   benchstat old.txt new.txt
set -eu

cd "$(dirname "$0")/.."

smoke=0
label="after"
out="BENCH_sweep.json"
usage() {
    echo "usage: scripts/bench.sh [-smoke] [-label name] [-out file]" >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
    -smoke) smoke=1 ;;
    # Guard $# before shifting into the value: under set -u a trailing
    # "-label" would otherwise die on the unbound $2 instead of printing
    # the usage line.
    -label) [ $# -ge 2 ] || usage; label="$2"; shift ;;
    -out) [ $# -ge 2 ] || usage; out="$2"; shift ;;
    *) usage ;;
    esac
    shift
done

if [ "$smoke" -eq 1 ]; then
    # Smoke mode exists to prove the harness itself works (benchmarks build,
    # run, and parse) on every push, not to produce stable numbers on shared
    # CI hardware.
    benchtime="10x"
    count=1
    jobs=200
else
    benchtime="1s"
    count=3
    jobs=1000
fi

tmp=$(mktemp)
trap 'rm -f "$tmp" "$tmp.json" "$tmp.rc"' EXIT

# gotest runs go test with the given arguments, shows its output and
# appends it to $tmp. A pipeline's status is its last command's (tee's), so
# go test's own status goes through $tmp.rc: a failing benchmark fails the
# script.
gotest() {
    { rc=0; go test "$@" || rc=$?; echo "$rc" >"$tmp.rc"; } | tee -a "$tmp"
    rc=$(cat "$tmp.rc")
    if [ "$rc" -ne 0 ]; then
        echo "bench.sh: go test $* failed (exit $rc)" >&2
        exit "$rc"
    fi
}

echo "== predictor micro-benchmarks"
gotest -run '^$' -bench 'PFail|FirstDetectable' -benchtime "$benchtime" -count "$count" ./internal/predict

echo "== trace-scan and trace-generation micro-benchmarks"
gotest -run '^$' -bench 'TraceScan|GenerateAndFilter' -benchtime "$benchtime" -count "$count" ./internal/failure

echo "== scheduler micro-benchmarks"
gotest -run '^$' -bench 'EarliestCandidate|ReserveRelease|Slip$' -benchtime "$benchtime" -count "$count" ./internal/sched

echo "== simulator benchmarks"
gotest -run '^$' -bench 'BenchmarkRun(SDSC|NASA|SDSCInstrumented)$|BenchmarkEventQueue$' -benchtime "$benchtime" -count "$count" ./internal/sim

echo "== daemon micro-benchmarks"
gotest -run '^$' -bench 'BenchmarkCompact$|BenchmarkWALAppend$' -benchtime "$benchtime" -count "$count" ./internal/durability
gotest -run '^$' -bench 'BenchmarkObserveRequest$|BenchmarkDecodeRequest$|BenchmarkPromiseInProcess$' -benchtime "$benchtime" -count "$count" ./internal/service

echo "== end-to-end sweep (Figure 1, jobs=$jobs)"
PROBQOS_BENCH_JOBS="$jobs" gotest -run '^$' -bench 'BenchmarkFig1QoSvsAccuracySDSC' \
    -benchtime 1x -count "$count" .

if [ "$smoke" -eq 1 ]; then
    # Still exercise the parser and the gates, but throw the trajectory
    # away: CI numbers are noise and must not churn the checked-in file.
    go run ./scripts/benchjson -label smoke -jobs "$jobs" -out "$tmp.json" <"$tmp"
    echo "smoke OK (trajectory not updated)"
else
    go run ./scripts/benchjson -label "$label" -jobs "$jobs" \
        -date "$(date -u +%Y-%m-%d)" -out "$out" <"$tmp"
fi
