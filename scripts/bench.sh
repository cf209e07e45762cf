#!/bin/sh
# Quote-path performance harness: runs the predictor, trace-scan, scheduler,
# simulator and qosd daemon micro-benchmarks plus a reduced-scale end-to-end sweep
# (Figure 1 at PROBQOS_BENCH_JOBS jobs), then folds the results into the
# BENCH_sweep.json trajectory at the repo root via scripts/benchjson.
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
trap 'rm -f "$tmp" "$tmp.json"' EXIT

echo "== predictor micro-benchmarks"
go test -run '^$' -bench 'PFail|FirstDetectable' -benchtime "$benchtime" -count "$count" ./internal/predict | tee -a "$tmp"

# Allocation gate: the single-node quote-path query must stay at
# 0 allocs/op — including the variant that compiles the tracing layer into
# the binary and leaves it disabled, proving the nil-tracer path is free —
# and so must the batched scoring query node selection makes at every
# candidate start and the partition query behind PFail and the
# negotiator's locator.
for b in BenchmarkTracePFailSingleNode BenchmarkTracePFailSingleNodeTracingDisabled BenchmarkTraceAppendPFailNodes BenchmarkTraceFirstDetectable; do
    if ! grep -q "^$b" "$tmp"; then
        echo "FAIL: $b missing from benchmark output" >&2
        exit 1
    fi
    if grep "^$b" "$tmp" | grep -v ' 0 allocs/op' | grep -q .; then
        echo "FAIL: $b no longer reports 0 allocs/op" >&2
        exit 1
    fi
done

echo "== trace-scan and trace-generation micro-benchmarks"
go test -run '^$' -bench 'TraceScan|GenerateAndFilter' -benchtime "$benchtime" -count "$count" ./internal/failure | tee -a "$tmp"

# Trace generation is the setup cost of every simulation: it must stay in
# the trajectory.
if ! grep -q "^BenchmarkGenerateAndFilter" "$tmp"; then
    echo "FAIL: BenchmarkGenerateAndFilter missing from benchmark output" >&2
    exit 1
fi

echo "== scheduler micro-benchmarks"
go test -run '^$' -bench 'EarliestCandidate|ReserveRelease|Slip$' -benchtime "$benchtime" -count "$count" ./internal/sched | tee -a "$tmp"

# Allocation gate: a reservation is stored by value and keeps its
# candidate's node slice, so a quote-reserve-release cycle allocates only
# that slice (1 allocs/op). A second allocation per reservation fails here.
if ! grep -q "^BenchmarkReserveRelease" "$tmp"; then
    echo "FAIL: BenchmarkReserveRelease missing from benchmark output" >&2
    exit 1
fi
if grep "^BenchmarkReserveRelease" "$tmp" | awk '{for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i > 1) bad = 1} END {exit !bad}'; then
    echo "FAIL: BenchmarkReserveRelease reports more than 1 allocs/op" >&2
    exit 1
fi
# Allocation gate: a slip moves the reservation's intervals through a
# reused scratch list, so it must stay at 0 allocs/op.
if ! grep -q "^BenchmarkSlip" "$tmp"; then
    echo "FAIL: BenchmarkSlip missing from benchmark output" >&2
    exit 1
fi
if grep "^BenchmarkSlip" "$tmp" | grep -v ' 0 allocs/op' | grep -q .; then
    echo "FAIL: BenchmarkSlip no longer reports 0 allocs/op" >&2
    exit 1
fi

# The slipped-backlog query is the odd-node worst case of EarliestCandidate
# (see internal/sched/bench_test.go): it must stay in the trajectory.
if ! grep -q "^BenchmarkEarliestCandidateSlipped" "$tmp"; then
    echo "FAIL: BenchmarkEarliestCandidateSlipped missing from benchmark output" >&2
    exit 1
fi

echo "== simulator benchmarks"
go test -run '^$' -bench 'BenchmarkRun(SDSC|NASA|SDSCInstrumented)$|BenchmarkEventQueue$' -benchtime "$benchtime" -count "$count" ./internal/sim | tee -a "$tmp"

# Allocation gate: the engine's pushed-event heap holds plain values, so a
# steady-state push/pop must stay at 0 allocs/op.
if ! grep -q "^BenchmarkEventQueue" "$tmp"; then
    echo "FAIL: BenchmarkEventQueue missing from benchmark output" >&2
    exit 1
fi
if grep "^BenchmarkEventQueue" "$tmp" | grep -v ' 0 allocs/op' | grep -q .; then
    echo "FAIL: BenchmarkEventQueue no longer reports 0 allocs/op" >&2
    exit 1
fi

# The instrumented run is BenchmarkRunSDSC with obs.Instrument attached as
# the Probe: the pair records the observability overhead.
if ! grep -q "^BenchmarkRunSDSCInstrumented" "$tmp"; then
    echo "FAIL: BenchmarkRunSDSCInstrumented missing from benchmark output" >&2
    exit 1
fi

echo "== daemon micro-benchmarks"
go test -run '^$' -bench 'BenchmarkCompact$|BenchmarkWALAppend$' -benchtime "$benchtime" -count "$count" ./internal/durability | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkObserveRequest$|BenchmarkDecodeRequest$|BenchmarkPromiseInProcess$' -benchtime "$benchtime" -count "$count" ./internal/service | tee -a "$tmp"

# The daemon's layers: a snapshot of a 2000-op state, one WAL record, one
# request's metric update, the strict decode of a request body, and a whole
# advance/quote/accept promise into a durable data dir.
for b in BenchmarkCompact BenchmarkWALAppend BenchmarkObserveRequest BenchmarkDecodeRequest BenchmarkPromiseInProcess; do
    if ! grep -q "^$b" "$tmp"; then
        echo "FAIL: $b missing from benchmark output" >&2
        exit 1
    fi
done
# Allocation gate: a request's instruments are resolved once, so recording
# a finished request must stay at 0 allocs/op.
if grep "^BenchmarkObserveRequest" "$tmp" | grep -v ' 0 allocs/op' | grep -q .; then
    echo "FAIL: BenchmarkObserveRequest no longer reports 0 allocs/op" >&2
    exit 1
fi
# Allocation gate: a WAL record is framed into a buffer the log keeps, so
# an append must stay at 0 allocs/op.
if grep "^BenchmarkWALAppend" "$tmp" | grep -v ' 0 allocs/op' | grep -q .; then
    echo "FAIL: BenchmarkWALAppend no longer reports 0 allocs/op" >&2
    exit 1
fi
# Allocation gate: a canonical request body is decoded by the fast path,
# which must stay at 0 allocs/op. The fallback case times the reference
# decoder, which allocates, and is reported but not gated.
if grep "^BenchmarkDecodeRequest" "$tmp" | grep -v '^BenchmarkDecodeRequest/fallback' | grep -v ' 0 allocs/op' | grep -q .; then
    echo "FAIL: BenchmarkDecodeRequest no longer reports 0 allocs/op" >&2
    exit 1
fi
# Allocation gate: a promise allocates what the daemon keeps plus what
# net/http and the benchmark's own requests allocate. After an untimed
# warm-up promise that reads 69 allocs/op in a long run and 77 in the
# 10-iteration smoke run (120 before requests were decoded, hopped onto
# the state machine and encoded without per-request scratch).
if grep "^BenchmarkPromiseInProcess" "$tmp" | awk '{for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i > 95) bad = 1} END {exit !bad}'; then
    echo "FAIL: BenchmarkPromiseInProcess reports more than 95 allocs/op" >&2
    exit 1
fi

echo "== end-to-end sweep (Figure 1, jobs=$jobs)"
PROBQOS_BENCH_JOBS="$jobs" go test -run '^$' -bench 'BenchmarkFig1QoSvsAccuracySDSC' \
    -benchtime 1x -count "$count" . | tee -a "$tmp"

if [ "$smoke" -eq 1 ]; then
    # Still exercise the parser, but throw the trajectory away: CI numbers
    # are noise and must not churn the checked-in file.
    go run ./scripts/benchjson -label smoke -jobs "$jobs" -out "$tmp.json" <"$tmp"
    echo "smoke OK (trajectory not updated)"
else
    go run ./scripts/benchjson -label "$label" -jobs "$jobs" \
        -date "$(date -u +%Y-%m-%d)" -out "$out" <"$tmp"
fi
