package main

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// gate is one benchmark the harness output must hold, with the bound on
// allocs/op that every one of its sample lines must meet.
type gate struct {
	// name is the top-level benchmark name, without the -GOMAXPROCS
	// suffix.
	name string
	// maxAllocs bounds allocs/op; -1 only requires the benchmark to be
	// present.
	maxAllocs float64
	// exempt names a sub-benchmark the bound skips; it still counts as
	// present.
	exempt string
}

// gates are the benchmarks scripts/bench.sh must produce, and their
// allocation bounds.
var gates = []gate{
	// The single-node quote-path query, also with the tracing layer
	// compiled in and disabled (the nil-tracer path is free), the batched
	// scoring query node selection makes at every candidate start, and the
	// partition query behind PFail and the negotiator's locator.
	{"BenchmarkTracePFailSingleNode", 0, ""},
	{"BenchmarkTracePFailSingleNodeTracingDisabled", 0, ""},
	{"BenchmarkTraceAppendPFailNodes", 0, ""},
	{"BenchmarkTraceFirstDetectable", 0, ""},
	// Trace generation is the setup cost of every simulation.
	{"BenchmarkGenerateAndFilter", -1, ""},
	// A candidate's node set lives in scheduler scratch and Reserve keeps
	// the slice it is handed, so a quote-reserve-release cycle allocates
	// nothing.
	{"BenchmarkReserveRelease", 0, ""},
	// A slip moves the caller's reservation and its profile intervals,
	// through a reused scratch list.
	{"BenchmarkSlip", 0, ""},
	// The odd-node worst case of EarliestCandidate (see
	// internal/sched/bench_test.go).
	{"BenchmarkEarliestCandidateSlipped", -1, ""},
	// The engine's pushed-event heap holds plain values.
	{"BenchmarkEventQueue", 0, ""},
	// A whole 1000-job simulated point takes its working set (job table,
	// node slab, scheduler profile and scratch, event heap, cluster) from
	// the engine pool, so it allocates what its Result keeps (the Result,
	// its records and failures) plus the run's predictor, base-rate floor
	// and negotiator: 6 allocs/op, in long runs and in the 10-iteration
	// smoke run alike (the benchmark fills the pool before timing).
	{"BenchmarkRunSDSC", 7, ""},
	// BenchmarkRunSDSC with obs.Instrument attached as the Probe: the pair
	// records the observability overhead. The instrument counts journal
	// notes by kind without rendering them; what it allocates is its
	// series and metric registry: 275 allocs/op in a long run, 282 in the
	// 10-iteration smoke run, gated 10% above the latter.
	{"BenchmarkRunSDSCInstrumented", 310, ""},
	// The daemon's layers: a snapshot of a 2000-op state; one WAL record,
	// framed into a buffer the log keeps; one request's metric update,
	// whose instruments are resolved once; the strict decode of a
	// canonical request body by the fast path (the fallback case times
	// the reference decoder, which allocates); and a whole
	// advance/quote/accept promise into a durable data dir.
	{"BenchmarkCompact", -1, ""},
	{"BenchmarkWALAppend", 0, ""},
	{"BenchmarkObserveRequest", 0, ""},
	{"BenchmarkDecodeRequest", 0, "fallback"},
	// A promise allocates what the daemon keeps plus what net/http and the
	// benchmark's own requests allocate. After an untimed warm-up promise
	// that reads 67 allocs/op in a long run and 75 in the 10-iteration
	// smoke run.
	{"BenchmarkPromiseInProcess", 95, ""},
}

// procSuffix is the -GOMAXPROCS suffix go test appends to a benchmark
// name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// checkGates checks benchmark result lines against gates: it reports each
// gated benchmark with no line, and each line of a bounded one that
// reports no allocs/op or more than its bound. Other lines are ignored.
func checkGates(lines []string) error {
	byName := make(map[string]gate, len(gates))
	for _, g := range gates {
		byName[g.name] = g
	}
	seen := make(map[string]bool)
	var errs []error
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		top, sub, _ := strings.Cut(procSuffix.ReplaceAllString(fields[0], ""), "/")
		g, ok := byName[top]
		if !ok {
			continue
		}
		seen[top] = true
		if g.maxAllocs < 0 || (g.exempt != "" && sub == g.exempt) {
			continue
		}
		allocs, ok := allocsPerOp(fields)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s reports no allocs/op", fields[0]))
		case allocs > g.maxAllocs:
			errs = append(errs, fmt.Errorf("%s reports %v allocs/op, more than %v", fields[0], allocs, g.maxAllocs))
		}
	}
	for _, g := range gates {
		if !seen[g.name] {
			errs = append(errs, fmt.Errorf("%s missing from benchmark output", g.name))
		}
	}
	return errors.Join(errs...)
}

// allocsPerOp returns the allocs/op value of a benchmark result line.
func allocsPerOp(fields []string) (float64, bool) {
	for i := 1; i+1 < len(fields); i++ {
		if fields[i+1] == "allocs/op" {
			v, err := strconv.ParseFloat(fields[i], 64)
			return v, err == nil
		}
	}
	return 0, false
}
