// Command qosbench is probqos's end-to-end benchmark. It measures the two
// paths that make a promise "job j completes by d with probability p":
// the Figure-1 sweep through sim.Run, and qosd's quote -> accept round trip
// over loopback HTTP into a daemon with a data dir. Everything is measured
// from outside the program, through its public entry points and the hooks
// it already exposes (sim.Config.Probe, the Server-Timing header, /metrics).
//
// Usage:
//
//	qosbench --workload <fig1-sdsc|qosd-durable> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, their timings scaled to
// reference speed (see speed.go), with --trace 1 the per-layer split. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the command exits non-zero
// when any output disagrees with the recorded digest or across passes.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// buildDir holds everything a run writes: durable data dirs and the
	// disk probe.
	buildDir string
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (o options) durable() bool { return o.workload == "qosd-durable" }

// benchWorkload is one workload and the GOMAXPROCS it pins, so that a run
// does not depend on how many cores the machine has. A one-processor
// workload is also bound to one CPU.
type benchWorkload struct {
	bench func(options) (result, error)
	procs int
}

var workloads = map[string]benchWorkload{
	// One processor per Figure-1 worker.
	"fig1-sdsc": {benchFig1, fig1Workers},
	// One processor, and one CPU, for the loopback client, the HTTP server
	// and qosd's state-machine goroutine. With two processors every request
	// is handed across cores, and a promise took about 75% longer; left
	// free to move, the runtime's threads wake the other vCPU, which on a
	// shared VM made promises slower and their speed less steady.
	"qosd-durable": {benchQosd, 1},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qosbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs did not match")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qosbench", flag.ContinueOnError)
	var (
		o      options
		traced int
		record string
	)
	fs.StringVar(&o.workload, "workload", "", "fig1-sdsc or qosd-durable")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traced, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for data dirs and probes")
	fs.StringVar(&record, "record", "", "print digests for seeds `from:to` instead of benchmarking")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if record != "" {
		return recordDigests(record, o.buildDir, stdout)
	}
	wl, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	case traced != 0 && traced != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	case o.seconds <= 0:
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = traced == 1
	runtime.GOMAXPROCS(wl.procs)
	var pinned string
	if wl.procs == 1 {
		cpu, err := pinToOneCPU()
		if err != nil {
			pinned = fmt.Sprintf("not bound to one CPU: %v", err)
		} else {
			pinned = fmt.Sprintf("bound to CPU %d", cpu)
		}
	}
	res, err := wl.bench(o)
	if err != nil {
		return err
	}
	if pinned != "" {
		res.note("GOMAXPROCS=%d, %s", wl.procs, pinned)
	}
	if err := res.write(stdout); err != nil {
		return err
	}
	if len(res.mismatches) > 0 {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(res.mismatches, "; "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	mismatches        []string
	refs              map[string]string
	metrics           map[string]metric
	summary           []string
}

// expect sets the reference digest for an input key.
func (r *result) expect(key, digest string) {
	if r.refs == nil {
		r.refs = map[string]string{}
	}
	r.refs[key] = digest
}

// check compares an output digest with its input's reference: the digest
// recorded for the seed when there is one, otherwise the first digest this
// run produced for the same input.
func (r *result) check(what, key, got string) {
	want, ok := r.refs[key]
	if !ok {
		r.expect(key, got)
		return
	}
	if got != want {
		r.mismatch(fmt.Sprintf("%s (%s): digest %s, want %s", what, key, got, want))
	}
}

// noteRecorded says whether the seed's outputs are also checked against
// the digests recorded for it, or only across the run's own paths.
func (r *result) noteRecorded(seed int64, ok bool) {
	if ok {
		r.note("seed %d: outputs checked against its recorded digests and across paths", seed)
		return
	}
	r.note("seed %d: no recorded digests (digests.json covers seeds %s); outputs checked across paths only",
		seed, recorded.seeds())
}

// mismatch records one correctness failure: a failed operation.
func (r *result) mismatch(msg string) {
	r.mismatches = append(r.mismatches, msg)
	r.failed++
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// round is one measured pass (fig1) or replay (qosd): the latency of each
// of its operations in ms, and its wall time.
type round struct {
	lat  samples
	wall time.Duration
}

// endToEnd sets the five end-to-end metrics. Latency percentiles and
// throughput are computed per round and reported as their median over the
// rounds, so a round slowed by a neighbour on the machine moves no metric.
// Timings are reported at reference speed (see hostSpeed); the summary
// lines give them as measured. allocKB is the KiB allocated per operation
// over all rounds.
func (r *result) endToEnd(rounds []round, setups []setupTimes, allocKB float64, speed *hostSpeed) {
	var p50, p90, tput, walls samples
	minOps, top := 0, 0.0
	for i, rd := range rounds {
		sorted := rd.lat.sorted()
		p50 = append(p50, percentile(sorted, 50))
		p90 = append(p90, percentile(sorted, 90))
		tput = append(tput, float64(len(rd.lat))/rd.wall.Seconds())
		walls = append(walls, ms(rd.wall))
		if p, _ := highestPercentile(len(sorted), reportedPercentiles); i == 0 || len(sorted) < minOps {
			minOps, top = len(sorted), p
		}
	}
	setup := medianSetup(setups, setupTimes.total)
	k := speed.scale()
	r.set("latency_p50_ms", p50.median()*k, "ms")
	r.set("latency_p90_ms", p90.median()*k, "ms")
	r.set("throughput_per_s", tput.median()/k, "1/s")
	r.set("setup_s", setup*k, "s")
	r.set("alloc_kb_per_op", allocKB, "KiB")
	r.noteWalls("round", walls)
	r.note("%d rounds of >= %d operations; highest percentile with >= %d samples beyond it in every round: p%g",
		len(rounds), minOps, minTail, top)
	r.note("%d set-ups, median %.4f s", len(setups), setup)
	r.note("reference kernel: median %.3f ms over %d calls, so timings are scaled by %.4f to reference speed (%g ms)",
		speed.kernelMs.median(), len(speed.kernelMs), k, refNominalMs)
	r.note("as measured: latency_p50_ms %.4f, latency_p90_ms %.4f, throughput_per_s %.4f, setup_s %.4f",
		p50.median(), p90.median(), tput.median(), setup)
}

// noteWalls lists the wall time of every measured pass or replay.
func (r *result) noteWalls(what string, walls samples) {
	var b strings.Builder
	for _, w := range walls {
		fmt.Fprintf(&b, " %.0f", w)
	}
	r.note("%s walls (ms):%s", what, b.String())
}

func medianSetup(setups []setupTimes, part func(setupTimes) time.Duration) float64 {
	var s samples
	for _, st := range setups {
		s = append(s, part(st).Seconds())
	}
	if len(s) == 0 {
		return 0
	}
	return s.median()
}

// layerSet writes per-layer metrics; every name in layerUnits must be set
// by the time the result is written, zero where a layer is not on the
// workload's path.
type layerSet struct{ r *result }

func (r *result) layers() layerSet {
	for name, unit := range layerUnits {
		r.set(name, 0, unit)
	}
	return layerSet{r}
}

func (l layerSet) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("qosbench: unknown per-layer metric " + name)
	}
	l.r.set(name, v, unit)
}

func (l layerSet) setSetup(setups []setupTimes) {
	l.set("setup.trace_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.trace }))
	l.set("setup.workload_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.workload }))
	l.set("setup.service_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.service }))
}

// layerUnits lists every per-layer metric a traced run prints.
var layerUnits = map[string]string{
	"negotiate.quote_ms":             "ms",
	"negotiate.quote_us_per_arrival": "us",
	"negotiate.offers_per_arrival":   "count",
	"negotiate.book_us":              "us",
	"negotiate.accept_ok_ratio":      "ratio",
	"sim.dispatch_ms":                "ms",
	"sim.dispatch_self_ms":           "ms",
	"sim.events":                     "count",
	"sched.place_ms":                 "ms",
	"sched.backfills":                "count",
	"sched.start_slips":              "count",
	"checkpoint.decide_ms":           "ms",
	"checkpoint.requests":            "count",
	"checkpoint.grant_ratio":         "ratio",
	"failure.kills":                  "count",
	"service.quote_self_us":          "us",
	"service.accept_self_us":         "us",
	"service.advance_self_us":        "us",
	"service.first_tenth_p50_ms":     "ms",
	"service.last_tenth_p50_ms":      "ms",
	"service.handler_us":             "us",
	"net.overhead_us":                "us",
	"engine.quote_us":                "us",
	"engine.admit_us":                "us",
	"engine.advance_us":              "us",
	"durability.wal_append_us":       "us",
	"durability.records_per_promise": "count",
	"durability.syncs_per_promise":   "count",
	"durability.snapshots":           "count",
	"durability.snapshot_ms":         "ms",
	"durability.snapshot_kb":         "KiB",
	"durability.disk_append_us":      "us",
	"setup.trace_s":                  "s",
	"setup.workload_s":               "s",
	"setup.service_s":                "s",
	"mem.allocs_per_op":              "count",
	"trace.overhead_pct":             "%",
	"host.ref_kernel_ms":             "ms",
}

// write prints the human-readable summary, then the result object as the
// last line.
func (r *result) write(w io.Writer) error {
	for _, line := range r.summary {
		fmt.Fprintln(w, "#", line)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "# MISMATCH:", m)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.mismatches) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// overheadPct is how much slower the traced passes ran than the untraced
// ones, by their medians, in percent.
func overheadPct(traced, plain samples) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (traced.median()/plain.median() - 1)
}

// digest is a hex SHA-256 accumulator.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) sum() string { return hex.EncodeToString(d.Sum(nil)) }
