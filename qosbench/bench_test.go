package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"probqos/internal/failure"
	"probqos/internal/service"
	"probqos/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 50, true},
		{99, 50, true}, // p90 would leave 9 beyond it
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n, reportedPercentiles)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g (%v), want p%g (%v)", c.n, got, ok, c.want, c.ok)
		}
		if ok && tailBeyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%g leaves %d beyond it", c.n, got, tailBeyond(c.n, got))
		}
	}
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	a, b := newStream(7, 300).bytes(), newStream(7, 300).bytes()
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if bytes.Equal(a, newStream(8, 300).bytes()) {
		t.Fatal("different seeds gave the same request stream")
	}
	if !bytes.HasPrefix(a, []byte("advance {\"to\":")) && !bytes.HasPrefix(a, []byte("quote {")) {
		t.Fatalf("stream starts %q", a[:40])
	}
	if n := bytes.Count(a, []byte("quote ")); n != 300 {
		t.Fatalf("stream has %d quotes, want 300", n)
	}
}

func TestSubSeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for k := range qosdStreams {
			s := subSeed(seed, k)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d repeats or is negative", seed, k, s)
			}
			seen[s] = true
		}
	}
}

// TestSetupsSpreadOverTheRun checks that every timed set-up happens, the
// first before any round and the rest as the measured time grows, however
// coarse the rounds.
func TestSetupsSpreadOverTheRun(t *testing.T) {
	for _, step := range []time.Duration{time.Second, 3 * time.Second, 25 * time.Second} {
		due := setupSchedule{total: 20 * time.Second}
		var at []time.Duration
		for spent := time.Duration(0); ; spent += step {
			for due.due(spent) {
				at = append(at, spent)
			}
			if spent >= due.total {
				break
			}
		}
		if len(at) != setupRepeats || at[0] != 0 {
			t.Fatalf("rounds of %v: set-ups at %v, want %d starting at 0", step, at, setupRepeats)
		}
		if step == time.Second && at[setupRepeats-1] < due.total/2 {
			t.Errorf("rounds of %v: set-ups at %v bunch up at the start", step, at)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	st, err := parseServerTiming("http.quote;dur=0.412, quote;dur=0.120, book.open;desc=x;dur=0.010, wal.append;dur=0.030, wal.append;dur=0.002, bare")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"http.quote": 0.412, "quote": 0.120, "book.open": 0.010, "wal.append": 0.032, "bare": 0}
	for name, ms := range want {
		if math.Abs(st.ms[name]-ms) > 1e-12 {
			t.Errorf("%s = %g ms, want %g", name, st.ms[name], ms)
		}
	}
	if got := strings.Join(st.names, ","); got != "http.quote,quote,book.open,wal.append,bare" {
		t.Errorf("names in order %s", got)
	}
	if self := st.selfMs("http.quote"); math.Abs(self-0.250) > 1e-12 {
		t.Errorf("self time %g ms, want 0.250 (0.412 - 0.120 - 0.010 - 0.032)", self)
	}
	for _, bad := range []string{"x;dur=abc", ";dur=1"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	st, err := parseServerTiming("http.accept;dur=0.100, admit;dur=0.060, wal.append;dur=0.041")
	if err != nil {
		t.Fatal(err)
	}
	if self := st.selfMs("http.accept"); self != 0 {
		t.Fatalf("rounded children exceeding the parent gave self %g ms, want 0", self)
	}
	if self := (serverTiming{}).selfMs("http.quote"); self != 0 {
		t.Fatalf("empty header gave self %g ms", self)
	}
}

// TestServerTimingFromTracedService parses a real qosd response: every span
// of a quote is a child of http.quote, so self time is what is left.
func TestServerTimingFromTracedService(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.DefaultConfig(tr)
	cfg.Tracer = trace.New(0)
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r, err := handlerDoer{svc.Handler()}.do("POST", "/v1/quote", []byte(`{"nodes":2,"exec_seconds":600}`))
	if err != nil || r.code != 200 {
		t.Fatalf("quote: %v %d %s", err, r.code, r.body)
	}
	var totals spanTotals
	if err := totals.add(epQuote, r.timing); err != nil {
		t.Fatal(err)
	}
	st, _ := parseServerTiming(r.timing)
	children := st.ms["quote"] + st.ms["book.open"]
	if totals.requests[epQuote] != 1 || totals.quote != st.ms["quote"] {
		t.Fatalf("totals %+v from %q", totals, r.timing)
	}
	if math.Abs(totals.self[epQuote]-max(st.ms["http.quote"]-children, 0)) > 1e-9 {
		t.Fatalf("self %g from %q", totals.self[epQuote], r.timing)
	}
}

func TestPickOfferIsTheEq3User(t *testing.T) {
	var q quoteReply
	if err := json.Unmarshal([]byte(`{"session_id":"q-1","quotes":[
		{"offer":1,"success":0.4},{"offer":2,"success":0.7},{"offer":3,"success":0.95}]}`), &q); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		u    float64
		want int
	}{{0.1, 1}, {0.5, 2}, {0.9, 3}, {0.99, 3}} {
		if got := pickOffer(q, c.u); got != c.want {
			t.Errorf("U=%g picked offer %d, want %d", c.u, got, c.want)
		}
	}
}

func TestMetricValue(t *testing.T) {
	text := "# HELP qosd_wal_records_total x\nqosd_wal_records_total 42\nqosd_wal_records_total_other 7\nqosd_snapshot_last_bytes 1.5e+06\n"
	if v := metricValue(text, "qosd_wal_records_total"); v != 42 {
		t.Errorf("records %g", v)
	}
	if v := metricValue(text, "qosd_snapshot_last_bytes"); v != 1.5e6 {
		t.Errorf("bytes %g", v)
	}
	if v := metricValue(text, "qosd_snapshots_total"); v != 0 {
		t.Errorf("absent metric %g", v)
	}
}

func TestCheckComparesWithFirstOrRecordedDigest(t *testing.T) {
	var r result
	r.check("pass", "k", "aa")
	r.check("pass", "k", "aa")
	if r.failed != 0 {
		t.Fatalf("equal digests failed: %v", r.mismatches)
	}
	r.check("pass", "k", "bb")
	r.expect("j", "cc")
	r.check("pass", "j", "dd")
	if r.failed != 2 || len(r.mismatches) != 2 {
		t.Fatalf("failed %d, mismatches %v", r.failed, r.mismatches)
	}
}

func TestWriteEndsWithTheResultObject(t *testing.T) {
	var r result
	r.attempted = 3
	r.endToEnd([]round{{lat: samples{3, 1, 2}, wall: 1e9}, {lat: samples{6, 2, 4}, wall: 2e9}, {lat: samples{9, 3, 6}, wall: 3e9}},
		[]setupTimes{{trace: 1e9}}, 4, &hostSpeed{kernelMs: samples{2 * refNominalMs, 1 * refNominalMs, 3 * refNominalMs}})
	var b bytes.Buffer
	if err := r.write(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
		t.Fatalf("last line has keys %v", out)
	}
	var m map[string]metric
	if err := json.Unmarshal(out["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"latency_p50_ms", "latency_p90_ms", "throughput_per_s", "setup_s", "alloc_kb_per_op"} {
		if m[name].Unit == "" {
			t.Errorf("%s missing", name)
		}
	}
	// Per-round p50s are 2, 4 and 6; throughputs 3, 1.5 and 1 per second.
	// The kernel ran at half reference speed, so timings halve and
	// throughput doubles.
	if m["latency_p50_ms"].Value != 2 || m["throughput_per_s"].Value != 3 || m["setup_s"].Value != 0.5 {
		t.Errorf("metrics %v", m)
	}
	if m["alloc_kb_per_op"].Value != 4 {
		t.Errorf("alloc_kb_per_op %v is not scaled", m["alloc_kb_per_op"])
	}
}

func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := refKernel(), refKernel()
	if a != b || a == 0 {
		t.Fatalf("reference kernel checksums %v and %v", a, b)
	}
	var h hostSpeed
	h.measure(2)
	h.measure(2)
	if len(h.kernelMs) != 4 {
		t.Fatalf("two measurements on two goroutines gave %d times", len(h.kernelMs))
	}
	for _, x := range h.kernelMs {
		if x <= 0 {
			t.Fatalf("kernel time %v", x)
		}
	}
	if got, want := h.scale(), refNominalMs/h.kernelMs.median(); got != want {
		t.Fatalf("scale %v, want %v", got, want)
	}
}

func TestLayersStartWithEveryMetric(t *testing.T) {
	var r result
	r.layers()
	if len(r.metrics) != len(layerUnits) {
		t.Fatalf("%d metrics, want %d", len(r.metrics), len(layerUnits))
	}
}

// TestReplayPathsAgree replays one short stream over loopback HTTP in
// memory and durable modes, and in-process: the final state must match.
func TestReplayPathsAgree(t *testing.T) {
	tr, _, err := genTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := window(tr, subSeed(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	in := qosdInput{st: newStream(subSeed(3, 0), 120), tr: w}
	var digests []string
	for _, c := range []struct {
		workload string
		kind     replayKind
	}{{"qosd-memory", plainHTTP}, {"qosd-durable", tracedHTTP}, {"qosd-memory", inProcess}} {
		out, err := replayInput(options{workload: c.workload, buildDir: t.TempDir()}, in, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed > 0 || out.accepted != 120 {
			t.Fatalf("%s %s: %d failed, %d accepted", c.workload, c.kind, out.failed, out.accepted)
		}
		digests = append(digests, out.digest)
	}
	if _, err := agree("replay", digests); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics a
// run prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var r result
	r.endToEnd([]round{{lat: samples{1}, wall: 1e9}}, nil, 1, &hostSpeed{kernelMs: samples{refNominalMs}})
	if len(b.EndToEnd) != len(r.metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, a run prints %d", len(b.EndToEnd), len(r.metrics))
	}
	for _, e := range b.EndToEnd {
		if r.metrics[e.Name].Unit != e.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, run prints %q", e.Name, e.Unit, r.metrics[e.Name].Unit)
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a run prints %d", len(b.PerLayer), len(layerUnits))
	}
	for _, e := range b.PerLayer {
		if layerUnits[e.Name] != e.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, run prints %q", e.Name, e.Unit, layerUnits[e.Name])
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}
