package probqos_test

import (
	"bytes"
	"strings"
	"testing"

	"probqos"
)

func TestPublicQuickstartFlow(t *testing.T) {
	log := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 300, Seed: 2})
	trace, err := probqos.GenerateFailureTrace(probqos.RawLogConfig{Seed: 2}, probqos.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := probqos.NewSimConfig(log, trace)
	cfg.Accuracy = 0.7
	cfg.UserRisk = 0.5
	res, err := probqos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := probqos.Metrics(res)
	if report.QoS <= 0 || report.QoS > 1 {
		t.Errorf("QoS = %v", report.QoS)
	}
	if report.Utilization <= 0 || report.Utilization > 1 {
		t.Errorf("utilization = %v", report.Utilization)
	}
	if len(res.Jobs) != 300 {
		t.Errorf("jobs = %d", len(res.Jobs))
	}
}

func TestPublicSystemNegotiation(t *testing.T) {
	// One detectable failure on every node at t=5000 makes the first quote
	// risky; the dialog must offer a later, better one.
	var events []probqos.FailureEvent
	for n := 0; n < 16; n++ {
		events = append(events, probqos.FailureEvent{Time: 5000, Node: n, Detectability: 0.4})
	}
	trace, err := probqos.NewFailureTrace(16, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probqos.NewSimConfig(nil, trace)
	cfg.Nodes, cfg.Accuracy = 16, 1.0
	sys, err := probqos.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quotes := sys.Quotes(16, 2*probqos.Hour, 4)
	if len(quotes) < 2 {
		t.Fatalf("quotes = %+v", quotes)
	}
	if quotes[0].Success >= quotes[len(quotes)-1].Success {
		t.Errorf("later quotes should promise more: %+v", quotes)
	}

	user, err := probqos.NewUser(0.9)
	if err != nil {
		t.Fatal(err)
	}
	accept := func(id int) probqos.Quote {
		t.Helper()
		for i, q := range sys.Quotes(16, 2*probqos.Hour, 8) {
			if user.Accepts(q.Success) {
				job := probqos.Job{ID: id, Nodes: 16, Exec: 2 * probqos.Hour}
				if err := sys.Admit(job, q, i+1); err != nil {
					t.Fatal(err)
				}
				return q
			}
		}
		t.Fatal("no acceptable quote")
		return probqos.Quote{}
	}
	q := accept(1)
	if q.Success < 0.9 || q.Candidate.Start == 0 {
		t.Errorf("accepted %+v, want a later, safer offer", q)
	}
	// The reservation is committed: an identical second job cannot get the
	// same slot.
	if q2 := accept(2); q2.Candidate.Start == q.Candidate.Start {
		t.Error("second job reserved the same slot")
	}
	pred, err := probqos.NewTracePredictor(trace, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if pf := pred.PFail([]int{0}, 0, 10000); pf != 0.4 {
		t.Errorf("PFail = %v, want 0.4", pf)
	}
}

func TestPublicPlannedDuration(t *testing.T) {
	trace, err := probqos.NewFailureTrace(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probqos.NewSimConfig(nil, trace)
	cfg.Nodes = 4
	sys, err := probqos.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2.5 intervals of work -> 2 checkpoint requests -> +2C.
	if got := sys.PlannedDuration(9000); got != 9000+2*720 {
		t.Errorf("PlannedDuration = %v", got)
	}
	if got := sys.PlannedDuration(0); got != 0 {
		t.Errorf("PlannedDuration(0) = %v", got)
	}
}

func TestPublicJournal(t *testing.T) {
	log := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 20, Seed: 3})
	trace, err := probqos.GenerateFailureTrace(probqos.RawLogConfig{Seed: 3}, probqos.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	journal := probqos.NewJournalWriter(&buf)
	cfg := probqos.NewSimConfig(log, trace)
	cfg.Probe = journal
	if _, err := probqos.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"arrival"`) {
		t.Error("journal missing arrival notes")
	}
}

func TestPublicSWFRoundTrip(t *testing.T) {
	orig := probqos.GenerateSDSCWorkload(probqos.WorkloadConfig{Jobs: 50, Seed: 4})
	var buf bytes.Buffer
	if err := orig.WriteSWF(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := probqos.ParseSWF("SDSC", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Jobs) != len(orig.Jobs) {
		t.Errorf("round trip: %d -> %d jobs", len(orig.Jobs), len(parsed.Jobs))
	}
}

func TestPublicRawLogFiltering(t *testing.T) {
	raw := probqos.GenerateRawRASLog(probqos.RawLogConfig{Episodes: 50, Seed: 5})
	trace, err := probqos.FilterRawLog(raw, 128, probqos.FilterConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 || trace.Len() > 50 {
		t.Errorf("filtered %d failures from 50 episodes", trace.Len())
	}
	pred, err := probqos.NewTracePredictor(trace, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e := trace.At(0)
	pf := pred.PFail([]int{e.Node}, e.Time, e.Time+1)
	if e.Detectability <= 0.5 && pf != e.Detectability {
		t.Errorf("PFail = %v, want %v", pf, e.Detectability)
	}
}

func TestPublicExtensions(t *testing.T) {
	// Stochastic failures + decaying predictor + profile + merge.
	trace, err := probqos.GenerateStochasticFailures(probqos.StochasticConfig{
		Kind: probqos.FailuresWeibull, Nodes: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Nodes() != 64 || trace.Len() == 0 {
		t.Fatalf("stochastic trace: nodes=%d len=%d", trace.Nodes(), trace.Len())
	}
	pred, err := probqos.NewDecayingPredictor(trace, 0.8, 6*probqos.Hour)
	if err != nil {
		t.Fatal(err)
	}
	e := trace.At(0)
	if pf := pred.PFail([]int{e.Node}, e.Time, e.Time+1); pf < 0 || pf > 0.8 {
		t.Errorf("decaying PFail = %v", pf)
	}

	a := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 50, Seed: 1})
	b := probqos.GenerateSDSCWorkload(probqos.WorkloadConfig{Jobs: 50, Seed: 1})
	merged := probqos.MergeWorkloads("mixed", a, b)
	if len(merged.Jobs) != 100 {
		t.Errorf("merged jobs = %d", len(merged.Jobs))
	}
	profile := probqos.ProfileWorkload(merged)
	if profile.Characteristics.Jobs != 100 || profile.RuntimeP90 <= 0 {
		t.Errorf("profile = %+v", profile)
	}

	// Size-class breakdown over a tiny run.
	jobs := &probqos.JobLog{Name: "x", Jobs: []probqos.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 50}}}
	empty, err := probqos.NewFailureTrace(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probqos.Run(probqos.NewSimConfig(jobs, empty))
	if err != nil {
		t.Fatal(err)
	}
	classes := probqos.MetricsBySize(res)
	found := false
	for _, c := range classes {
		if c.Jobs == 1 && c.QoS == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("breakdown did not place the job: %+v", classes)
	}
}

func TestPublicRoundTripsAndHelpers(t *testing.T) {
	// Raw RAS log round trip through the facade.
	raw := probqos.GenerateRawRASLog(probqos.RawLogConfig{Episodes: 20, Seed: 9})
	var buf bytes.Buffer
	if err := probqos.WriteRawRASLog(&buf, raw); err != nil {
		t.Fatal(err)
	}
	parsed, err := probqos.ParseRawRASLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(raw) {
		t.Errorf("raw round trip: %d -> %d", len(raw), len(parsed))
	}

	// Failure trace round trip.
	trace, err := probqos.FilterRawLog(raw, 128, probqos.FilterConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	reparsed, err := probqos.ParseFailureTrace(128, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Len() != trace.Len() {
		t.Errorf("trace round trip: %d -> %d", trace.Len(), reparsed.Len())
	}

	// Named generation and Table 2 constants.
	if _, err := probqos.GenerateWorkload("SDSC", probqos.WorkloadConfig{Jobs: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := probqos.GenerateWorkload("unknown", probqos.WorkloadConfig{}); err == nil {
		t.Error("unknown workload name accepted")
	}
	params := probqos.DefaultCheckpointParams()
	if params.Interval != 3600 || params.Overhead != 720 {
		t.Errorf("Table 2 params = %+v", params)
	}

	// The reliability diagram of a tiny run.
	jobs := &probqos.JobLog{Name: "x", Jobs: []probqos.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 50}}}
	empty, err := probqos.NewFailureTrace(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probqos.Run(probqos.NewSimConfig(jobs, empty))
	if err != nil {
		t.Fatal(err)
	}
	st := probqos.PromiseLedgerOf(res, 4).Stats()
	if _, short := st.Worst(); short != 0 || st.Settled != 1 {
		t.Errorf("failure-free run cannot be overconfident: %+v", st)
	}
}

func TestPublicHealthMonitor(t *testing.T) {
	raw := probqos.GenerateRawRASLog(probqos.RawLogConfig{Nodes: 16, Episodes: 30, Span: 20 * probqos.Day, Seed: 4})
	telemetry, err := probqos.GenerateTelemetry(probqos.TelemetryConfig{Nodes: 16, Span: 20 * probqos.Day, Seed: 4}, raw)
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := probqos.NewHealthMonitor(telemetry, raw, probqos.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := probqos.FilterRawLog(raw, 16, probqos.FilterConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	jobs := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 80, Seed: 4, ClusterNodes: 16})
	cfg := probqos.NewSimConfig(jobs, trace)
	cfg.Nodes = 16
	cfg.UserRisk = 0.5
	cfg.Predictor = monitor
	res, err := probqos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 80 {
		t.Errorf("completed %d jobs", len(res.Jobs))
	}
}
