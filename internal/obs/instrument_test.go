package obs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

func mkState(t units.Time, events int) sim.State {
	return sim.State{Time: t, EventsProcessed: events, QueueDepth: 1, RunningJobs: 2, BusyNodes: 4}
}

func TestSamplerCadenceDownsamples(t *testing.T) {
	s := NewInstrument(NewRegistry(), 100*units.Second)
	for i := 0; i < 50; i++ {
		s.Sample(mkState(units.Time(i*10), i+1)) // 10 s apart: one point per 10 events
	}
	pts := s.SeriesTail(0)
	// t=0 starts the series; then t=100, 200, 300, 400.
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.Time != units.Time(i*100) {
			t.Errorf("point %d at t=%v, want %v", i, p.Time, i*100)
		}
	}
}

func TestSamplerFlushAppendsFinalState(t *testing.T) {
	s := NewInstrument(NewRegistry(), DefaultCadence)
	s.Sample(mkState(0, 1))
	s.Sample(mkState(42, 2)) // within cadence: not sampled
	s.Flush()
	pts := s.SeriesTail(0)
	if len(pts) != 2 || pts[1].Time != 42 {
		t.Fatalf("flush did not append final state: %+v", pts)
	}
	s.Flush() // idempotent: same final time
	if got := len(s.SeriesTail(0)); got != 2 {
		t.Errorf("second flush added a point: %d", got)
	}
}

func TestSamplerGaugesTrackLatestState(t *testing.T) {
	reg := NewRegistry()
	s := NewInstrument(reg, DefaultCadence)
	st := sim.State{
		Time: 900, EventsProcessed: 3, QueueDepth: 5, RunningJobs: 2, BusyNodes: 7,
		LostWork: units.WorkFor(4, 100), PromiseSum: 1.8, PromisedJobs: 2,
	}
	s.Sample(st)
	checks := map[string]float64{
		"probqos_sim_time_seconds":           900,
		"probqos_sim_queue_depth":            5,
		"probqos_sim_running_jobs":           2,
		"probqos_sim_nodes_busy":             7,
		"probqos_sim_lost_work_node_seconds": 400,
		"probqos_sim_mean_promise":           0.9,
	}
	for name, want := range checks {
		if got := reg.Gauge(name, "", nil).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Counter("probqos_sim_events_total", "", nil).Value(); got != 1 {
		t.Errorf("events_total = %v, want 1", got)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := NewInstrument(NewRegistry(), DefaultCadence)
	s.Sample(mkState(0, 1))
	var sb strings.Builder
	if err := s.WriteSeriesCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 point:\n%s", len(lines), sb.String())
	}
	if lines[0] != "time_s,queue_depth,running_jobs,nodes_busy,lost_work_node_s,mean_promise,events" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,2,4,0,0.000000,1" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteSeriesCSVPropagatesWriteError(t *testing.T) {
	s := NewInstrument(NewRegistry(), DefaultCadence)
	s.Sample(mkState(0, 1))
	wantErr := errors.New("disk full")
	if err := s.WriteSeriesCSV(errWriter{wantErr}); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped %v", err, wantErr)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestInstrumentAgainstSimulation drives a real run with failures and
// checkpoints and cross-checks the sampled metrics against the Result.
func TestInstrumentAgainstSimulation(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 4, Exec: 9000},
		{ID: 2, Arrival: 100, Nodes: 4, Exec: 5000},
		{ID: 3, Arrival: 7000, Nodes: 8, Exec: 2000},
	}
	events := []failure.Event{
		{Time: 2000, Node: 0, Detectability: 0.9},
		{Time: 4000, Node: 7, Detectability: 0.9},
	}
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(&workload.Log{Name: "test", Jobs: jobs}, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 0 // failures invisible: they land and kill
	cfg.Policy = checkpoint.Periodic{}

	reg := NewRegistry()
	ins := NewInstrument(reg, units.Minute)
	cfg.Probe = ins

	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins.Flush()

	counter := func(name string, labels Labels) float64 {
		return reg.Counter(name, "", labels).Value()
	}
	if got := counter("probqos_sim_events_total", nil); got != float64(res.EventsProcessed) {
		t.Errorf("events_total = %v, want %d", got, res.EventsProcessed)
	}
	// Grants are counted at request time, CheckpointsDone at completion: a
	// failure can kill a job mid-checkpoint, so grants may exceed completions
	// by at most the number of job-killing failures.
	m := metrics.Compute(res)
	performed, skipped := m.CheckpointsDone, m.CheckpointsSkipped
	granted := counter("probqos_sim_checkpoints_total", Labels{"decision": "granted"})
	if int(granted) < performed || int(granted) > performed+res.JobFailures() {
		t.Errorf("checkpoints granted = %v, want in [%d, %d]", granted, performed, performed+res.JobFailures())
	}
	if got := counter("probqos_sim_checkpoints_total", Labels{"decision": "skipped"}); got != float64(skipped) {
		t.Errorf("checkpoints skipped = %v, want %d", got, skipped)
	}
	kills := counter("probqos_sim_failures_total", Labels{"outcome": "job-killed"})
	idles := counter("probqos_sim_failures_total", Labels{"outcome": "idle-node"})
	if int(kills) != res.JobFailures() {
		t.Errorf("job-killed = %v, want %d", kills, res.JobFailures())
	}
	if int(kills+idles) != len(res.Failures) {
		t.Errorf("failures = %v, want %d", kills+idles, len(res.Failures))
	}
	if res.JobFailures() == 0 {
		t.Fatal("scenario produced no job-killing failure; instrumentation not exercised")
	}
	if got := counter("probqos_sim_decisions_total", Labels{"kind": "reserve"}); got != float64(len(jobs)) {
		t.Errorf("reserves = %v, want %d", got, len(jobs))
	}
	if got := counter("probqos_sim_decisions_total", Labels{"kind": "backfill"}); int(got) != res.JobFailures() {
		t.Errorf("backfills = %v, want %d", got, res.JobFailures())
	}
	if got := reg.Gauge("probqos_sim_lost_work_node_seconds", "", nil).Value(); got != res.TotalLostWork().NodeSeconds() {
		t.Errorf("lost work gauge = %v, want %v", got, res.TotalLostWork().NodeSeconds())
	}
	// The run drained: nothing queued, running, or busy.
	for _, name := range []string{"probqos_sim_queue_depth", "probqos_sim_running_jobs", "probqos_sim_nodes_busy"} {
		if got := reg.Gauge(name, "", nil).Value(); got != 0 {
			t.Errorf("%s = %v at end of run, want 0", name, got)
		}
	}
	// The journal was metered: every note kind that fired has a counter.
	if got := counter("probqos_sim_notes_total", Labels{"kind": "arrival"}); got != float64(len(jobs)) {
		t.Errorf("arrival notes = %v, want %d", got, len(jobs))
	}
	// The series covers the run and ends at the final event.
	pts := ins.SeriesTail(0)
	if len(pts) < 2 {
		t.Fatalf("series too short: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Fatalf("series time not monotone at %d: %+v", i, pts)
		}
	}
	if last := pts[len(pts)-1]; last.QueueDepth != 0 || last.RunningJobs != 0 {
		t.Errorf("final point not drained: %+v", last)
	}
	// Phase accounting saw every event.
	rep := ins.Report()
	if rep[0].Phase != "dispatch" || rep[0].Calls != uint64(res.EventsProcessed) {
		t.Errorf("dispatch stats = %+v, want %d calls", rep[0], res.EventsProcessed)
	}
}

func TestProfilerReport(t *testing.T) {
	reg := NewRegistry()
	p := NewInstrument(reg, 0)
	p.Phase(sim.PhaseDispatch, 10*time.Millisecond)
	p.Phase(sim.PhaseDispatch, 30*time.Millisecond)
	p.Phase(sim.PhaseSchedule, 8*time.Millisecond)
	p.Phase(sim.PhaseNegotiate, 2*time.Millisecond)

	rep := p.Report()
	if len(rep) != len(sim.AllPhases()) {
		t.Fatalf("report rows = %d, want %d", len(rep), len(sim.AllPhases()))
	}
	if rep[0].Phase != "dispatch" {
		t.Fatalf("first row = %q, want dispatch", rep[0].Phase)
	}
	d := rep[0]
	if d.Calls != 2 || d.TotalSeconds != 0.04 || d.MeanSeconds != 0.02 || d.MaxSeconds != 0.03 {
		t.Errorf("dispatch stats = %+v", d)
	}
	if d.DispatchShare != 1 {
		t.Errorf("dispatch share = %v, want 1", d.DispatchShare)
	}
	// Nested phases sort by descending total: schedule, negotiate, checkpoint.
	if rep[1].Phase != "schedule" || rep[2].Phase != "negotiate" || rep[3].Phase != "checkpoint" {
		t.Errorf("nested order: %s, %s, %s", rep[1].Phase, rep[2].Phase, rep[3].Phase)
	}
	if got := rep[1].DispatchShare; got != 0.2 {
		t.Errorf("schedule share = %v, want 0.2", got)
	}
	if rep[3].Calls != 0 || rep[3].MeanSeconds != 0 {
		t.Errorf("unused phase not zero: %+v", rep[3])
	}

	// The registry carries the same accounting.
	if got := reg.Counter("probqos_sim_phase_calls_total", "", Labels{"phase": "dispatch"}).Value(); got != 2 {
		t.Errorf("calls counter = %v, want 2", got)
	}
	if got := reg.Counter("probqos_sim_phase_seconds_total", "", Labels{"phase": "schedule"}).Value(); got != 0.008 {
		t.Errorf("seconds counter = %v, want 0.008", got)
	}
	if got := reg.Histogram("probqos_sim_phase_duration_seconds", "", phaseDurationBounds, Labels{"phase": "negotiate"}).Count(); got != 1 {
		t.Errorf("duration histogram count = %d, want 1", got)
	}
}

func TestProfilerIgnoresUnknownPhase(t *testing.T) {
	p := NewInstrument(NewRegistry(), 0)
	p.Phase(sim.Phase(99), time.Second) // must not panic
	if got := p.Report()[0].Calls; got != 0 {
		t.Errorf("unknown phase leaked into dispatch: %d calls", got)
	}
}

func TestWriteReport(t *testing.T) {
	p := NewInstrument(NewRegistry(), 0)
	p.Phase(sim.PhaseDispatch, 5*time.Millisecond)
	p.Phase(sim.PhaseCheckpoint, time.Millisecond)
	var sb strings.Builder
	if err := p.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"phase", "calls", "% disp", "dispatch", "checkpoint", "5ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 1+len(sim.AllPhases()) {
		t.Errorf("report lines = %d:\n%s", lines, got)
	}
}
