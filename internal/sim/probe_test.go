package sim

import (
	"testing"
	"time"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/workload"
)

// stubProbe records everything the simulator reports and checks state
// invariants as samples stream in.
type stubProbe struct {
	t         *testing.T
	nodes     int
	states    []State
	decisions map[DecisionKind]int
	phases    map[Phase]int
}

func newStubProbe(t *testing.T, nodes int) *stubProbe {
	return &stubProbe{
		t: t, nodes: nodes,
		decisions: make(map[DecisionKind]int),
		phases:    make(map[Phase]int),
	}
}

func (p *stubProbe) Decision(d Decision) { p.decisions[d.Kind] += d.N }

func (p *stubProbe) Phase(ph Phase, _ time.Duration) { p.phases[ph]++ }

func (p *stubProbe) Sample(st State) {
	if st.BusyNodes < 0 || st.BusyNodes > p.nodes {
		p.t.Errorf("busy nodes %d outside [0, %d] at t=%v", st.BusyNodes, p.nodes, st.Time)
	}
	if st.QueueDepth < 0 || st.RunningJobs < 0 {
		p.t.Errorf("negative queue/running at t=%v: %+v", st.Time, st)
	}
	if len(p.states) > 0 {
		prev := p.states[len(p.states)-1]
		if st.Time < prev.Time || st.EventsProcessed != prev.EventsProcessed+1 {
			p.t.Errorf("sample stream broken: %+v -> %+v", prev, st)
		}
		if st.LostWork < prev.LostWork {
			p.t.Errorf("lost work decreased: %v -> %v", prev.LostWork, st.LostWork)
		}
	}
	p.states = append(p.states, st)
}

func TestProbeSeesConsistentRun(t *testing.T) {
	events := []failure.Event{
		{Time: 5000, Node: 0, Detectability: 0.9},
		{Time: 6000, Node: 7, Detectability: 0.5},
	}
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 4, Exec: 9000},
		{ID: 2, Arrival: 50, Nodes: 2, Exec: 5000},
	}
	cfg := smallConfig(t, jobs, events)
	cfg.Accuracy = 0
	cfg.Policy = checkpoint.Periodic{}
	probe := newStubProbe(t, cfg.Nodes)
	cfg.Probe = probe
	res := run(t, cfg)

	if len(probe.states) != res.EventsProcessed {
		t.Fatalf("samples = %d, want one per event (%d)", len(probe.states), res.EventsProcessed)
	}
	final := probe.states[len(probe.states)-1]
	if final.QueueDepth != 0 || final.RunningJobs != 0 || final.BusyNodes != 0 {
		t.Errorf("run did not drain: %+v", final)
	}
	if final.LostWork != res.TotalLostWork() {
		t.Errorf("lost work = %v, want %v", final.LostWork, res.TotalLostWork())
	}
	if final.PromisedJobs != len(jobs) {
		t.Errorf("promised jobs = %d, want %d", final.PromisedJobs, len(jobs))
	}

	if got := probe.decisions[DecisionReserve]; got != len(jobs) {
		t.Errorf("reserves = %d, want %d", got, len(jobs))
	}
	if got := probe.decisions[DecisionBackfill]; got != res.JobFailures() {
		t.Errorf("backfills = %d, want %d", got, res.JobFailures())
	}
	kills := probe.decisions[DecisionFailureKill]
	idles := probe.decisions[DecisionFailureIdle]
	if kills != res.JobFailures() || kills+idles != len(res.Failures) {
		t.Errorf("failure decisions = %d kill + %d idle, want %d/%d",
			kills, idles, res.JobFailures(), len(res.Failures))
	}
	totalQuotes := 0
	for _, j := range res.Jobs {
		totalQuotes += j.Quotes
	}
	if got := probe.decisions[DecisionQuote]; got != totalQuotes {
		t.Errorf("quote offers = %d, want %d", got, totalQuotes)
	}

	if got := probe.phases[PhaseDispatch]; got != res.EventsProcessed {
		t.Errorf("dispatch phases = %d, want %d", got, res.EventsProcessed)
	}
	if probe.phases[PhaseNegotiate] != len(jobs) {
		t.Errorf("negotiate phases = %d, want %d", probe.phases[PhaseNegotiate], len(jobs))
	}
	// Schedule is timed at arrival and again on every requeue.
	if want := len(jobs) + res.JobFailures(); probe.phases[PhaseSchedule] != want {
		t.Errorf("schedule phases = %d, want %d", probe.phases[PhaseSchedule], want)
	}
}

// nopProbe is attached only to measure what attaching a probe costs.
type nopProbe struct{}

func (nopProbe) Decision(Decision)          {}
func (nopProbe) Sample(State)               {}
func (nopProbe) Phase(Phase, time.Duration) {}

// TestProbeAddsNoAllocations guards "zero cost when off" from the engine's
// side: every fact reaches a probe as a plain Decision value, so attaching
// one that does nothing allocates nothing beyond the bare run. Run keeps
// nothing between calls (the event queue is per engine and holds plain
// values), so every run pays the same allocations, with the race detector
// on or off.
func TestProbeAddsNoAllocations(t *testing.T) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 60, Seed: 3, ClusterNodes: 16})
	tr, err := failure.GenerateTrace(failure.RawConfig{Nodes: 16, Seed: 3}, failure.FilterConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One engine serves every run, as Run's pool does, but without the
	// pool: under the race detector the pool drops engines at random, and
	// a dropped one reallocates its working set.
	allocs := func(p Probe) float64 {
		e := new(Engine)
		return testing.AllocsPerRun(5, func() {
			cfg := DefaultConfig(log, tr)
			cfg.Nodes = 16
			cfg.Accuracy, cfg.UserRisk = 0.3, 0.5
			cfg.Probe = p
			if _, err := e.run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, probed := allocs(nil), allocs(nopProbe{})
	if bare == 0 {
		t.Fatal("a run allocated nothing; the comparison proves nothing")
	}
	if probed != bare {
		t.Errorf("allocations per run: %v with a no-op probe, %v without", probed, bare)
	}
}
