package scenario

import (
	"fmt"
	"slices"

	"probqos/internal/checkpoint"
	"probqos/internal/journal"
	"probqos/internal/negotiate"
	"probqos/internal/sim"
	"probqos/internal/stats"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// maxQuoteOffers bounds the §3.5 dialog per submission: the runner walks at
// most this many successive offers looking for one whose promise clears the
// user's risk threshold before giving up (a rejected submission).
const maxQuoteOffers = 64

// Runner executes one scenario step by step, applying the ops each step
// implies to a journal.Machine as qosd does. A step is one timeline event;
// a final implicit step drains the engine and settles the last promises.
// The runner is a pure function of the scenario, so its state after k
// steps is the scenario plus k: Resume re-runs those steps.
type Runner struct {
	scn *Scenario
	m   *journal.Machine

	step      int // next timeline step; len(scn.Events)+1 total (final drain)
	submitted int
	rejected  int
	injected  int

	// applied, when set, sees each op before it is applied; tests record
	// the ops through it.
	applied func(journal.Op)
}

// NewRunner validates the scenario, generates its background failure trace,
// and assembles the engine.
func NewRunner(s *Scenario) (*Runner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	bg, err := backgroundTrace(s)
	if err != nil {
		return nil, err
	}
	policy, err := checkpoint.ParsePolicy(s.Fleet.Policy)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(nil, bg)
	cfg.Nodes = s.Fleet.Nodes
	cfg.Accuracy = s.Fleet.Accuracy
	cfg.UserRisk = s.Fleet.UserRisk
	cfg.Checkpoint = s.Fleet.Checkpoint
	cfg.Downtime = s.Fleet.Downtime
	cfg.Policy = policy
	cfg.FaultAware = s.Fleet.FaultAware
	cfg.DeadlineSkip = s.Fleet.DeadlineSkip
	cfg.BaseRateFloor = s.Fleet.BaseRateFloor
	m, err := journal.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return &Runner{scn: s, m: m}, nil
}

// Done reports whether every step (including the final drain) has run.
func (r *Runner) Done() bool { return r.step > len(r.scn.Events) }

// apply applies one op to the machine.
func (r *Runner) apply(op journal.Op) error {
	if r.applied != nil {
		r.applied(op)
	}
	return r.m.Apply(op, nil)
}

// Step applies the next timeline event (or, past the last event, the final
// drain-and-settle). It returns an error only for engine-level failures; a
// scenario that admits nothing is a valid — if dull — run.
func (r *Runner) Step() error {
	if r.Done() {
		return fmt.Errorf("scenario %s: already finished", r.scn.Name)
	}
	i := r.step
	r.step++
	if i == len(r.scn.Events) {
		if err := r.m.Drain(); err != nil {
			return fmt.Errorf("scenario %s: drain: %w", r.scn.Name, err)
		}
		return nil
	}
	ev := r.scn.Events[i]
	// Events are ordered, but an earlier burst's spread may already have
	// carried the clock past this event's instant; never rewind.
	at := ev.At.Max(r.m.Engine().Now())
	if err := r.apply(journal.Op{Kind: journal.Advance, To: at}); err != nil {
		return fmt.Errorf("scenario %s: events[%d]: %w", r.scn.Name, i, err)
	}
	switch ev.Action {
	case ActionArrivalBurst:
		return r.burst(i, ev)
	case ActionInjectFail:
		for k, node := range ev.Inject.Nodes {
			if err := r.fault(i, node, at.Add(ev.Inject.Stagger*units.Duration(k))); err != nil {
				return err
			}
		}
	case ActionMaintenance:
		// The cluster keeps the longest outage per node, so re-failing the
		// node every downtime keeps it contiguously dark for the window.
		m := ev.Maintenance
		for _, node := range m.Nodes {
			for off := units.Duration(0); off < m.Duration; off += r.scn.Fleet.Downtime {
				if err := r.fault(i, node, at.Add(off)); err != nil {
					return err
				}
			}
		}
	case ActionMTBFShift:
		// Already folded into the background trace at generation time;
		// nothing to do at runtime.
	case ActionDrain:
		if err := r.m.Drain(); err != nil {
			return fmt.Errorf("scenario %s: events[%d]: drain: %w", r.scn.Name, i, err)
		}
	}
	return nil
}

// fault injects, for event i, one failure of node at instant at.
func (r *Runner) fault(i, node int, at units.Time) error {
	if err := r.apply(journal.Op{Kind: journal.Fault, Node: node, At: at}); err != nil {
		return fmt.Errorf("scenario %s: events[%d]: %w", r.scn.Name, i, err)
	}
	r.injected++
	return nil
}

// burst runs one arrival_burst: Jobs submissions spread evenly over the
// spread window, each quoting and admitting the first offer whose promised
// success clears the user risk. Job shapes come from a per-event stream
// derived statelessly from (seed, event index), so a burst's jobs depend
// only on the scenario, not on what earlier bursts drew.
func (r *Runner) burst(i int, ev Event) error {
	b := ev.Burst
	rng := stats.NewSource(r.scn.Seed).Split(fmt.Sprintf("event-%d", i))
	u := b.UserRisk
	if u < 0 {
		u = r.scn.Fleet.UserRisk
	}
	user := negotiate.User{U: u}
	eng := r.m.Engine()
	for k := 0; k < b.Jobs; k++ {
		nodes := b.MinNodes + rng.Intn(b.MaxNodes-b.MinNodes+1)
		exec := b.MinExec + units.Duration(rng.Int63n(int64(b.MaxExec-b.MinExec)+1))
		arriveAt := ev.At
		if b.Jobs > 1 {
			arriveAt = ev.At.Add(b.Spread * units.Duration(k) / units.Duration(b.Jobs-1))
		}
		if err := r.apply(journal.Op{Kind: journal.Advance, To: arriveAt.Max(eng.Now())}); err != nil {
			return fmt.Errorf("scenario %s: events[%d] job %d: %w", r.scn.Name, i, k, err)
		}
		r.submitted++
		quotes := eng.Quotes(nodes, exec, maxQuoteOffers)
		rank := slices.IndexFunc(quotes, func(q negotiate.Quote) bool { return user.Accepts(q.Success) })
		if rank < 0 {
			r.rejected++
			continue
		}
		job := workload.Job{ID: r.m.NextJobID(), Arrival: eng.Now(), Nodes: nodes, Exec: exec}
		op := journal.Op{Kind: journal.Admit, Job: &job, Quote: &quotes[rank], Offers: rank + 1}
		if err := r.apply(op); err != nil {
			return fmt.Errorf("scenario %s: events[%d] job %d: %w", r.scn.Name, i, k, err)
		}
	}
	return nil
}

// Run executes every remaining step and returns the final report.
func (r *Runner) Run() (*Report, error) {
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Report(), nil
}

// State is a mid-scenario snapshot: the scenario and the number of steps
// run. The runner is deterministic, so that is all its state.
type State struct {
	Scenario *Scenario `json:"scenario"`
	Step     int       `json:"step"`
}

// Export snapshots the runner between steps.
func (r *Runner) Export() State { return State{Scenario: r.scn, Step: r.step} }

// Resume reconstructs a runner from an exported State by building it anew
// from the scenario and re-running the exported number of steps, so it
// finishes with the exact report the uninterrupted run would have produced.
func Resume(st State) (*Runner, error) {
	if st.Scenario == nil {
		return nil, fmt.Errorf("scenario: resume state has no scenario")
	}
	if last := len(st.Scenario.Events) + 1; st.Step < 0 || st.Step > last {
		return nil, fmt.Errorf("scenario %s: resume step %d outside 0..%d", st.Scenario.Name, st.Step, last)
	}
	r, err := NewRunner(st.Scenario)
	if err != nil {
		return nil, err
	}
	for r.step < st.Step {
		if err := r.Step(); err != nil {
			return nil, fmt.Errorf("scenario %s: resume: %w", st.Scenario.Name, err)
		}
	}
	return r, nil
}
