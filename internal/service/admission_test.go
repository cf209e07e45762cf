package service

import (
	"math/rand"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/journal"
	"probqos/internal/negotiate"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// TestLedgerOpenCountsQueuedAndRunning pins the equality admission control
// relies on: every clock move settles the ledger, so its open promises are
// exactly the engine's queued plus running jobs. It checks the equality
// after every step of a random mix of quotes, accepts (stale ones
// included), clock advances and injected faults.
func TestLedgerOpenCountsQueuedAndRunning(t *testing.T) {
	const nodes = 16
	tr, err := failure.GenerateTrace(
		failure.RawConfig{Nodes: nodes, Span: 30 * units.Day, Episodes: 60, Seed: 4},
		failure.FilterConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(DefaultConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	type quoted struct {
		size   int
		exec   units.Duration
		quotes []negotiate.Quote
	}
	var (
		rng      = rand.New(rand.NewSource(1))
		pending  []quoted
		jobID    int
		admitted int
		maxOpen  int
	)
	for step := 0; step < 3000; step++ {
		switch k := rng.Intn(10); {
		case k < 4:
			size := 1 + rng.Intn(nodes/2)
			exec := units.Duration(600 + rng.Intn(4*3600))
			if qs := m.Engine().Quotes(size, exec, 4); len(qs) > 0 {
				pending = append(pending, quoted{size, exec, qs})
			}
		case k < 8:
			if len(pending) == 0 {
				continue
			}
			// Mostly the newest quote, sometimes an older one the clock
			// may have overtaken.
			i := len(pending) - 1
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(pending))
			}
			q := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			offer := 1 + rng.Intn(len(q.quotes))
			jobID++
			job := workload.Job{ID: jobID, Arrival: m.Engine().Now(), Nodes: q.size, Exec: q.exec}
			// A quote the clock or another accept overtook is refused; the
			// ledger must then stay as it was.
			if m.admit(journal.Op{Kind: journal.Admit, Job: &job, Quote: &q.quotes[offer-1], Offers: offer}, nil) == nil {
				admitted++
			}
		case k < 9:
			if err := m.advance(m.Engine().Now().Add(units.Duration(rng.Intn(3600))), nil); err != nil {
				t.Fatalf("step %d: advance: %v", step, err)
			}
		default:
			at := m.Engine().Now().Add(units.Duration(rng.Intn(3600)))
			if err := m.Apply(journal.Op{Kind: journal.Fault, Node: rng.Intn(nodes), At: at}, nil); err != nil {
				t.Fatalf("step %d: fault: %v", step, err)
			}
		}
		st := m.Engine().Stats()
		open := m.Ledger().Stats().Open
		if open != st.Queued+st.Running {
			t.Fatalf("step %d: ledger has %d open promises, engine has %d queued + %d running",
				step, open, st.Queued, st.Running)
		}
		maxOpen = max(maxOpen, open)
	}
	ls := m.Ledger().Stats()
	if admitted < 100 || maxOpen < 5 || ls.Broken == 0 {
		t.Fatalf("the mix is too tame: %d admitted, at most %d open, %+v", admitted, maxOpen, ls)
	}
	t.Logf("%d admitted, at most %d open, %d settled (%d broken)", admitted, maxOpen, ls.Settled, ls.Broken)
}
