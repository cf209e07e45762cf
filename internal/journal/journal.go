// Package journal turns the §3.5 dialog's outcomes into engine and ledger
// state. A Machine applies Ops — clock advances, admits, injected faults —
// to a sim.Engine and its promise ledger. qosd's live requests, its crash
// recovery and the scenario runner all drive the engine through Apply, so
// a replay reaches the state the live run reached.
package journal

import (
	"fmt"

	"probqos/internal/metrics"
	"probqos/internal/negotiate"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Op kinds a Machine applies.
const (
	Advance = "advance"
	Admit   = "admit"
	Fault   = "fault"
)

// Op is one journaled state mutation, JSON-encoded as a qosd WAL record
// payload; fields, order and tags are that record format.
type Op struct {
	Kind string `json:"kind"`
	// advance
	To units.Time `json:"to,omitempty"`
	// session (the full session, so replay reproduces it verbatim)
	Session *negotiate.Session `json:"session,omitempty"`
	// take and admit
	SessionID string `json:"session_id,omitempty"`
	// admit (self-contained: replay needs no session record to exist,
	// which keeps admits of degraded-mode memory-only sessions replayable)
	Job    *workload.Job    `json:"job,omitempty"`
	Quote  *negotiate.Quote `json:"quote,omitempty"`
	Offers int              `json:"offers,omitempty"`
	// fault (node 0 is valid, so no omitempty)
	Node int        `json:"node"`
	At   units.Time `json:"at,omitempty"`
}

// Machine is the engine, the promise ledger and the job-ID counter, moved
// only by Apply and Drain.
type Machine struct {
	eng       *sim.Engine
	ledger    *metrics.Ledger
	lastJobID int
	// journal is every op applied with record bytes, in order: applied
	// again to a fresh Machine it rebuilds the state exactly.
	journal chunks
}

// New assembles a Machine over a fresh engine built from cfg.
func New(cfg sim.Config) (*Machine, error) {
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{eng: eng, ledger: metrics.NewLedger(metrics.DefaultBins)}, nil
}

// Engine returns the engine for reading; only Apply and Drain move it.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Ledger returns the promise ledger for reading.
func (m *Machine) Ledger() *metrics.Ledger { return m.ledger }

// NextJobID is the ID the next admit should carry.
func (m *Machine) NextJobID() int { return m.lastJobID + 1 }

// Journal returns the journal's chunks (see chunks); callers must not
// modify them.
func (m *Machine) Journal() [][]byte { return m.journal.chunks }

// Apply applies one advance, admit or fault op and journals raw, the op's
// record bytes (nil for none). An advance settles every promise the clock
// move decided, so replay settles exactly as the live run did. An admit
// burns its job ID even when the engine refuses it, so no ID is reissued.
// An admit or fault error is the engine refusing the op; an advance error
// is an engine invariant violation.
func (m *Machine) Apply(op Op, raw []byte) error {
	switch op.Kind {
	case Advance:
		m.journal.add(raw)
		if err := m.eng.AdvanceTo(op.To); err != nil {
			return err
		}
		m.ledger.Settle(m.eng)
	case Admit:
		m.journal.add(raw)
		job, q := *op.Job, *op.Quote
		m.lastJobID = max(m.lastJobID, job.ID)
		if err := m.eng.Admit(job, q, op.Offers); err != nil {
			return err
		}
		m.ledger.Admit(job.ID, op.SessionID, q.Success, q.Deadline, m.eng.Now())
	case Fault:
		m.journal.add(raw)
		return m.eng.InjectFailure(op.Node, op.At)
	default:
		return fmt.Errorf("journal: %q is not an engine op", op.Kind)
	}
	return nil
}

// Drain runs every admitted job to its end and settles the ledger. No op
// records it: qosd never drains.
func (m *Machine) Drain() error {
	if err := m.eng.Drain(); err != nil {
		return err
	}
	m.ledger.Settle(m.eng)
	return nil
}

// chunkSize is the size of one journal chunk.
const chunkSize = 64 << 10

// chunks holds encoded ops as the elements of a JSON array without its
// brackets, comma-separated, in chunks of chunkSize bytes (or one op, if
// larger). A chunk is never regrown, so appending never copies what is
// there, and a snapshot writes the chunks as they are.
type chunks struct {
	chunks [][]byte
}

// add appends one encoded op; nil (no record bytes) adds nothing.
func (j *chunks) add(op []byte) {
	if op == nil {
		return
	}
	sep := len(j.chunks) > 0 // a comma goes before every op but the first
	need := len(op)
	if sep {
		need++
	}
	last := len(j.chunks) - 1
	if last < 0 || cap(j.chunks[last])-len(j.chunks[last]) < need {
		j.chunks = append(j.chunks, make([]byte, 0, max(chunkSize, need)))
		last++
	}
	if sep {
		j.chunks[last] = append(j.chunks[last], ',')
	}
	j.chunks[last] = append(j.chunks[last], op...)
}
