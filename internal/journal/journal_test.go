package journal

import (
	"bytes"
	"fmt"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/negotiate"
	"probqos/internal/sim"
	"probqos/internal/workload"
)

// TestApplyContract: an admit the engine refuses still burns its job ID
// and files no promise, an accepted one files its promise, only ops with
// record bytes are journaled, and a kind that is not an engine op is an
// error that journals nothing.
func TestApplyContract(t *testing.T) {
	tr, err := failure.NewTrace(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(nil, tr)
	cfg.Nodes = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{ID: m.NextJobID(), Nodes: 2, Exec: 600}
	quotes := m.Engine().Quotes(job.Nodes, job.Exec, 1)
	if len(quotes) == 0 {
		t.Fatal("no quote for a 2-node job on an idle 4-node cluster")
	}
	short := quotes[0]
	short.Candidate.Nodes = short.Candidate.Nodes[:1]
	if err := m.Apply(Op{Kind: Admit, Job: &job, Quote: &short, Offers: 1}, []byte(`"refused"`)); err == nil {
		t.Fatal("an admit whose quote reserves too few nodes was accepted")
	}
	if m.NextJobID() != 2 || m.Ledger().Open() != 0 {
		t.Errorf("after a refused admit: next ID %d, %d open promises; want 2 and 0", m.NextJobID(), m.Ledger().Open())
	}
	job.ID = m.NextJobID()
	if err := m.Apply(Op{Kind: Admit, Job: &job, Quote: &quotes[0], Offers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Op{Kind: Advance, To: 60}, []byte(`"advance"`)); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Op{Kind: "session", Session: &negotiate.Session{}}, []byte(`"session"`)); err == nil {
		t.Error("a session op was applied to the engine")
	}
	if m.NextJobID() != 3 || m.Ledger().Open() != 1 {
		t.Errorf("after an accepted admit: next ID %d, %d open promises; want 3 and 1", m.NextJobID(), m.Ledger().Open())
	}
	if got := string(bytes.Join(m.Journal(), nil)); got != `"refused","advance"` {
		t.Errorf("journal %s, want the refused admit and the advance", got)
	}
}

// TestJournalChunks: the journal's chunks concatenate to its ops joined by
// commas, whether an op fits the current chunk, starts a new one, or is
// larger than a chunk, and each chunk keeps the capacity it started with,
// so nothing is copied as the journal grows. An op without bytes adds
// nothing.
func TestJournalChunks(t *testing.T) {
	var j chunks
	var ops [][]byte
	for i, n := range []int{10, chunkSize / 2, chunkSize / 2, chunkSize * 2, 3} {
		op := bytes.Repeat([]byte{'a' + byte(i)}, n)
		j.add(op)
		ops = append(ops, op)
	}
	j.add(nil)
	if got, want := bytes.Join(j.chunks, nil), bytes.Join(ops, []byte{','}); !bytes.Equal(got, want) {
		t.Errorf("journal holds %d bytes, want the %d of the ops joined by commas", len(got), len(want))
	}
	var caps []int
	for _, c := range j.chunks {
		caps = append(caps, cap(c))
	}
	if want := []int{chunkSize, chunkSize, 2*chunkSize + 1, chunkSize}; fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("chunk capacities %v, want %v", caps, want)
	}
}
