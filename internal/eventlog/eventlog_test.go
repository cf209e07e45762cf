package eventlog

import (
	"bytes"
	"strings"
	"testing"

	"probqos/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	decisions := []sim.Decision{
		{Kind: sim.DecisionQuote, Time: 10, JobID: 1, N: 3}, // not journaled
		{Kind: sim.DecisionReserve, Time: 10, JobID: 1, N: 1, Deadline: 600, Promise: 1},
		{Kind: sim.DecisionFailureIdle, Time: 20, N: 1, Node: 5},
		{Kind: sim.DecisionFailureKill, Time: 20, JobID: 1, N: 1, Node: 5, Width: 2, Lost: 120},
		{Kind: sim.DecisionFinish, Time: 30, JobID: 1, N: 1, Width: 2, Met: true},
	}
	var notes []sim.Note
	for _, d := range decisions {
		w.Decision(d)
		if n, ok := d.Note(); ok {
			notes = append(notes, n)
		}
	}
	if notes[0].Detail != "deadline=d0+00:10:00 p=1.000" || notes[2].Detail != "lost=120" {
		t.Errorf("rendered details = %q, %q", notes[0].Detail, notes[2].Detail)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(notes) {
		t.Fatalf("read %d notes, want %d", len(got), len(notes))
	}
	for i := range notes {
		if got[i] != notes[i] {
			t.Errorf("note %d = %+v, want %+v", i, got[i], notes[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"time\":1}\nnot json\n")); err == nil {
		t.Error("expected parse error")
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	return 0, &writeError{}
}

type writeError struct{}

func (*writeError) Error() string { return "disk full" }

func TestStickyError(t *testing.T) {
	w := NewWriter(&failingWriter{})
	// The bufio layer absorbs small writes; force enough volume to flush.
	for i := 0; i < 400; i++ {
		w.Decision(sim.Decision{Kind: sim.DecisionRecovery, Time: 1, N: 1, Node: i})
	}
	if w.Close() == nil {
		t.Error("expected a sticky write error")
	}
}
