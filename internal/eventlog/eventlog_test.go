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
	notes := []sim.Note{
		{Time: 10, Kind: "arrival", JobID: 1, Detail: "deadline=d0+00:10:00 p=1.000"},
		{Time: 20, Kind: "failure", Node: 5, Detail: "lost=120"},
		{Time: 30, Kind: "finish", JobID: 1},
	}
	for _, n := range notes {
		w.Observe(n)
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
	big := strings.Repeat("x", 8192)
	for i := 0; i < 4; i++ {
		w.Observe(sim.Note{Kind: big})
	}
	if w.Err() == nil && w.Close() == nil {
		t.Error("expected a sticky write error")
	}
}
