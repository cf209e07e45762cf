// Package eventlog records the simulator's event journal as JSON lines and
// reads it back. cmd/qossim -journal writes it.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"probqos/internal/sim"
)

// Writer is a sim.Probe that renders each journaled decision as a note and
// appends it as one JSON line. Errors are sticky: the first write failure
// is remembered and later notes are dropped; check Err (or Close) when the
// run finishes.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

var _ sim.Probe = (*Writer)(nil)

// NewWriter creates a journal writer over w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Decision implements sim.Probe: decisions the journal records are written
// as notes, the rest are ignored.
func (w *Writer) Decision(d sim.Decision) {
	n, ok := d.Note()
	if !ok {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(n); err != nil {
		w.err = fmt.Errorf("eventlog: write: %w", err)
	}
}

// Sample implements sim.Probe; the journal holds no state samples.
func (*Writer) Sample(sim.State) {}

// Phase implements sim.Probe; the journal holds no wall-clock timings.
func (*Writer) Phase(sim.Phase, time.Duration) {}

// Close flushes buffered notes and returns the first error seen.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("eventlog: flush: %w", err)
	}
	return w.err
}

// Read parses a journal written by Writer.
func Read(r io.Reader) ([]sim.Note, error) {
	var notes []sim.Note
	dec := json.NewDecoder(r)
	for {
		var n sim.Note
		if err := dec.Decode(&n); err == io.EOF {
			return notes, nil
		} else if err != nil {
			return nil, fmt.Errorf("eventlog: parse line %d: %w", len(notes)+1, err)
		}
		notes = append(notes, n)
	}
}
