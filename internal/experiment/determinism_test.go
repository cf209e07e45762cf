package experiment

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGoldenScenarioByteIdenticalAcrossRuns is the runtime backstop behind
// qoslint's dettaint analyzer: it executes the golden-corpus
// scenario twice in one process, each time from a fresh Env, and demands
// byte-identical rendered output. A wall-clock read or global-PRNG draw
// that slips past the static checks (through an interface, reflection, or
// an allow directive with a wrong justification) shows up here as a diff
// between two runs of the very experiments the corpus pins.
func TestGoldenScenarioByteIdenticalAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario recomputation is not short")
	}
	byID := make(map[string]Experiment)
	for _, exp := range All() {
		byID[exp.ID] = exp
	}
	runAll := func() []byte {
		t.Helper()
		// A fresh Env per run: the memoized traces, logs, and points must be
		// rebuilt from the seed alone, or they are not reproducible state.
		e := NewEnv()
		e.JobCount = goldenJobCount
		e.Seed = goldenSeed
		var exps []Experiment
		for _, id := range goldenExperiments {
			exp, ok := byID[id]
			if !ok {
				t.Fatalf("golden experiment %q is not registered", id)
			}
			exps = append(exps, exp)
		}
		return renderResults(t, RunAll(e, exps))
	}
	first := runAll()
	second := runAll()
	if !bytes.Equal(first, second) {
		t.Fatalf("two in-process runs of the golden scenario diverged:\nfirst run:  %d bytes\nsecond run: %d bytes\n%s",
			len(first), len(second), firstDiff(first, second))
	}
}

// firstDiff points at the first byte where two renderings diverge, with a
// little context, so a nondeterminism failure is debuggable from the log.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-80)
			return fmt.Sprintf("first divergence at byte %d:\n  first:  …%s\n  second: …%s",
				i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
		}
	}
	return fmt.Sprintf("one rendering is a prefix of the other (lengths %d vs %d)", len(a), len(b))
}
