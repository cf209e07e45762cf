package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

// journalGoldenArgs is a small seeded run whose journal holds every note
// kind and every detail form; 32 nodes make starts contend enough to slip.
var journalGoldenArgs = []string{"-nodes", "32", "-seed", "1", "-jobs", "80"}

// TestJournalGolden pins the -journal bytes of a seeded run.
func TestJournalGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var sb strings.Builder
	if err := run(&sb, append(journalGoldenArgs, "-journal", path)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The golden is only worth pinning while it covers every kind and
	// detail form the simulator writes; a quieter seed would drop some.
	kinds := make(map[string]int)
	lines := bufio.NewScanner(bytes.NewReader(got))
	for lines.Scan() {
		var n struct{ Kind string }
		if err := json.Unmarshal(lines.Bytes(), &n); err != nil {
			t.Fatalf("journal line %q: %v", lines.Text(), err)
		}
		kinds[n.Kind]++
	}
	for _, k := range []string{"arrival", "start", "checkpoint-request", "checkpoint-finish", "finish", "failure", "recovery"} {
		if kinds[k] == 0 {
			t.Errorf("journal has no %q note (saw %v)", k, kinds)
		}
	}
	for _, form := range []string{
		`"node":-1,`, `"detail":"deadline=\S+ p=[01]\.\d{3}"`, `"detail":"slip to \S+"`,
		`"detail":"perform d=\d+"`, `"detail":"skip d=\d+"`, `"detail":"met=true"`,
		`"detail":"met=false"`, `"detail":"lost=0"`, `"detail":"lost=[1-9]\d*"`,
	} {
		if !regexp.MustCompile(form).Match(got) {
			t.Errorf("journal has no line matching %s", form)
		}
	}

	golden := filepath.Join("testdata", "journal.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal differs from %s (%d bytes, want %d); rerun with -update only for an intended change", golden, len(got), len(want))
	}
}
