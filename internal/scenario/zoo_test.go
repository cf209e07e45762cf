package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden zoo reports")

// zooFiles lists every scenario in the zoo, sorted by name so test order
// is stable.
func zooFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pattern := range []string{"zoo/*.yaml", "zoo/*.yml"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	sort.Strings(files)
	if len(files) < 10 {
		t.Fatalf("the zoo holds %d scenarios; it must keep at least 10", len(files))
	}
	return files
}

func decodeFile(t *testing.T, path string) *Scenario {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(path, data)
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return s
}

func runToBytes(t *testing.T, s *Scenario) []byte {
	t.Helper()
	r, err := NewRunner(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return buf.Bytes()
}

// firstDiff returns the offset of the first differing byte, with a short
// context excerpt from each side.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("offset %d:\n  golden: %q\n  got:    %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// saveArtifact dumps a failing report next to the golden name when
// SCENARIO_ARTIFACTS points at a directory, so CI can upload the evidence.
func saveArtifact(t *testing.T, name string, report []byte) {
	dir := os.Getenv("SCENARIO_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, report, 0o644); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("failing report saved to %s", path)
}

func goldenPath(scenarioFile string) string {
	base := strings.TrimSuffix(filepath.Base(scenarioFile), filepath.Ext(scenarioFile))
	return filepath.Join("testdata", "golden", base+".json")
}

// TestZooGolden runs every zoo scenario and compares its report
// byte-for-byte against the checked-in golden. Run with -update after an
// intentional behaviour change.
func TestZooGolden(t *testing.T) {
	for _, file := range zooFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			s := decodeFile(t, file)
			got := runToBytes(t, s)

			// Every zoo scenario must hold its own assertions: the zoo is
			// the regression gate, and a checked-in failing scenario would
			// gate nothing.
			var rep Report
			if err := json.Unmarshal(got, &rep); err != nil {
				t.Fatalf("report does not parse back: %v", err)
			}
			if !rep.OK {
				for _, a := range rep.Failed() {
					t.Errorf("assertion failed: %s: %s", a.Type, a.Detail)
				}
			}

			gp := goldenPath(file)
			if *update {
				if err := os.WriteFile(gp, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(gp)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				saveArtifact(t, filepath.Base(gp), got)
				t.Errorf("report drifted from golden %s\n%s", gp, firstDiff(want, got))
			}
		})
	}
}

// TestZooByteIdenticalAcrossRuns runs each scenario twice in-process:
// identical seeds must produce identical bytes, with no state bleeding
// between runs.
func TestZooByteIdenticalAcrossRuns(t *testing.T) {
	for _, file := range zooFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			s := decodeFile(t, file)
			first := runToBytes(t, s)
			second := runToBytes(t, s)
			if !bytes.Equal(first, second) {
				saveArtifact(t, "rerun-"+filepath.Base(goldenPath(file)), second)
				t.Errorf("same scenario, different bytes\n%s", firstDiff(first, second))
			}
		})
	}
}

// TestZooExportResume interrupts each scenario at every step index, from
// before the first event to after the final drain, round-trips the runner
// state through JSON (as a crash/restart would), resumes on a fresh
// runner, and demands the byte-exact report of the uninterrupted run.
func TestZooExportResume(t *testing.T) {
	for _, file := range zooFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			s := decodeFile(t, file)
			want := runToBytes(t, s)

			r, err := NewRunner(s)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut <= len(s.Events)+1; cut++ {
				if cut > 0 {
					if err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				blob, err := json.Marshal(r.Export())
				if err != nil {
					t.Fatal(err)
				}
				var st State
				if err := json.Unmarshal(blob, &st); err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(st)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				rep, err := resumed.Run()
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, buf.Bytes()) {
					saveArtifact(t, fmt.Sprintf("resume-%d-%s", cut, filepath.Base(goldenPath(file))), buf.Bytes())
					t.Errorf("run resumed at step %d diverged from uninterrupted run\n%s", cut, firstDiff(want, buf.Bytes()))
				}
			}
		})
	}
}

// TestResumeRejectsOutOfRangeStep checks that a resume state naming a step
// the scenario does not have is refused, not clamped: it comes from outside
// the program.
func TestResumeRejectsOutOfRangeStep(t *testing.T) {
	s := decodeFile(t, zooFiles(t)[0])
	for _, step := range []int{-1, len(s.Events) + 2} {
		if _, err := Resume(State{Scenario: s, Step: step}); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("Resume at step %d: err = %v, want an out-of-range error", step, err)
		}
	}
	if _, err := Resume(State{}); err == nil {
		t.Error("Resume without a scenario succeeded")
	}
}
