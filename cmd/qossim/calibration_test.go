package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probqos"
)

// calibrationGoldens pins the -calibration text of two seeded runs, byte
// for byte: one under the health monitor (seven populated bins,
// overconfidence 0.0369) and one under the trace predictor at a = 0.9
// (six bins, overconfidence 0.7207).
var calibrationGoldens = []struct {
	name string
	args []string
}{
	{"calibration_monitor_u0", []string{"-monitor", "-u", "0", "-jobs", "1000", "-calibration"}},
	{"calibration_a09_u0", []string{"-u", "0", "-a", "0.9", "-jobs", "1000", "-calibration"}},
}

// TestCalibrationGolden compares the promise reliability report against
// its goldens.
func TestCalibrationGolden(t *testing.T) {
	for _, g := range calibrationGoldens {
		t.Run(g.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(&sb, g.args); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", g.name+".golden.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("qossim %s differs from %s; rerun with -update only for an intended change\ngot:\n%s\nwant:\n%s",
					strings.Join(g.args, " "), golden, got, want)
			}
		})
	}
}

func TestReliabilityWorkShares(t *testing.T) {
	res := &probqos.Result{Jobs: []probqos.JobRecord{
		{ID: 1, Nodes: 1, Exec: 100, Promised: 0.05},
		{ID: 2, Nodes: 3, Exec: 100, Promised: 0.05, MetDeadline: true},
		{ID: 3, Nodes: 2, Exec: 200, Promised: 0.95},
		{ID: 4, Nodes: 4, Exec: 50, Promised: 1.0, MetDeadline: true}, // closed top bin
	}}
	rel := reliability(res)
	if len(rel.Bins) != 10 {
		t.Fatalf("%d bins, want 10", len(rel.Bins))
	}
	if math.Abs(rel.Bins[0].WorkShare-0.4) > 1e-12 || math.Abs(rel.Bins[9].WorkShare-0.6) > 1e-12 {
		t.Errorf("work shares %v and %v, want 0.4 in bin 0 and 0.6 in bin 9", rel.Bins[0].WorkShare, rel.Bins[9].WorkShare)
	}
	var sum float64
	for _, b := range rel.Bins {
		sum += b.WorkShare
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("work shares sum to %v", sum)
	}
	if b := rel.Bins[0]; b.Settled != 2 || b.Observed != 0.5 || rel.Bins[9].Settled != 2 {
		t.Errorf("bins = %+v", rel.Bins)
	}
	// Bin 9 promised 0.975 on average and kept half: short by 0.475.
	if math.Abs(rel.Overconfidence-0.475) > 1e-12 {
		t.Errorf("overconfidence = %v, want 0.475", rel.Overconfidence)
	}
	for _, b := range reliability(&probqos.Result{}).Bins {
		if b.WorkShare != 0 || b.Settled != 0 {
			t.Errorf("empty run has bin %+v", b)
		}
	}
}
