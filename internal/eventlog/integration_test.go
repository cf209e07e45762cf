package eventlog

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// TestJournalMatchesSimulatorAccounting runs a real simulation with the
// journal attached and cross-checks the busy node-seconds the journal
// implies against the simulator's own integration. The two are independent
// code paths over the same events, so agreement is a strong consistency
// check.
func TestJournalMatchesSimulatorAccounting(t *testing.T) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 150, Seed: 17, ClusterNodes: 16})
	for i := range log.Jobs {
		if log.Jobs[i].Nodes > 16 {
			log.Jobs[i].Nodes = 16
		}
	}
	tr, err := failure.GenerateTrace(
		failure.RawConfig{Nodes: 16, Episodes: 40, Span: 90 * units.Day, Seed: 17},
		failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := NewWriter(&buf)
	cfg := sim.DefaultConfig(log, tr)
	cfg.Nodes = 16
	cfg.Accuracy = 0.6
	cfg.UserRisk = 0.5
	cfg.Probe = journal
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	notes, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Integrate the busy-node count implied by the width-annotated start,
	// finish, and job-killing failure notes, in time order.
	sort.SliceStable(notes, func(i, j int) bool { return notes[i].Time < notes[j].Time })
	var integrated float64
	var prev units.Time
	busy := 0
	kinds := make(map[int]map[string]int)
	for _, n := range notes {
		integrated += float64(busy) * n.Time.Sub(prev).Seconds()
		prev = n.Time
		switch n.Kind {
		case "start":
			busy += n.Width
		case "finish":
			busy -= n.Width
		case "failure":
			if n.JobID != 0 {
				busy -= n.Width
			}
		}
		if busy < 0 || busy > 16 {
			t.Fatalf("journal busy-node count %d outside [0, 16] at %v", busy, n.Time)
		}
		if n.JobID != 0 {
			if kinds[n.JobID] == nil {
				kinds[n.JobID] = make(map[string]int)
			}
			kinds[n.JobID][n.Kind]++
		}
	}
	want := res.BusyNodeSeconds.NodeSeconds()
	if want == 0 {
		t.Fatal("simulator accounted no busy time")
	}
	if rel := math.Abs(integrated-want) / want; rel > 0.01 {
		t.Errorf("journal occupancy %.4g vs simulator %.4g (relative error %.4f)",
			integrated, want, rel)
	}

	// The journal's per-job story must be complete: every job has an
	// arrival, at least one start, and exactly one finish.
	for _, j := range res.Jobs {
		if counts := kinds[j.ID]; counts["arrival"] != 1 || counts["finish"] != 1 || counts["start"] < 1 {
			t.Fatalf("job %d journal incomplete: %v", j.ID, counts)
		}
	}
}
