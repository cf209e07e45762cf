package sim

import (
	"strings"
	"testing"
)

func TestResultHelpers(t *testing.T) {
	var empty Result
	if empty.Span() != 0 {
		t.Errorf("empty span = %v", empty.Span())
	}
	if empty.OccupiedFraction() != 0 {
		t.Errorf("empty occupancy = %v", empty.OccupiedFraction())
	}
	res := Result{
		ClusterNodes: 4,
		Jobs: []JobRecord{
			{ID: 1},
			{ID: 2},
		},
		Start: 100, End: 600, BusyNodeSeconds: 1000,
	}
	if got := res.Span(); got != 500 {
		t.Errorf("span = %v", got)
	}
	if got := res.OccupiedFraction(); got != 0.5 {
		t.Errorf("occupancy = %v", got)
	}
}

func TestKindStringNames(t *testing.T) {
	for k, want := range map[Kind]string{
		KindFailure:           "failure",
		KindRecovery:          "recovery",
		KindFinish:            "finish",
		KindCheckpointFinish:  "checkpoint-finish",
		KindArrival:           "arrival",
		KindStart:             "start",
		KindCheckpointRequest: "checkpoint-request",
		Kind(99):              "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

type failAfterWriter struct {
	budget int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.budget -= len(p); w.budget < 0 {
		return 0, errShortDisk
	}
	return len(p), nil
}

var errShortDisk = &diskError{}

type diskError struct{}

func (*diskError) Error() string { return "disk full" }

func TestCSVExportPropagatesWriteErrors(t *testing.T) {
	res := &Result{ClusterNodes: 4}
	for i := 0; i < 600; i++ {
		res.Jobs = append(res.Jobs, JobRecord{ID: i + 1, Nodes: 1, Exec: 10})
		res.Failures = append(res.Failures, FailureRecord{Time: 1, Node: 0})
	}
	if err := res.WriteJobsCSV(&failAfterWriter{budget: 64}); err == nil {
		t.Error("jobs CSV write error swallowed")
	}
	if err := res.WriteFailuresCSV(&failAfterWriter{budget: 64}); err == nil {
		t.Error("failures CSV write error swallowed")
	}
	if err := res.WriteJobsCSV(&strings.Builder{}); err != nil {
		t.Errorf("healthy write failed: %v", err)
	}
}
