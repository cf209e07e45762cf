package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/negotiate"
	"probqos/internal/predict"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// edgeTestEngine builds a small interactive engine with no background
// failures, advanced to a known non-zero instant so "the past" exists.
func edgeTestEngine(t *testing.T) *Engine {
	t.Helper()
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nil, tr)
	cfg.Nodes = 8
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(units.Time(1 * units.Hour)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestInjectFailureEdges pins the exact rejection (and acceptance)
// behavior of InjectFailure at the boundaries a scenario runner hits:
// instants in the past, nodes off either end of the cluster, and repeat
// injections on a node that is already down.
func TestInjectFailureEdges(t *testing.T) {
	now := units.Time(1 * units.Hour)
	cases := []struct {
		name    string
		node    int
		at      units.Time
		wantErr string // "" means the injection must be accepted
	}{
		{
			name:    "past instant",
			node:    2,
			at:      now.Add(-1 * units.Minute),
			wantErr: fmt.Sprintf("sim: cannot inject a failure at %v, clock is at %v", now.Add(-1*units.Minute), now),
		},
		{
			name:    "negative node",
			node:    -1,
			at:      now,
			wantErr: "sim: node -1 outside [0,8)",
		},
		{
			name:    "node one past the end",
			node:    8,
			at:      now,
			wantErr: "sim: node 8 outside [0,8)",
		},
		{name: "node zero at now", node: 0, at: now},
		{name: "last node in range", node: 7, at: now.Add(1 * units.Hour)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := edgeTestEngine(t)
			err := eng.InjectFailure(tc.node, tc.at)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("InjectFailure(%d, %v) = %v, want accepted", tc.node, tc.at, err)
				}
				return
			}
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("InjectFailure(%d, %v) = %v, want %q", tc.node, tc.at, err, tc.wantErr)
			}
		})
	}
}

// TestInjectFailureOnDownNode documents that a second failure on a node
// already in its downtime window is accepted, not an error: the node
// stays dark for the union of the outages (this is how the scenario
// runner models maintenance windows, re-failing nodes back to back).
func TestInjectFailureOnDownNode(t *testing.T) {
	eng := edgeTestEngine(t)
	now := eng.Now()
	if err := eng.InjectFailure(3, now); err != nil {
		t.Fatalf("first failure: %v", err)
	}
	// Re-fail the node while the first outage's downtime is still running.
	if err := eng.InjectFailure(3, now.Add(1*units.Minute)); err != nil {
		t.Fatalf("duplicate failure on down node: %v", err)
	}
	if err := eng.AdvanceTo(now.Add(10 * units.Minute)); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitEdges pins the exact errors Admit returns for the ways an
// interactive client can present a bad (job, quote) pair.
func TestAdmitEdges(t *testing.T) {
	now := units.Time(1 * units.Hour)
	goodJob := func(id int) workload.Job {
		return workload.Job{ID: id, Arrival: now, Nodes: 2, Exec: 1 * units.Hour}
	}
	cases := []struct {
		name    string
		setup   func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote)
		wantErr string
		wantIs  error // additionally assert errors.Is against this sentinel
	}{
		{
			name: "stale quote",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				q := liveQuote(t, eng, 2)
				if err := eng.AdvanceTo(eng.Now().Add(2 * units.Hour)); err != nil {
					t.Fatal(err)
				}
				j := goodJob(1)
				j.Arrival = eng.Now()
				return j, q
			},
			wantErr: fmt.Sprintf("sim: quote start is in the past: start %v, now %v",
				now, now.Add(2*units.Hour)),
			wantIs: ErrStaleQuote,
		},
		{
			name: "duplicate job ID",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				q := liveQuote(t, eng, 2)
				if err := eng.Admit(goodJob(1), q, 1); err != nil {
					t.Fatal(err)
				}
				return goodJob(1), liveQuote(t, eng, 2)
			},
			wantErr: "sim: job 1 already admitted",
		},
		{
			name: "quote sized for a different job",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				q := liveQuote(t, eng, 3)
				return goodJob(1), q // job wants 2 nodes, quote reserves 3
			},
			wantErr: "sim: quote reserves 3 nodes but job 1 needs 2",
		},
		{
			name: "job larger than the cluster",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				j := goodJob(1)
				j.Nodes = 9
				return j, liveQuote(t, eng, 2)
			},
			wantErr: "workload: job 1 needs 9 nodes but the cluster has 8",
		},
		{
			name: "non-positive size",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				j := goodJob(1)
				j.Nodes = 0
				return j, liveQuote(t, eng, 2)
			},
			wantErr: "workload: job 1 has non-positive size 0",
		},
		{
			name: "non-positive runtime",
			setup: func(t *testing.T, eng *Engine) (workload.Job, negotiate.Quote) {
				j := goodJob(1)
				j.Exec = 0
				return j, liveQuote(t, eng, 2)
			},
			wantErr: "workload: job 1 has non-positive runtime 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := edgeTestEngine(t)
			job, q := tc.setup(t, eng)
			err := eng.Admit(job, q, 1)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("Admit = %v, want %q", err, tc.wantErr)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("Admit error %v does not wrap %v", err, tc.wantIs)
			}
			// A rejected admission must leave no trace: no job record,
			// and nothing in the replay journal.
			if _, ok := eng.Job(job.ID); ok && tc.wantErr != "sim: job 1 already admitted" {
				t.Fatalf("rejected job %d is tracked", job.ID)
			}
		})
	}
}

// TestJobTableLooksUpByID drives the job table's two lookups: a binary
// search while IDs strictly increase in admission order, and the ID map
// built when one does not. Both must find every job, list IDs ascending,
// and refuse a duplicate wherever it appears.
func TestJobTableLooksUpByID(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	logJob := func(id int, at units.Time) workload.Job {
		return workload.Job{ID: id, Arrival: at, Nodes: 1, Exec: 100}
	}
	for _, tc := range []struct {
		name    string
		log     []int // IDs, arriving 10 s apart
		admit   []int // IDs admitted after the log, in order
		wantIDs []int
		wantErr string // the first error, from NewEngine or Admit
	}{
		{name: "ascending", log: []int{2, 4, 7}, admit: []int{8, 20}, wantIDs: []int{2, 4, 7, 8, 20}},
		{name: "log not ascending", log: []int{5, 3, 9}, admit: []int{4, 10}, wantIDs: []int{3, 4, 5, 9, 10}},
		{name: "admit below the last ID", log: []int{2, 4}, admit: []int{9, 3}, wantIDs: []int{2, 3, 4, 9}},
		{name: "admit only", admit: []int{3, 1, 2}, wantIDs: []int{1, 2, 3}},
		{name: "duplicate in ascending log", log: []int{1, 2, 2}, wantErr: "sim: duplicate job ID 2 in workload"},
		{name: "duplicate in log", log: []int{4, 1, 4}, wantErr: "sim: duplicate job ID 4 in workload"},
		{name: "duplicate of a log job", log: []int{1, 3}, admit: []int{5, 3}, wantErr: "sim: job 3 already admitted"},
		{name: "duplicate after the map", log: []int{3, 1}, admit: []int{2, 2}, wantErr: "sim: job 2 already admitted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var jobs []workload.Job
			for i, id := range tc.log {
				jobs = append(jobs, logJob(id, units.Time(10*i)))
			}
			cfg := DefaultConfig(&workload.Log{Jobs: jobs}, tr)
			cfg.Nodes = 8
			eng, err := NewEngine(cfg)
			for _, id := range tc.admit {
				if err != nil {
					break
				}
				err = eng.Admit(logJob(id, 0), liveQuote(t, eng, 1), 1)
			}
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.JobIDs(); !slices.Equal(got, tc.wantIDs) {
				t.Errorf("JobIDs = %v, want %v", got, tc.wantIDs)
			}
			for _, id := range tc.wantIDs {
				if st, ok := eng.Job(id); !ok || st.ID != id {
					t.Errorf("Job(%d) = %+v, %v", id, st, ok)
				}
			}
			for _, id := range []int{0, 6, 11} {
				if _, ok := eng.Job(id); ok {
					t.Errorf("Job(%d) found a job never admitted", id)
				}
			}
			if got := eng.Stats().Jobs; got != len(tc.wantIDs) {
				t.Errorf("Stats().Jobs = %d, want %d", got, len(tc.wantIDs))
			}
		})
	}
}

// liveQuote fetches the first current quote for a job of the given size.
func liveQuote(t *testing.T, eng *Engine, size int) negotiate.Quote {
	t.Helper()
	qs := eng.Quotes(size, 1*units.Hour, 1)
	if len(qs) == 0 {
		t.Fatalf("no quotes for size %d", size)
	}
	return qs[0]
}

// TestNewEngineValidation pins the configurations an interactive engine
// refuses. A nil workload is fine: jobs then arrive through Admit.
func TestNewEngineValidation(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		configure func(*Config)
		wantErr   string // "" means the engine must build
	}{
		{name: "ok", configure: func(*Config) {}},
		{name: "nil trace", configure: func(c *Config) { c.Failures = nil }, wantErr: "sim: config needs a failure trace (it may be empty)"},
		{name: "node mismatch", configure: func(c *Config) { c.Nodes = 16 }, wantErr: "sim: failure trace covers 8 nodes but the cluster has 16"},
		{name: "bad accuracy", configure: func(c *Config) { c.Accuracy = 1.5 }, wantErr: "sim: accuracy 1.5 outside [0,1]"},
		{name: "bad checkpoint params", configure: func(c *Config) { c.Checkpoint = checkpoint.Params{} }, wantErr: "checkpoint: interval must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(nil, tr)
			cfg.Nodes = 8
			tc.configure(&cfg)
			_, err := NewEngine(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewEngine = %v, want accepted", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("NewEngine = %v, want an error starting %q", err, tc.wantErr)
			}
		})
	}
}

// TestEngineQuoteSuccess pins how the Config fields that shape the quote
// path move the promised probability. The failures are foreseen by the
// predictor only, so the cluster itself never goes down and the quotes
// differ by configuration alone.
func TestEngineQuoteSuccess(t *testing.T) {
	cases := []struct {
		name      string
		nodes     int
		foreseen  failure.Event
		now       units.Time
		configure func(*Config)
		size      int
		exec      units.Duration
		want      float64
	}{
		{
			name:      "zero downtime leaves a failure 60 s before the start outside the window",
			nodes:     1,
			foreseen:  failure.Event{Time: 940, Node: 0, Detectability: 0.5},
			now:       1000,
			configure: func(c *Config) { c.Downtime = 0 },
			size:      1, exec: 500, want: 1,
		},
		{
			name:      "a 120 s downtime widens the risk window over it",
			nodes:     1,
			foreseen:  failure.Event{Time: 940, Node: 0, Detectability: 0.5},
			now:       1000,
			configure: func(c *Config) { c.Downtime = 2 * units.Minute },
			size:      1, exec: 500, want: 0.5,
		},
		{
			name:      "fault-aware selection avoids the risky node",
			nodes:     4,
			foreseen:  failure.Event{Time: 500, Node: 0, Detectability: 0.4},
			configure: func(c *Config) { c.FaultAware = true },
			size:      2, exec: 1000, want: 1,
		},
		{
			name:      "first-fit quotes the risky node",
			nodes:     4,
			foreseen:  failure.Event{Time: 500, Node: 0, Detectability: 0.4},
			configure: func(c *Config) { c.FaultAware = false },
			size:      2, exec: 1000, want: 0.6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			quiet, err := failure.NewTrace(tc.nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen, err := failure.NewTrace(tc.nodes, []failure.Event{tc.foreseen})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(nil, quiet)
			cfg.Nodes = tc.nodes
			if cfg.Predictor, err = predict.NewTrace(seen, 1); err != nil {
				t.Fatal(err)
			}
			tc.configure(&cfg)
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AdvanceTo(tc.now); err != nil {
				t.Fatal(err)
			}
			qs := eng.Quotes(tc.size, tc.exec, 1)
			if len(qs) != 1 || qs[0].Success != tc.want {
				t.Fatalf("Quotes = %+v, want one quote with success %v", qs, tc.want)
			}
		})
	}
}

// TestEnginePlannedDuration pins E_j: the execution time plus one overhead
// C for every checkpoint request at I, 2I, ... strictly before the end.
func TestEnginePlannedDuration(t *testing.T) {
	cases := []struct {
		name   string
		params checkpoint.Params
		exec   units.Duration
		want   units.Duration
	}{
		{name: "zero", params: checkpoint.DefaultParams(), exec: 0, want: 0},
		{name: "under one interval", params: checkpoint.DefaultParams(), exec: 3600, want: 3600},
		{name: "just over", params: checkpoint.DefaultParams(), exec: 3601, want: 3601 + 720},
		{name: "two and a half intervals", params: checkpoint.DefaultParams(), exec: 9000, want: 9000 + 2*720},
		{name: "custom params", params: checkpoint.Params{Interval: 100, Overhead: 10}, exec: 250, want: 250 + 2*10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := failure.NewTrace(8, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(nil, tr)
			cfg.Nodes = 8
			cfg.Checkpoint = tc.params
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.PlannedDuration(tc.exec); got != tc.want {
				t.Fatalf("PlannedDuration(%v) = %v, want %v", tc.exec, got, tc.want)
			}
		})
	}
}

// TestAdmitCommitsReservation checks that an admitted quote holds its
// nodes: quoting the same request again lands after the first job's
// reservation, unless a second copy fits beside it on the 8-node cluster.
func TestAdmitCommitsReservation(t *testing.T) {
	cases := []struct {
		name      string
		size      int
		wantLater bool
	}{
		{name: "full-machine job: the copy waits", size: 8, wantLater: true},
		{name: "half-machine job: the copy fits beside it", size: 4, wantLater: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := edgeTestEngine(t)
			first := liveQuote(t, eng, tc.size)
			job := workload.Job{ID: 1, Arrival: eng.Now(), Nodes: tc.size, Exec: 1 * units.Hour}
			if err := eng.Admit(job, first, 1); err != nil {
				t.Fatal(err)
			}
			again := liveQuote(t, eng, tc.size)
			if later := again.Candidate.Start > first.Candidate.Start; later != tc.wantLater {
				t.Fatalf("second quote starts at %v, first at %v; want later = %v",
					again.Candidate.Start, first.Candidate.Start, tc.wantLater)
			}
		})
	}
}

// TestAdmitKeepsNoCallerNodes checks that the engine writes no node set it
// did not allocate: a failed admitted job is requeued onto other nodes in
// its own region of the node slab, and the quote the caller admitted, like
// every quote Quotes returned, keeps the nodes it had.
func TestAdmitKeepsNoCallerNodes(t *testing.T) {
	eng := edgeTestEngine(t)
	q := liveQuote(t, eng, 4)
	held := eng.Quotes(2, 1*units.Hour, 1)
	want, wantHeld := slices.Clone(q.Candidate.Nodes), slices.Clone(held[0].Candidate.Nodes)
	job := workload.Job{ID: 1, Arrival: eng.Now(), Nodes: 4, Exec: 1 * units.Hour}
	if err := eng.Admit(job, q, 1); err != nil {
		t.Fatal(err)
	}
	// Fail the job's first node: while it restarts, the requeue takes the
	// earliest four free nodes, which leave it out.
	at := eng.Now().Add(10 * units.Minute)
	if err := eng.InjectFailure(q.Candidate.Nodes[0], at); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(at.Add(1 * units.Minute)); err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Job(1); st.FailuresSuffered != 1 || st.Attempts != 2 {
		t.Fatalf("job after the failure = %+v, want one failure and a restart", st)
	}
	if !slices.Equal(q.Candidate.Nodes, want) || !slices.Equal(held[0].Candidate.Nodes, wantHeld) {
		t.Fatalf("caller's quotes now name nodes %v and %v, want %v and %v",
			q.Candidate.Nodes, held[0].Candidate.Nodes, want, wantHeld)
	}
	js := eng.slots[0]
	if slices.Equal(js.res.Nodes, want) {
		t.Fatalf("requeued job kept nodes %v; the test needs a move", js.res.Nodes)
	}
}
