package sim

import (
	"slices"
	"testing"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// smallConfig builds a runnable config over an 8-node cluster.
func smallConfig(t *testing.T, jobs []workload.Job, events []failure.Event) Config {
	t.Helper()
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(&workload.Log{Name: "test", Jobs: jobs}, tr)
	cfg.Nodes = 8
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config must fail validation")
	}
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(&workload.Log{Jobs: []workload.Job{{ID: 1, Nodes: 4, Exec: 100}}}, tr)
	cfg.Nodes = 16 // mismatch with trace
	if _, err := Run(cfg); err == nil {
		t.Error("node-count mismatch must fail validation")
	}
	for _, bad := range []func(*Config){
		func(c *Config) { c.Accuracy = 1.5 },
		func(c *Config) { c.UserRisk = -0.1 },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Downtime = -5 },
	} {
		cfg := DefaultConfig(&workload.Log{Jobs: []workload.Job{{ID: 1, Nodes: 4, Exec: 100}}}, tr)
		cfg.Nodes = 8
		bad(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Error("invalid config accepted")
		}
	}
}

// TestRunErrorsUnchanged pins Run's error texts for an empty log and for an
// invalid job: Run checks only that there are jobs and leaves every other
// check, the log's included, to NewEngine.
func TestRunErrorsUnchanged(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		log  *workload.Log
		want string
	}{
		{"nil log", nil, "sim: config needs a non-empty workload"},
		{"empty log", &workload.Log{Name: "empty"}, "sim: config needs a non-empty workload"},
		{"too wide job", &workload.Log{Jobs: []workload.Job{{ID: 1, Nodes: 9, Exec: 100}}},
			"workload: job 1 needs 9 nodes but the cluster has 8"},
		{"zero-exec job", &workload.Log{Jobs: []workload.Job{{ID: 1, Nodes: 4, Exec: 0}}},
			"workload: job 1 has non-positive runtime 0"},
	} {
		cfg := DefaultConfig(tt.log, tr)
		cfg.Nodes = 8
		if _, err := Run(cfg); err == nil || err.Error() != tt.want {
			t.Errorf("%s: Run error = %v, want %q", tt.name, err, tt.want)
		}
	}
}

// TestResultJobsInLogOrder pins Result.Jobs to workload-log order on a log
// whose IDs do not ascend.
func TestResultJobsInLogOrder(t *testing.T) {
	cfg := smallConfig(t, []workload.Job{
		{ID: 5, Arrival: 0, Nodes: 2, Exec: 300},
		{ID: 3, Arrival: 10, Nodes: 4, Exec: 200},
		{ID: 9, Arrival: 20, Nodes: 8, Exec: 100},
	}, nil)
	res := run(t, cfg)
	var ids []int
	for _, j := range res.Jobs {
		ids = append(ids, j.ID)
	}
	if want := []int{5, 3, 9}; !slices.Equal(ids, want) {
		t.Errorf("Result.Jobs IDs = %v, want %v", ids, want)
	}
	for i, j := range res.Jobs {
		if src := cfg.Workload.Jobs[i]; j.Arrival != src.Arrival || j.Nodes != src.Nodes || j.Exec != src.Exec {
			t.Errorf("record %d = %+v, does not describe log job %+v", i, j, src)
		}
	}
}

func TestSingleJobNoFailures(t *testing.T) {
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 10, Nodes: 4, Exec: 500}}, nil)
	res := run(t, cfg)
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	j := res.Jobs[0]
	// Exec 500 < I: no checkpoints, finish = start + exec.
	if j.FirstStart != 10 || j.Finish != 510 {
		t.Errorf("start=%v finish=%v, want 10/510", j.FirstStart, j.Finish)
	}
	if !j.MetDeadline || j.Deadline != 510 || j.Promised != 1 {
		t.Errorf("deadline record = %+v", j)
	}
	if j.Attempts != 1 || j.CheckpointsDone != 0 || j.LostWork != 0 {
		t.Errorf("counters = %+v", j)
	}
	if res.Span() != 500 {
		t.Errorf("span = %v, want 500", res.Span())
	}
}

func TestPeriodicCheckpointingTimeline(t *testing.T) {
	// Exec = 2.5 intervals: requests at +3600 and +7200 of progress.
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 9000}}, nil)
	cfg.Policy = checkpoint.Periodic{}
	res := run(t, cfg)
	j := res.Jobs[0]
	if j.CheckpointsDone != 2 || j.CheckpointsSkipped != 0 {
		t.Fatalf("checkpoints = %d done, %d skipped; want 2/0", j.CheckpointsDone, j.CheckpointsSkipped)
	}
	// Finish = 9000 exec + 2*720 overhead.
	if want := units.Time(9000 + 2*720); j.Finish != want {
		t.Errorf("finish = %v, want %v", j.Finish, want)
	}
	if j.CheckpointOverheads != 1440 {
		t.Errorf("overheads = %v, want 1440", j.CheckpointOverheads)
	}
	// The deadline was quoted assuming all checkpoints run, so it is met.
	if !j.MetDeadline {
		t.Error("deadline should be met")
	}
}

func TestRiskBasedSkipsWithoutPrediction(t *testing.T) {
	// No failures in the trace: pf = 0 everywhere, Equation 1 skips all.
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 9000}}, nil)
	res := run(t, cfg)
	j := res.Jobs[0]
	if j.CheckpointsDone != 0 || j.CheckpointsSkipped != 2 {
		t.Fatalf("checkpoints = %d done, %d skipped; want 0/2", j.CheckpointsDone, j.CheckpointsSkipped)
	}
	if j.Finish != 9000 {
		t.Errorf("finish = %v, want 9000 (no overheads paid)", j.Finish)
	}
}

func TestFailureRollsBackToLastCheckpoint(t *testing.T) {
	// Periodic checkpointing; failure lands mid-third-interval.
	// Timeline: req@3600, ckpt [3600,4320), req@7920 (3600 progress later),
	// ckpt [7920,8640), failure at 9000.
	events := []failure.Event{{Time: 9000, Node: 0, Detectability: 0.5}}
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 8, Exec: 10000}}, events)
	cfg.Policy = checkpoint.Periodic{}
	cfg.Accuracy = 0 // failure invisible to the predictor
	res := run(t, cfg)
	j := res.Jobs[0]
	if j.FailuresSuffered != 1 || j.Attempts != 2 {
		t.Fatalf("attempts=%d failures=%d, want 2/1", j.Attempts, j.FailuresSuffered)
	}
	// Lost work: from the last completed checkpoint's start (7920) to the
	// failure (9000) on 8 nodes.
	if want := units.WorkFor(8, 9000-7920); j.LostWork != want {
		t.Errorf("lost work = %v, want %v", j.LostWork, want)
	}
	if res.TotalLostWork() != j.LostWork {
		t.Errorf("result lost work = %v", res.TotalLostWork())
	}
	if res.JobFailures() != 1 {
		t.Errorf("job failures = %d", res.JobFailures())
	}
	// The job resumes from 7200 progress (checkpointed at request 2): it
	// still owes 2800 exec. It restarts after the 120 s downtime.
	if j.LastStart < 9000+120 {
		t.Errorf("last start = %v, want >= 9120", j.LastStart)
	}
	if j.MetDeadline {
		t.Error("the failure must cost the deadline")
	}
	if !res.Jobs[0].MetDeadline == j.MetDeadline && j.Finish <= j.Deadline {
		t.Error("inconsistent deadline accounting")
	}
}

func TestFailureWithoutCheckpointLosesEverything(t *testing.T) {
	events := []failure.Event{{Time: 5000, Node: 0, Detectability: 0.9}}
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 8, Exec: 9000}}, events)
	cfg.Accuracy = 0 // risk-based skips everything, failure invisible
	res := run(t, cfg)
	j := res.Jobs[0]
	if want := units.WorkFor(8, 5000); j.LostWork != want {
		t.Errorf("lost work = %v, want %v (rollback to start)", j.LostWork, want)
	}
	// Restart redoes the full 9000 s of work.
	if want := units.Time(5000 + 120 + 9000); j.Finish != want {
		t.Errorf("finish = %v, want %v", j.Finish, want)
	}
}

func TestPerfectPredictionAvoidsFailure(t *testing.T) {
	// One detectable failure on node 0; the job needs 4 of 8 nodes, so the
	// fault-aware scheduler simply avoids node 0 and nothing is lost.
	events := []failure.Event{{Time: 1000, Node: 0, Detectability: 0.5}}
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 4, Exec: 3000}}, events)
	cfg.Accuracy = 1
	cfg.UserRisk = 0.9
	res := run(t, cfg)
	j := res.Jobs[0]
	if j.FailuresSuffered != 0 || !j.MetDeadline || j.Promised != 1 {
		t.Errorf("job = %+v, want clean run with p=1", j)
	}
	if res.TotalLostWork() != 0 {
		t.Errorf("lost work = %v", res.TotalLostWork())
	}
}

func TestNegotiationDefersFullMachineJob(t *testing.T) {
	// The job needs all 8 nodes and a failure is predicted mid-run. A
	// demanding user waits; an indifferent one goes first and fails.
	events := []failure.Event{{Time: 1000, Node: 3, Detectability: 0.4}}
	jobs := []workload.Job{{ID: 1, Arrival: 0, Nodes: 8, Exec: 3000}}

	eager := smallConfig(t, jobs, events)
	eager.Accuracy = 1
	eager.UserRisk = 0.1
	eagerRes := run(t, eager)
	if eagerRes.Jobs[0].FailuresSuffered != 1 {
		t.Errorf("eager user should hit the failure: %+v", eagerRes.Jobs[0])
	}
	if eagerRes.Jobs[0].Promised != 0.6 {
		t.Errorf("eager promise = %v, want 0.6", eagerRes.Jobs[0].Promised)
	}

	careful := smallConfig(t, jobs, events)
	careful.Accuracy = 1
	careful.UserRisk = 0.9
	carefulRes := run(t, careful)
	j := carefulRes.Jobs[0]
	if j.FailuresSuffered != 0 || !j.MetDeadline {
		t.Errorf("careful user should dodge the failure: %+v", j)
	}
	if j.FirstStart <= 1000 {
		t.Errorf("careful start = %v, want after the predicted failure", j.FirstStart)
	}
	if j.Quotes < 2 {
		t.Errorf("careful user accepted after %d quotes, want renegotiation", j.Quotes)
	}
}

func TestDeadlineSkipSavesDeadlineAfterSlip(t *testing.T) {
	// Job 2 is reserved behind job 1. An undetectable failure just before
	// job 2's start kills job 1 AND knocks a node down past t=1000, so job
	// 2's start slips by up to 120 s. Skipping one checkpoint (720 s)
	// recovers the slip, saving job 2's deadline.
	events := []failure.Event{{Time: 950, Node: 3, Detectability: 0.99}}
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 8, Exec: 1000},
		{ID: 2, Arrival: 10, Nodes: 8, Exec: 5000},
	}
	cfg := smallConfig(t, jobs, events)
	cfg.Accuracy = 0.5 // px=0.99 > a: invisible, no warning in the quote
	cfg.Policy = checkpoint.Periodic{}
	res := run(t, cfg)
	var j JobRecord
	for _, r := range res.Jobs {
		if r.ID == 2 {
			j = r
		}
	}
	if j.StartSlips == 0 {
		t.Fatalf("expected a start slip: %+v", j)
	}
	if !j.MetDeadline {
		t.Errorf("deadline skip should have saved the deadline: %+v", j)
	}
	if j.DeadlineSkips == 0 {
		t.Errorf("expected a deadline-driven skip: %+v", j)
	}

	// Without the deadline rule the slip costs the deadline.
	rigid := smallConfig(t, jobs, events)
	rigid.Accuracy = 0.5
	rigid.Policy = checkpoint.Periodic{}
	rigid.DeadlineSkip = false
	rigidRes := run(t, rigid)
	for _, r := range rigidRes.Jobs {
		if r.ID == 2 && r.MetDeadline {
			t.Errorf("without deadline skips the deadline should be missed: %+v", r)
		}
	}
}

func TestFCFSWithBackfilling(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 8, Exec: 1000},  // takes the machine
		{ID: 2, Arrival: 10, Nodes: 8, Exec: 1000}, // must wait for 1
		{ID: 3, Arrival: 20, Nodes: 2, Exec: 100},  // too wide to backfill? no: fits nothing free
	}
	cfg := smallConfig(t, jobs, nil)
	res := run(t, cfg)
	byID := make(map[int]JobRecord)
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID[1].FirstStart != 0 {
		t.Errorf("job 1 start = %v", byID[1].FirstStart)
	}
	if byID[2].FirstStart != 1000 {
		t.Errorf("job 2 start = %v, want 1000", byID[2].FirstStart)
	}
	// Job 3 cannot run before job 2 finishes (no free nodes until then).
	if byID[3].FirstStart != 2000 {
		t.Errorf("job 3 start = %v, want 2000", byID[3].FirstStart)
	}

	// With a narrow job 2, job 3 backfills into the leftover nodes.
	jobs[1].Nodes = 4
	cfg2 := smallConfig(t, jobs, nil)
	res2 := run(t, cfg2)
	for _, j := range res2.Jobs {
		if j.ID == 3 && j.FirstStart != 1000 {
			t.Errorf("narrow job 3 start = %v, want 1000 (backfilled)", j.FirstStart)
		}
	}
}

func TestAllJobsComplete(t *testing.T) {
	log := workload.GenerateNASA(workload.GenConfig{Jobs: 300, Seed: 7, ClusterNodes: 8, Load: 0.6})
	// Scale sizes down to the 8-node test cluster.
	for i := range log.Jobs {
		if log.Jobs[i].Nodes > 8 {
			log.Jobs[i].Nodes = 8
		}
	}
	tr, err := failure.GenerateTrace(failure.RawConfig{Nodes: 8, Episodes: 40, Span: 60 * units.Day, Seed: 3}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(log, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 0.7
	cfg.UserRisk = 0.5
	res := run(t, cfg)
	if len(res.Jobs) != 300 {
		t.Fatalf("completed %d jobs, want 300", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Finish < j.FirstStart || j.FirstStart < j.Arrival {
			t.Fatalf("job %d has impossible timeline: %+v", j.ID, j)
		}
		if j.Promised < 0 || j.Promised > 1 {
			t.Fatalf("job %d promise out of range: %v", j.ID, j.Promised)
		}
		// Equation 3: accepted promise meets U unless negotiation was
		// bypassed.
		if j.Promised < cfg.UserRisk {
			t.Fatalf("job %d promised %v < U=%v", j.ID, j.Promised, cfg.UserRisk)
		}
	}
}

func TestDeterminism(t *testing.T) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 150, Seed: 1, ClusterNodes: 8})
	for i := range log.Jobs {
		if log.Jobs[i].Nodes > 8 {
			log.Jobs[i].Nodes = 8
		}
	}
	tr, err := failure.GenerateTrace(failure.RawConfig{Nodes: 8, Episodes: 30, Span: 120 * units.Day, Seed: 9}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(log, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 0.6
	cfg.UserRisk = 0.7
	a := run(t, cfg)
	b := run(t, cfg)
	if a.EventsProcessed != b.EventsProcessed || len(a.Jobs) != len(b.Jobs) {
		t.Fatal("runs differ in shape")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job record %d differs:\n%+v\n%+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestObserverReceivesJournal(t *testing.T) {
	probe := &journalProbe{}
	cfg := smallConfig(t,
		[]workload.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 5000}},
		[]failure.Event{{Time: 100000, Node: 7, Detectability: 0.5}},
	)
	cfg.Policy = checkpoint.Periodic{}
	cfg.Probe = probe
	run(t, cfg)
	kinds := make(map[string]int)
	for _, n := range probe.notes {
		kinds[n.Kind]++
	}
	for _, want := range []string{"arrival", "start", "checkpoint-request", "checkpoint-finish", "finish", "failure", "recovery"} {
		if kinds[want] == 0 {
			t.Errorf("journal missing %q events: %v", want, kinds)
		}
	}
}

func TestOccupancyAccounting(t *testing.T) {
	// One 2-node job, 9000 s exec, periodic checkpointing: occupancy is
	// exec + 2 checkpoints of overhead, times 2 nodes.
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 2, Exec: 9000}}, nil)
	cfg.Policy = checkpoint.Periodic{}
	res := run(t, cfg)
	if want := units.WorkFor(2, 9000+2*720); res.BusyNodeSeconds != want {
		t.Errorf("busy node-seconds = %v, want %v", res.BusyNodeSeconds, want)
	}
	if f := res.OccupiedFraction(); f <= 0 || f > 1 {
		t.Errorf("occupied fraction = %v", f)
	}
}

func TestOccupancyIncludesLostAttempts(t *testing.T) {
	// A failure forces a rerun: raw occupancy counts both attempts, while
	// the useful-work numerator counts the job once.
	events := []failure.Event{{Time: 5000, Node: 0, Detectability: 0.9}}
	cfg := smallConfig(t, []workload.Job{{ID: 1, Arrival: 0, Nodes: 8, Exec: 9000}}, events)
	cfg.Accuracy = 0
	res := run(t, cfg)
	// Attempt 1: [0, 5000) on 8 nodes; attempt 2: [5120, 14120) on 8.
	if want := units.WorkFor(8, 5000+9000); res.BusyNodeSeconds != want {
		t.Errorf("busy node-seconds = %v, want %v", res.BusyNodeSeconds, want)
	}
	useful := units.WorkFor(8, 9000)
	if res.BusyNodeSeconds <= useful {
		t.Error("occupancy must exceed useful work after a failure")
	}
}
