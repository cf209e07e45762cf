package sim

import (
	"testing"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/stats"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// randomScenario builds a random small workload and failure trace from a
// seed. The job mix and failure density are deliberately hostile: tight
// windows, large jobs, frequent failures.
func randomScenario(seed int64) (*workload.Log, []failure.Event) {
	src := stats.NewSource(seed)
	nJobs := 20 + src.Intn(60)
	jobs := make([]workload.Job, nJobs)
	arrival := units.Time(0)
	for i := range jobs {
		arrival = arrival.Add(units.Duration(src.Intn(1800)))
		jobs[i] = workload.Job{
			ID:      i + 1,
			Arrival: arrival,
			Nodes:   1 + src.Intn(8),
			Exec:    units.Duration(60 + src.Intn(20000)),
		}
	}
	nFail := 5 + src.Intn(40)
	events := make([]failure.Event, nFail)
	for i := range events {
		events[i] = failure.Event{
			Time:          units.Time(src.Intn(400000)),
			Node:          src.Intn(8),
			Detectability: src.Float64(),
		}
	}
	return &workload.Log{Name: "random", Jobs: jobs}, events
}

// checkInvariants asserts the properties every completed run must satisfy.
func checkInvariants(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if len(res.Jobs) != len(cfg.Workload.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Jobs), len(cfg.Workload.Jobs))
	}
	for _, j := range res.Jobs {
		if j.FirstStart < j.Arrival {
			t.Fatalf("job %d started before arriving: %+v", j.ID, j)
		}
		if j.LastStart < j.FirstStart {
			t.Fatalf("job %d last start precedes first: %+v", j.ID, j)
		}
		// The final attempt runs uninterrupted: finish >= last start + the
		// remaining execution, and can exceed it only by checkpoint time.
		if j.Finish < j.LastStart {
			t.Fatalf("job %d finished before starting: %+v", j.ID, j)
		}
		if j.Promised < 0 || j.Promised > 1 {
			t.Fatalf("job %d promise out of range: %v", j.ID, j.Promised)
		}
		if j.MetDeadline != (j.Finish <= j.Deadline) {
			t.Fatalf("job %d deadline flag inconsistent: %+v", j.ID, j)
		}
		if j.Attempts != j.FailuresSuffered+1 {
			t.Fatalf("job %d attempts %d != failures %d + 1", j.ID, j.Attempts, j.FailuresSuffered)
		}
		// Failures are the only reason a deadline is missed (§4.3).
		if !j.MetDeadline && j.FailuresSuffered == 0 && j.StartSlips == 0 {
			t.Fatalf("job %d missed its deadline without failures or slips: %+v", j.ID, j)
		}
		if j.LostWork < 0 {
			t.Fatalf("job %d negative lost work", j.ID)
		}
		if j.FailuresSuffered == 0 && j.LostWork != 0 {
			t.Fatalf("job %d lost work without failures: %+v", j.ID, j)
		}
	}
	// Lost-work totals agree between the job and failure views.
	var fromJobs, fromFailures units.Work
	for _, j := range res.Jobs {
		fromJobs += j.LostWork
	}
	for _, f := range res.Failures {
		fromFailures += f.LostWork
		if f.JobID == 0 && f.LostWork != 0 {
			t.Fatalf("failure with no victim lost work: %+v", f)
		}
	}
	if fromJobs != fromFailures {
		t.Fatalf("lost work mismatch: jobs say %v, failures say %v", fromJobs, fromFailures)
	}
	if len(res.Failures) != cfg.Failures.Len() {
		t.Fatalf("processed %d failures, trace has %d", len(res.Failures), cfg.Failures.Len())
	}
}

func TestInvariantsUnderRandomFailureInjection(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		log, events := randomScenario(seed)
		tr, err := failure.NewTrace(8, events)
		if err != nil {
			t.Fatal(err)
		}
		for _, point := range []struct {
			a, u float64
		}{{0, 0}, {0.5, 0.5}, {1, 0.9}} {
			cfg := DefaultConfig(log, tr)
			cfg.Nodes = 8
			cfg.Accuracy = point.a
			cfg.UserRisk = point.u
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d a=%v u=%v: %v", seed, point.a, point.u, err)
			}
			checkInvariants(t, cfg, res)
		}
	}
}

// TestEndIndexHoldsEveryStep checks the scheduler profile's end index
// after every engine step of random runs. The engine holds each job's
// reservation and hands it back on every slip, finish and failure, so a
// reservation it let go stale (a slipped start not written back, say)
// would uncount the wrong end. The overlap check cannot run here: a slip
// legitimately overlaps the next reservation until its start resolves it.
func TestEndIndexHoldsEveryStep(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		log, events := randomScenario(seed)
		tr, err := failure.NewTrace(8, events)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(log, tr)
		cfg.Nodes = 8
		cfg.Accuracy = 0.3
		cfg.UserRisk = 0.5
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; e.queue.len() > 0; step++ {
			if err := e.step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := e.scheduler.ValidateEnds(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

func TestInvariantsAcrossPolicies(t *testing.T) {
	log, events := randomScenario(99)
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []checkpoint.Policy{
		checkpoint.RiskBased{}, checkpoint.Periodic{}, checkpoint.Never{},
	} {
		cfg := DefaultConfig(log, tr)
		cfg.Nodes = 8
		cfg.Accuracy = 0.6
		cfg.UserRisk = 0.4
		cfg.Policy = policy
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("policy %s: %v", policy.Name(), err)
		}
		checkInvariants(t, cfg, res)
	}
}

func TestInvariantsWithVariantsDisabled(t *testing.T) {
	log, events := randomScenario(7)
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FaultAware = false },
		func(c *Config) { c.Negotiate = false },
		func(c *Config) { c.DeadlineSkip = false },
		func(c *Config) { c.BaseRateFloor = false },
		func(c *Config) { c.Downtime = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(log, tr)
		cfg.Nodes = 8
		cfg.Accuracy = 0.7
		cfg.UserRisk = 0.6
		mutate(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		checkInvariants(t, cfg, res)
	}
}

func TestHeavyFailureStorm(t *testing.T) {
	// Every node fails every ~2000 s: pathological, but the simulator must
	// still terminate with consistent accounting.
	var events []failure.Event
	src := stats.NewSource(123)
	for tm := int64(1000); tm < 200000; tm += 500 + int64(src.Intn(3000)) {
		events = append(events, failure.Event{
			Time: units.Time(tm), Node: src.Intn(8), Detectability: src.Float64(),
		})
	}
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 8, Exec: 30000},
		{ID: 2, Arrival: 100, Nodes: 4, Exec: 20000},
		{ID: 3, Arrival: 200, Nodes: 2, Exec: 10000},
	}
	cfg := DefaultConfig(&workload.Log{Name: "storm", Jobs: jobs}, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 0.3
	cfg.UserRisk = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, cfg, res)
	if res.JobFailures() == 0 {
		t.Error("the storm should have killed at least one attempt")
	}
}

func TestEmptyFailureTrace(t *testing.T) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := randomScenario(5)
	cfg := DefaultConfig(log, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 1
	cfg.UserRisk = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, cfg, res)
	for _, j := range res.Jobs {
		if !j.MetDeadline || j.Promised != 1 {
			t.Fatalf("with no failures every promise is 1 and kept: %+v", j)
		}
	}
}

func TestInvariantsWithPredictionHorizon(t *testing.T) {
	log, events := randomScenario(17)
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(log, tr)
	cfg.Nodes = 8
	cfg.Accuracy = 0.8
	cfg.UserRisk = 0.7
	cfg.PredictionHalfLife = 6 * units.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, cfg, res)

	bad := cfg
	bad.PredictionHalfLife = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative half-life must fail validation")
	}
}
