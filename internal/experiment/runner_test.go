package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/table"
	"probqos/internal/workload"
)

// renderResults encodes RunAll output the way a caller would consume it:
// in input order, stopping at the first error. Byte-comparing two renderings
// is exactly the qossweep guarantee under test.
func renderResults(t *testing.T, results []RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Exp.ID, res.Err)
		}
		if err := enc.Encode(struct {
			ID     string         `json:"id"`
			Tables []*table.Table `json:"tables"`
		}{res.Exp.ID, res.Tables}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunAllByteIdenticalToSerial is the tentpole determinism gate: the same
// experiments through RunAll at one worker and at NumCPU workers (each from a
// fresh Env, so every memo is rebuilt under a different interleaving) must
// render byte-identically. Run it under -race to also exercise the point
// pool and the Env's memo cells for data races.
func TestRunAllByteIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario recomputation is not short")
	}
	byID := make(map[string]Experiment)
	for _, exp := range All() {
		byID[exp.ID] = exp
	}
	// The golden corpus plus fig1 — the ISSUE's named sweep — so the gate
	// covers both the memoized grids and the headline figure.
	var exps []Experiment
	for _, id := range append([]string{"fig1"}, goldenExperiments...) {
		exp, ok := byID[id]
		if !ok {
			t.Fatalf("experiment %q is not registered", id)
		}
		exps = append(exps, exp)
	}
	run := func(workers int) []byte {
		t.Helper()
		e := NewEnv()
		e.JobCount = goldenJobCount
		e.Seed = goldenSeed
		e.Workers = workers
		return renderResults(t, RunAll(e, exps))
	}
	serial := run(1)
	parallel := run(max(4, runtime.NumCPU()))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel RunAll diverged from serial:\nserial:   %d bytes\nparallel: %d bytes\n%s",
			len(serial), len(parallel), firstDiff(serial, parallel))
	}
}

// TestRunAllOrderAndErrors pins the contract qossweep depends on: results
// come back indexed like the input, and one experiment's failure leaves the
// others' results intact.
func TestRunAllOrderAndErrors(t *testing.T) {
	boom := errors.New("boom")
	mk := func(id string, tables []*table.Table, err error) Experiment {
		return Experiment{ID: id, Run: func(*Env) ([]*table.Table, error) {
			return tables, err
		}}
	}
	okTable := []*table.Table{table.New("ok", "col")}
	exps := []Experiment{
		mk("first", okTable, nil),
		mk("failing", nil, boom),
		mk("last", okTable, nil),
	}
	results := RunAll(NewEnv(), exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results, want %d", len(results), len(exps))
	}
	for i, res := range results {
		if res.Exp.ID != exps[i].ID {
			t.Errorf("result %d is %q, want %q", i, res.Exp.ID, exps[i].ID)
		}
	}
	if results[1].Err != boom {
		t.Errorf("failing experiment: Err = %v, want %v", results[1].Err, boom)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("sibling experiments inherited an error: %v, %v", results[0].Err, results[2].Err)
	}
	if len(results[2].Tables) != 1 {
		t.Errorf("experiment after the failure lost its tables: %v", results[2].Tables)
	}
}

// TestRunAllComputesEachDeclaredPointOnce runs overlapping experiments: the
// simulator runs once per distinct declared point, and Progress reports the
// total from its first call and ends at total/total without going back.
func TestRunAllComputesEachDeclaredPointOnce(t *testing.T) {
	var calls atomic.Int32
	stubSimRun(t, &calls, time.Millisecond)
	shared := PointSpec{Log: "NASA", A: 0.5, U: 0.5}
	mk := func(id string, points ...PointSpec) Experiment {
		return Experiment{ID: id, Points: points, Run: func(e *Env) ([]*table.Table, error) {
			_, err := e.reports(points)
			return nil, err
		}}
	}
	exps := []Experiment{
		mk("a", shared, PointSpec{Log: "NASA", A: 1, U: 0.5}),
		mk("b", shared, shared, PointSpec{Log: "NASA", A: 0.5, U: 0.5, Variant: "no-skip"}),
		mk("c", shared),
	}
	e := testEnv()
	e.Workers = 3
	var progress [][2]int
	e.Progress = func(done, total int) { progress = append(progress, [2]int{done, total}) }
	for _, res := range RunAll(e, exps) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Exp.ID, res.Err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("sim ran %d times for 3 distinct declared points, want 3", n)
	}
	if len(progress) != 4 {
		t.Fatalf("Progress called %d times, want 4 (start + one per point): %v", len(progress), progress)
	}
	for i, p := range progress {
		if p != [2]int{i, 3} {
			t.Errorf("Progress call %d = %v, want [%d 3]", i, p, i)
		}
	}
}

// TestDefaultClusterSizeSharesTheDefaultLog pins the log memo's key: the
// nodes-128 cluster-size variant asks the generator for its default cluster
// size, so it must replay the very SDSC log the full-system point replays
// instead of generating the same workload a second time.
func TestDefaultClusterSizeSharesTheDefaultLog(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []*workload.Log // the log each simulation replayed
	)
	old := simRun
	simRun = func(cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, cfg.Workload)
		return &sim.Result{}, nil
	}
	t.Cleanup(func() { simRun = old })

	def := PointSpec{Log: "SDSC", A: 0.5, U: 0.5}
	exps := []Experiment{
		{ID: "default-sdsc", Points: []PointSpec{def}, Run: func(e *Env) ([]*table.Table, error) {
			_, err := e.reports([]PointSpec{def})
			return nil, err
		}},
		sweepClusterSize(),
	}
	for _, res := range RunAll(testEnv(), exps) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Exp.ID, res.Err)
		}
	}
	if len(logs) != 1+len(clusterSizes) {
		t.Fatalf("%d simulations, want %d", len(logs), 1+len(clusterSizes))
	}
	distinct := make(map[*workload.Log]bool)
	for _, l := range logs {
		distinct[l] = true
	}
	if len(distinct) != len(clusterSizes) {
		t.Errorf("%d distinct logs generated for the default point and %d cluster sizes, want %d (the default size shared)",
			len(distinct), len(clusterSizes), len(clusterSizes))
	}
}

// TestRunDeclaresEveryPoint runs each registered experiment alone through
// RunAll with the simulator stubbed: once the parallel phase is over, Run
// must not trigger a single further simulation. A point Run reads without
// declaring it would otherwise run serially and silently slow the sweep.
func TestRunDeclaresEveryPoint(t *testing.T) {
	var calls atomic.Int32
	stubSimRun(t, &calls, 0)
	e := testEnv()
	for _, exp := range All() {
		// Only the points start empty for each experiment; the generated
		// logs and traces are shared.
		e.points = make(map[PointSpec]*memo[metrics.Report])
		run := exp.Run
		exp.Run = func(e *Env) ([]*table.Table, error) {
			before := calls.Load()
			tables, err := run(e)
			if n := calls.Load() - before; n != 0 {
				t.Errorf("%s: Run simulated %d undeclared points", exp.ID, n)
			}
			return tables, err
		}
		if res := RunAll(e, []Experiment{exp})[0]; res.Err != nil {
			t.Errorf("%s: %v", exp.ID, res.Err)
		}
	}
}

// TestRunAllEmpty pins the edge: no experiments, no goroutines, no panic.
func TestRunAllEmpty(t *testing.T) {
	if got := RunAll(NewEnv(), nil); len(got) != 0 {
		t.Fatalf("RunAll(nil) = %v, want empty", got)
	}
}
