package metrics

import (
	"math"
	"reflect"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

func TestLedgerOfBinning(t *testing.T) {
	res := &sim.Result{
		ClusterNodes: 4,
		Jobs: []sim.JobRecord{
			{ID: 1, Nodes: 1, Exec: 100, Promised: 0.05, MetDeadline: false},
			{ID: 2, Nodes: 1, Exec: 100, Promised: 0.05, MetDeadline: true},
			{ID: 3, Nodes: 1, Exec: 100, Promised: 0.95, MetDeadline: true},
			{ID: 4, Nodes: 1, Exec: 100, Promised: 1.0, MetDeadline: true}, // closed top bin
		},
		End: 100,
	}
	st := LedgerOf(res, 10).Stats()
	if len(st.Bins) != 10 {
		t.Fatalf("bins = %d", len(st.Bins))
	}
	if st.Promises != 4 || st.Open != 0 || st.Kept != 3 || st.Broken != 1 {
		t.Errorf("counts = %+v", st)
	}
	lo := st.Bins[0]
	if lo.Settled != 2 || lo.Observed != 0.5 || math.Abs(lo.PromisedMean-0.05) > 1e-12 {
		t.Errorf("low bin = %+v", lo)
	}
	hi := st.Bins[9]
	if hi.Settled != 2 || hi.Observed != 1 {
		t.Errorf("high bin = %+v", hi)
	}
	var settled int
	for _, b := range st.Bins {
		settled += b.Settled
	}
	if settled != len(res.Jobs) {
		t.Errorf("bins hold %d promises, want %d", settled, len(res.Jobs))
	}
}

func TestLedgerOfDegenerate(t *testing.T) {
	// Unlike a bin count below 1 clamped to one bin, NewLedger reads 0 as
	// DefaultBins, and LedgerOf inherits that.
	for _, tc := range []struct {
		res  *sim.Result
		bins int
		want int
	}{
		{nil, 0, DefaultBins},
		{nil, 3, 3},
		{&sim.Result{}, 5, 5},
	} {
		st := LedgerOf(tc.res, tc.bins).Stats()
		if len(st.Bins) != tc.want {
			t.Errorf("LedgerOf(%v, %d): %d bins, want %d", tc.res, tc.bins, len(st.Bins), tc.want)
		}
		if st.Promises != 0 || st.Settled != 0 || st.KeepingRate != 0 {
			t.Errorf("LedgerOf(%v, %d) = %+v, want empty", tc.res, tc.bins, st)
		}
		for _, b := range st.Bins {
			if b.Settled != 0 || b.Observed != 0 || b.PromisedMean != 0 {
				t.Errorf("empty result bin = %+v", b)
			}
		}
	}
}

// TestLedgerOfDuplicateIDSettlesOnlyItsOwnRow: a repeated job ID is
// ignored as Admit ignores it; its outcome must not land on another row.
func TestLedgerOfDuplicateIDSettlesOnlyItsOwnRow(t *testing.T) {
	res := &sim.Result{Jobs: []sim.JobRecord{
		{ID: 1, Promised: 0.9, MetDeadline: true, Finish: 10},
		{ID: 2, Promised: 0.5, MetDeadline: true, Finish: 20},
		{ID: 1, Promised: 0.1, MetDeadline: false, Finish: 30},
		{ID: 3, Promised: 0.7, MetDeadline: false, Finish: 40},
	}}
	l := LedgerOf(res, 10)
	st := l.Stats()
	if st.Promises != 3 || st.Settled != 3 || st.Kept != 2 || st.Broken != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v, want 3 promises: 2 kept, 1 broken", st)
	}
	for _, want := range []Promise{
		{JobID: 1, Promised: 0.9, Outcome: OutcomeKept, SettledAt: 10},
		{JobID: 2, Promised: 0.5, Outcome: OutcomeKept, SettledAt: 20},
		{JobID: 3, Promised: 0.7, Outcome: OutcomeBroken, SettledAt: 40},
	} {
		got, ok := l.Lookup(want.JobID)
		if !ok || got.Promised != want.Promised || got.Outcome != want.Outcome || got.SettledAt != want.SettledAt {
			t.Errorf("job %d: %+v, want %+v", want.JobID, got, want)
		}
	}
	if b := st.Bins[1]; b.Settled != 0 {
		t.Errorf("the repeated row's promise 0.1 was filed: %+v", b)
	}
}

func TestConformanceWorst(t *testing.T) {
	st := ConformanceStats{Bins: []ConformanceBin{
		{Lo: 0.9, Settled: 10, PromisedMean: 0.9, Observed: 0.95}, // over-delivered
		{Lo: 0.8, Settled: 10, PromisedMean: 0.8, Observed: 0.6},  // short by 0.2
		{Lo: 0.1, Settled: 0, PromisedMean: 1, Observed: 0},       // empty: ignored
	}}
	if bin, short := st.Worst(); math.Abs(short-0.2) > 1e-12 || bin.Lo != 0.8 {
		t.Errorf("Worst = %+v, %v; want the 0.8 bin short by 0.2", bin, short)
	}
	if bin, short := (ConformanceStats{}).Worst(); short != 0 || bin != (ConformanceBin{}) {
		t.Errorf("Worst of no bins = %+v, %v", bin, short)
	}

	honest := ConformanceStats{Bins: []ConformanceBin{
		{Lo: 0.5, Settled: 4, PromisedMean: 0.5, Observed: 0.75},
		{Lo: 0.9, Settled: 8, PromisedMean: 0.9, Observed: 0.9},
	}}
	if bin, short := honest.Worst(); short != 0 || bin != (ConformanceBin{}) {
		t.Errorf("over-delivering diagram: Worst = %+v, %v; want 0 and no bin", bin, short)
	}

	tied := ConformanceStats{Bins: []ConformanceBin{
		{Lo: 0.3, Settled: 2, PromisedMean: 0.75, Observed: 0.5},
		{Lo: 0.6, Settled: 4, PromisedMean: 0.75, Observed: 0.5},
	}}
	if bin, short := tied.Worst(); short != 0.25 || bin.Lo != 0.3 {
		t.Errorf("tie: Worst = %+v, %v; want the first bin", bin, short)
	}
}

// TestLedgerOfMatchesLiveSettlement is the differential test of the two
// outcome rules: the offline ledger keys on JobRecord.MetDeadline, the live
// one on the engine's terminal JobCompleted state. Over a seeded run with
// failures and broken promises, both settle every job the same way.
func TestLedgerOfMatchesLiveSettlement(t *testing.T) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 300, Seed: 5})
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 5}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(log, tr)
	cfg.Accuracy = 0.5
	cfg.UserRisk = 0
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offline := LedgerOf(res, 10)

	// Drive the same run incrementally, as qosd does: file each job once
	// its arrival has been negotiated, settle after every clock advance.
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, whole := NewLedger(10), NewLedger(10)
	filed := 0
	for now := units.Time(0); filed < len(log.Jobs) || live.Open() > 0; now += units.Time(units.Hour) {
		if err := eng.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
		for ; filed < len(log.Jobs) && log.Jobs[filed].Arrival <= now; filed++ {
			js, _ := eng.Job(log.Jobs[filed].ID)
			live.Admit(js.ID, "", js.Promised, js.Deadline, now)
		}
		live.Settle(eng)
	}
	// A ledger filed after the run and settled in one sweep sums in log
	// order, so its floats match LedgerOf's bit for bit.
	for _, id := range eng.JobIDs() {
		js, _ := eng.Job(id)
		whole.Admit(id, "", js.Promised, js.Deadline, js.Arrival)
	}
	whole.Settle(eng)

	want := offline.Stats()
	if want.Kept == 0 || want.Broken == 0 {
		t.Fatalf("run keeps %d and breaks %d promises; the test needs both", want.Kept, want.Broken)
	}
	if got := whole.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("engine-settled ledger:\n%+v\nLedgerOf:\n%+v", got, want)
	}
	got := live.Stats()
	if got.Promises != want.Promises || got.Kept != want.Kept || got.Broken != want.Broken {
		t.Errorf("live ledger counts %+v, LedgerOf %+v", got, want)
	}
	for i, b := range got.Bins {
		w := want.Bins[i]
		if b.Settled != w.Settled || b.Observed != w.Observed || math.Abs(b.PromisedMean-w.PromisedMean) > 1e-12 {
			t.Errorf("bin %d: live %+v, LedgerOf %+v", i, b, w)
		}
	}
	for _, j := range res.Jobs {
		p, ok := live.Lookup(j.ID)
		if !ok || (p.Outcome == OutcomeKept) != j.MetDeadline {
			t.Errorf("job %d: live outcome %q, MetDeadline %v", j.ID, p.Outcome, j.MetDeadline)
		}
	}
}

func TestSystemPromisesAreMostlyHonestEndToEnd(t *testing.T) {
	// Run a real simulation and check the reliability diagram: the system
	// should not be badly overconfident in any promise range.
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 1500, Seed: 21})
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 21}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(log, tr)
	cfg.Accuracy = 0.8
	cfg.UserRisk = 0.5
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins := LedgerOf(res, 5).Stats().Bins
	for _, b := range bins {
		if b.Settled > 0 {
			t.Logf("promise %s: %d jobs, promised %.3f, observed %.3f",
				b.Label(), b.Settled, b.PromisedMean, b.Observed)
		}
	}
	// The deterministic predictor makes doomed-window promises possible
	// (a detectable failure *will* happen), so allow some slack, but the
	// top bin — where almost all work lives — must be close to honest.
	top := bins[len(bins)-1]
	if top.Settled == 0 {
		t.Fatal("no jobs in the top promise bin")
	}
	if top.PromisedMean-top.Observed > 0.12 {
		t.Errorf("top-bin overconfidence %.3f too large (promised %.3f, observed %.3f)",
			top.PromisedMean-top.Observed, top.PromisedMean, top.Observed)
	}
}
