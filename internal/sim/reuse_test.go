package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"probqos/internal/failure"
	"probqos/internal/stats"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// reuseCases returns n seeded configurations that vary what sizes a run's
// working set and what paths it takes: the SDSC and NASA logs, clusters
// of 64, 128 and 256 nodes, 50 to 1 000 jobs, fault-aware placement and
// negotiation on and off, the base-rate floor, and prediction decay.
// Consecutive cases differ in cluster size and log length, so a run that
// reuses the previous run's working set grows it or leaves part unused.
func reuseCases(t testing.TB, n int) []Config {
	t.Helper()
	sizes := []int{64, 256, 128}
	traces := make(map[int]*failure.Trace, len(sizes))
	for _, nodes := range sizes {
		tr, err := failure.GenerateTrace(failure.RawConfig{
			Nodes: nodes, Span: 120 * units.Day, Episodes: 400, NoisePerNodePerDay: 0.1, Seed: int64(nodes),
		}, failure.FilterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		traces[nodes] = tr
	}
	cases := make([]Config, n)
	for i := range cases {
		src := stats.NewSource(int64(i))
		nodes := sizes[i%len(sizes)]
		gen := workload.GenConfig{Jobs: 50 + src.Intn(951), Seed: int64(i), ClusterNodes: nodes}
		log := workload.GenerateSDSC(gen)
		if i%2 == 1 {
			log = workload.GenerateNASA(gen)
		}
		cfg := DefaultConfig(log, traces[nodes])
		cfg.Nodes = nodes
		cfg.Accuracy = float64(src.Intn(11)) / 10
		cfg.UserRisk = float64(src.Intn(10)) / 10
		cfg.FaultAware = src.Intn(4) != 0
		cfg.Negotiate = src.Intn(4) != 0
		cfg.BaseRateFloor = src.Intn(3) != 0
		if src.Intn(3) == 0 {
			cfg.PredictionHalfLife = units.Duration(1+src.Intn(48)) * units.Hour
		}
		cases[i] = cfg
	}
	return cases
}

// TestRunReuseEqualsFresh is the differential test of Run's pooled working
// set: every case's result must equal, field for field, the result of an
// engine allocated afresh for it. Run serially, each run takes the engine
// the run before it returned; run from two goroutines, the engines are
// handed between cases in whatever order the pool serves them. Under the
// race detector the pool drops engines at random, so both the fresh and
// the reused path run.
func TestRunReuseEqualsFresh(t *testing.T) {
	cases := reuseCases(t, 42)
	want := make([]*Result, len(cases))
	for i, cfg := range cases {
		res, err := new(Engine).run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want[i] = res
	}
	check := func(how string, i int, got *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s case %d: %v", how, i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s case %d (%d nodes, %d jobs): pooled result differs from a fresh engine's",
				how, i, cases[i].Nodes, len(cases[i].Workload.Jobs))
		}
	}
	for i, cfg := range cases {
		got, err := Run(cfg)
		check("serial", i, got, err)
	}

	got := make([]*Result, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cases); i += 2 {
				got[i], errs[i] = Run(cases[i])
			}
		}()
	}
	wg.Wait()
	for i := range cases {
		check("parallel", i, got[i], errs[i])
	}
}

// TestRunResultOutlivesItsEngine checks that a Result shares nothing with
// the engine that produced it: the records stay exactly as returned while
// the engine serves later runs, and once the engine is back in the pool,
// dropping the Result frees them although the engine lives on.
func TestRunResultOutlivesItsEngine(t *testing.T) {
	cases := reuseCases(t, 6)
	// The first run is the largest, so the later, smaller runs leave part
	// of its job states unused: a state still pointing at a record would
	// pin the records for as long as the engine lives.
	big := cases[0]
	big.Workload = workload.GenerateSDSC(workload.GenConfig{Jobs: 1000, Seed: 99, ClusterNodes: big.Nodes})
	small := func(i int) Config {
		cfg := cases[1+i%(len(cases)-1)]
		cfg.Workload = &workload.Log{Name: "head", Jobs: cfg.Workload.Jobs[:50]}
		return cfg
	}

	// The test holds the engine itself, so that the pool's own behaviour
	// (a collection empties it; a goroutine that moves to another P finds
	// another P's engines) cannot hide what the engine points at.
	e := new(Engine)
	kept, err := e.run(big)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprintf("%+v", *kept)
	for i := range 5 {
		if _, err := e.run(small(i)); err != nil {
			t.Fatal(err)
		}
	}
	if after := fmt.Sprintf("%+v", *kept); after != before {
		t.Fatal("a kept Result changed while later runs reused its engine")
	}

	freed := make(chan struct{})
	func() {
		res, err := e.run(big)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&res.Jobs[0], func(*JobRecord) { close(freed) })
	}()
	e.recycle() // as Run does on return
	for i := range 20 {
		if _, err := Run(small(i)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped Result's records were never freed: its recycled engine still points at them")
}
