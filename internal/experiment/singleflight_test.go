package experiment

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probqos/internal/health"
	"probqos/internal/sim"
)

// stubSimRun replaces the simulator with a counter that holds every call
// long enough that concurrent requests for the same point overlap unless
// the point's memo cell dedupes them.
func stubSimRun(t *testing.T, calls *atomic.Int32, hold time.Duration) {
	t.Helper()
	old := simRun
	simRun = func(cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		time.Sleep(hold)
		return &sim.Result{}, nil
	}
	t.Cleanup(func() { simRun = old })
}

// TestConcurrentPointsRunSimulationOnce pins the memo-cell contract: many
// concurrent Point calls for one key run the simulation once, and everyone
// gets the shared result.
func TestConcurrentPointsRunSimulationOnce(t *testing.T) {
	var calls atomic.Int32
	stubSimRun(t, &calls, 50*time.Millisecond)
	e := testEnv()

	const callers = 8
	var start, done sync.WaitGroup
	start.Add(callers)
	done.Add(callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			start.Wait() // release all callers at once
			_, errs[i] = e.Point("SDSC", 0.5, 0.5, "")
		}(i)
	}
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("sim ran %d times for one point under %d concurrent callers, want 1", n, callers)
	}
}

// TestSharedResourcesBuildOnce hammers the shared-resource memoizers with
// concurrent first callers: every caller must receive the same instance.
// Before the once-gating, each first caller built its own monitor/log/trace
// outside the mutex and the last writer won, so callers could hold an
// instance the cache later disagreed with (and the race detector flags the
// duplicated generator work touching shared state).
func TestSharedResourcesBuildOnce(t *testing.T) {
	e := testEnv()
	const callers = 4
	var wg sync.WaitGroup
	monitors := make([]*health.Monitor, callers)
	logs := make([]any, callers)
	traces := make([]any, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			m, err := e.Monitor()
			if err != nil {
				t.Errorf("Monitor: %v", err)
				return
			}
			monitors[i] = m
			l, err := e.inflatedLog("SDSC")
			if err != nil {
				t.Errorf("inflatedLog: %v", err)
				return
			}
			logs[i] = l
			tr, err := e.stochasticTrace("poisson-failures")
			if err != nil {
				t.Errorf("stochasticTrace: %v", err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if monitors[i] != monitors[0] {
			t.Errorf("caller %d got a different monitor instance", i)
		}
		if logs[i] != logs[0] {
			t.Errorf("caller %d got a different inflated log instance", i)
		}
		if traces[i] != traces[0] {
			t.Errorf("caller %d got a different stochastic trace instance", i)
		}
	}
}
