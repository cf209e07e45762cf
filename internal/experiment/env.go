// Package experiment defines the paper's evaluation: one experiment per
// table and figure (Table 1, Table 2, Figures 1-12), the headline-numbers
// summary, and the ablations of DESIGN.md §6. cmd/qossweep and the
// benchmark harness both execute these definitions, so the CLI output and
// the bench output are the same rows the paper reports.
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/health"
	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// simRun indirects sim.Run so tests can count or stub point computations.
var simRun = sim.Run

// Env carries the shared inputs (workloads, failure trace) and memoizes
// simulation points, since the figures share many (log, a, U) runs.
// An Env is safe for concurrent use.
type Env struct {
	// JobCount scales the workloads; 0 means the paper's 10,000 jobs.
	JobCount int
	// Seed selects the synthetic trace streams.
	Seed int64
	// Workers bounds parallel point evaluation; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, observes sweep progress: it is called with the
	// cumulative number of points computed and the cumulative number queued
	// so far (the total grows as experiments prefetch their grids). Calls
	// may come from concurrent workers. Set it before running experiments.
	Progress func(done, queued int)

	// sem bounds concurrently *running* simulations across every caller —
	// Prefetch pools, direct Point calls, custom runs, and RunAll's
	// experiment workers — so stacked parallelism (experiments × points)
	// cannot oversubscribe the machine. Sized to workers() on first use;
	// set Workers before the first simulation runs.
	semOnce sync.Once
	sem     chan struct{}

	mu             sync.Mutex
	progressDone   int
	progressQueued int
	logs           map[string]*memo[*workload.Log]
	traceMemo      memo[*failure.Trace]
	altTraces      map[string]*memo[*failure.Trace]
	monitorMemo    memo[*health.Monitor]
	points         map[pointKey]metrics.Report
	inflight       map[pointKey]*inflightPoint
}

type pointKey struct {
	log     string
	a, u    float64
	variant string
}

// memo gates one expensive shared resource behind a sync.Once so concurrent
// first callers build it exactly once and everyone waits on the same build
// instead of racing to be the last writer. A failed build is memoized too:
// these generators fail only on invalid configuration, which retrying
// cannot fix.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(build func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = build() })
	return m.val, m.err
}

// inflightPoint is one simulation point being computed right now: waiters
// block on done instead of recomputing. The fields are written only by the
// owner before it closes done.
type inflightPoint struct {
	done chan struct{}
	r    metrics.Report
	err  error
}

// errAbandoned marks an inflight point whose owning Prefetch aborted before
// computing it; waiters claim the key and compute it themselves.
var errAbandoned = errors.New("experiment: inflight point abandoned")

// NewEnv returns an Env at the paper's full scale.
func NewEnv() *Env {
	return &Env{
		logs:      make(map[string]*memo[*workload.Log]),
		altTraces: make(map[string]*memo[*failure.Trace]),
		points:    make(map[pointKey]metrics.Report),
		inflight:  make(map[pointKey]*inflightPoint),
	}
}

func (e *Env) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquireSim claims one machine-wide simulation slot and returns its
// release. Hold the slot only around the simulation itself — never while
// blocking on a memo or an inflight point, so slot holders always make
// progress and the semaphore cannot deadlock.
func (e *Env) acquireSim() func() {
	e.semOnce.Do(func() { e.sem = make(chan struct{}, e.workers()) })
	e.sem <- struct{}{}
	return func() { <-e.sem }
}

// logMemo returns the memo cell for a workload key, creating it on first
// use. Only the map access holds the mutex; generation runs outside it so
// workers building different logs do not serialize.
func (e *Env) logMemo(key string) *memo[*workload.Log] {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.logs[key]
	if !ok {
		m = &memo[*workload.Log]{}
		e.logs[key] = m
	}
	return m
}

// Log returns the named synthetic workload, generating it on first use.
func (e *Env) Log(name string) (*workload.Log, error) {
	return e.logMemo(name).get(func() (*workload.Log, error) {
		return workload.Generate(name, workload.GenConfig{Jobs: e.JobCount, Seed: e.Seed})
	})
}

// Trace returns the shared failure trace, generating it on first use.
func (e *Env) Trace() (*failure.Trace, error) {
	return e.traceMemo.get(func() (*failure.Trace, error) {
		return failure.GenerateTrace(failure.RawConfig{Seed: e.Seed}, failure.FilterConfig{})
	})
}

// Variants are the named configuration ablations. The empty name is the
// full system.
var variants = map[string]func(*sim.Config){
	"":              nil,
	"first-fit":     func(c *sim.Config) { c.FaultAware = false },
	"no-skip":       func(c *sim.Config) { c.DeadlineSkip = false },
	"no-negotiate":  func(c *sim.Config) { c.Negotiate = false },
	"pure-forecast": func(c *sim.Config) { c.BaseRateFloor = false },
	"periodic":      func(c *sim.Config) { c.Policy = checkpoint.Periodic{} },
	"no-checkpoint": func(c *sim.Config) { c.Policy = checkpoint.Never{} },
	// Failure-model variants swap the failure trace itself (handled in
	// compute, not by mutating the config): the stochastic-model follow-up
	// study the paper suggests.
	"poisson-failures": nil,
	"weibull-failures": nil,
	// Horizon variants degrade prediction accuracy with forecast distance
	// (§3.3: "predictions are less accurate as they stretch further into
	// the future").
	"horizon-6h":  func(c *sim.Config) { c.PredictionHalfLife = 6 * units.Hour },
	"horizon-48h": func(c *sim.Config) { c.PredictionHalfLife = 48 * units.Hour },
	// inflated-estimates swaps the workload for one whose users
	// overestimate runtimes ~1.8x on average (§3.3 notes exact estimates
	// are "not always true in practice"). Handled in compute.
	"inflated-estimates": nil,
	// monitor-predictor replaces the idealized trace predictor with the
	// working health monitor built from telemetry and precursor events
	// (§3.1/§3.2). Handled in compute.
	"monitor-predictor": nil,
}

// Monitor returns the shared health-monitoring predictor, building the raw
// log and telemetry on first use. The raw log uses the same configuration
// as Trace(), so the monitor's ground truth is the trace the simulator
// replays. Concurrent first callers share one build: the generation used to
// run outside the mutex, so each caller built its own monitor and the last
// writer won.
func (e *Env) Monitor() (*health.Monitor, error) {
	return e.monitorMemo.get(func() (*health.Monitor, error) {
		raw := failure.GenerateRawLog(failure.RawConfig{Seed: e.Seed})
		telemetry, err := health.Generate(health.TelemetryConfig{Seed: e.Seed}, raw)
		if err != nil {
			return nil, err
		}
		return health.NewMonitor(telemetry, raw, health.MonitorConfig{})
	})
}

// inflatedLog returns the memoized estimate-inflated twin of a workload.
func (e *Env) inflatedLog(name string) (*workload.Log, error) {
	return e.logMemo("inflated/" + name).get(func() (*workload.Log, error) {
		return workload.Generate(name, workload.GenConfig{
			Jobs: e.JobCount, Seed: e.Seed, EstimateInflation: 0.8,
		})
	})
}

// stochasticTrace returns the memoized statistical-model trace for a
// failure-model variant, matched to the real trace's rate.
func (e *Env) stochasticTrace(variant string) (*failure.Trace, error) {
	e.mu.Lock()
	m, ok := e.altTraces[variant]
	if !ok {
		m = &memo[*failure.Trace]{}
		e.altTraces[variant] = m
	}
	e.mu.Unlock()
	return m.get(func() (*failure.Trace, error) {
		kind := failure.Exponential
		if variant == "weibull-failures" {
			kind = failure.WeibullDecreasing
		}
		return failure.GenerateStochastic(failure.StochasticConfig{Kind: kind, Seed: e.Seed})
	})
}

// noteQueued adds n newly queued points to the progress tally and notifies
// Progress, if set.
func (e *Env) noteQueued(n int) {
	if n == 0 {
		return
	}
	e.mu.Lock()
	e.progressQueued += n
	done, queued, cb := e.progressDone, e.progressQueued, e.Progress
	e.mu.Unlock()
	if cb != nil {
		cb(done, queued)
	}
}

// noteDone records one computed point and notifies Progress, if set.
func (e *Env) noteDone() {
	e.mu.Lock()
	e.progressDone++
	done, queued, cb := e.progressDone, e.progressQueued, e.Progress
	e.mu.Unlock()
	if cb != nil {
		cb(done, queued)
	}
}

// noteSkipped removes n abandoned points from the progress tally and
// notifies Progress, if set. Work dropped after an error is no longer
// queued; leaving it counted would overstate the remaining work — and
// count it twice if a later Prefetch queues it again.
func (e *Env) noteSkipped(n int) {
	if n == 0 {
		return
	}
	e.mu.Lock()
	e.progressQueued -= n
	done, queued, cb := e.progressDone, e.progressQueued, e.Progress
	e.mu.Unlock()
	if cb != nil {
		cb(done, queued)
	}
}

// Point runs (or recalls) one simulation at (log, a, u) under the named
// variant and returns its metrics. A point already being computed — by a
// concurrent Point call or a Prefetch worker — is joined, not recomputed:
// the caller waits on the in-flight result instead of running the
// simulation a second time (and double-counting it in the progress tally).
func (e *Env) Point(log string, a, u float64, variant string) (metrics.Report, error) {
	key := pointKey{log: log, a: a, u: u, variant: variant}
	for {
		e.mu.Lock()
		if r, ok := e.points[key]; ok {
			e.mu.Unlock()
			return r, nil
		}
		if c, ok := e.inflight[key]; ok {
			e.mu.Unlock()
			<-c.done
			if c.err == errAbandoned {
				continue // the owner bailed before computing; claim the key
			}
			return c.r, c.err
		}
		c := &inflightPoint{done: make(chan struct{})}
		e.inflight[key] = c
		e.mu.Unlock()
		e.noteQueued(1)
		e.computePoint(key, c)
		return c.r, c.err
	}
}

// computePoint runs the simulation for an inflight entry the caller owns,
// publishes the result, settles the progress tally, and wakes waiters.
func (e *Env) computePoint(key pointKey, c *inflightPoint) {
	c.r, c.err = e.compute(key)
	e.mu.Lock()
	if c.err == nil {
		e.points[key] = c.r
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	if c.err == nil {
		e.noteDone()
	} else {
		e.noteSkipped(1)
	}
	close(c.done)
}

// abandonPoint releases an owned inflight entry without computing it (its
// Prefetch aborted); waiters retry and take over the key.
func (e *Env) abandonPoint(key pointKey, c *inflightPoint) {
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	c.err = errAbandoned
	e.noteSkipped(1)
	close(c.done)
}

func (e *Env) compute(key pointKey) (metrics.Report, error) {
	mutate, ok := variants[key.variant]
	if !ok {
		return metrics.Report{}, fmt.Errorf("experiment: unknown variant %q", key.variant)
	}
	log, err := e.Log(key.log)
	if err != nil {
		return metrics.Report{}, err
	}
	tr, err := e.Trace()
	if err != nil {
		return metrics.Report{}, err
	}
	switch key.variant {
	case "poisson-failures", "weibull-failures":
		if tr, err = e.stochasticTrace(key.variant); err != nil {
			return metrics.Report{}, err
		}
	case "inflated-estimates":
		if log, err = e.inflatedLog(key.log); err != nil {
			return metrics.Report{}, err
		}
	}
	var monitorPred *health.Monitor
	if key.variant == "monitor-predictor" {
		if monitorPred, err = e.Monitor(); err != nil {
			return metrics.Report{}, err
		}
	}
	cfg := sim.DefaultConfig(log, tr)
	cfg.Accuracy = key.a
	cfg.UserRisk = key.u
	if monitorPred != nil {
		cfg.Predictor = monitorPred
	}
	if mutate != nil {
		mutate(&cfg)
	}
	release := e.acquireSim()
	res, err := simRun(cfg)
	release()
	if err != nil {
		return metrics.Report{}, fmt.Errorf("experiment: %s a=%.1f U=%.1f %q: %w",
			key.log, key.a, key.u, key.variant, err)
	}
	return metrics.Compute(res), nil
}

// PointSpec names one simulation point for prefetching.
type PointSpec struct {
	Log     string
	A, U    float64
	Variant string
}

// Prefetch evaluates the points concurrently (bounded by Workers) so later
// Point calls hit the cache. The first error aborts remaining work. Points
// another caller is already computing are joined rather than recomputed.
func (e *Env) Prefetch(specs []PointSpec) error {
	// Deduplicate, drop cached points, and claim ownership of the rest;
	// keys already in flight elsewhere are collected to join afterwards.
	type ownedPoint struct {
		key pointKey
		c   *inflightPoint
	}
	e.mu.Lock()
	seen := make(map[pointKey]bool, len(specs))
	var todo []ownedPoint
	var joins []pointKey
	for _, s := range specs {
		key := pointKey{log: s.Log, a: s.A, u: s.U, variant: s.Variant}
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := e.points[key]; ok {
			continue
		}
		if _, ok := e.inflight[key]; ok {
			joins = append(joins, key)
			continue
		}
		c := &inflightPoint{done: make(chan struct{})}
		e.inflight[key] = c
		todo = append(todo, ownedPoint{key: key, c: c})
	}
	e.mu.Unlock()
	if len(todo) == 0 && len(joins) == 0 {
		return nil
	}
	e.noteQueued(len(todo))

	var (
		wg       sync.WaitGroup
		work     = make(chan ownedPoint)
		errOnce  sync.Once
		firstErr error
		aborted  = make(chan struct{})
	)
	abort := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(aborted)
		})
	}
	for i := 0; i < e.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				select {
				case <-aborted:
					// A key handed over in the same select round as the
					// abort: drop it uncomputed.
					e.abandonPoint(op.key, op.c)
					continue
				default:
				}
				e.computePoint(op.key, op.c)
				if op.c.err != nil {
					abort(op.c.err)
				}
			}
		}()
	}
	dispatched := len(todo)
dispatch:
	for i, op := range todo {
		// The non-blocking check makes the cutoff deterministic once the
		// abort lands; the blocking select alone could keep picking the
		// send branch while workers drain.
		select {
		case <-aborted:
			dispatched = i
			break dispatch
		default:
		}
		select {
		case <-aborted:
			dispatched = i
			break dispatch
		case work <- op:
		}
	}
	// Everything not handed out is abandoned; each key leaves the progress
	// tally exactly once (here, or in the worker that received it), and its
	// waiters — if any — are released to claim the key themselves.
	for _, op := range todo[dispatched:] {
		e.abandonPoint(op.key, op.c)
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Join points other callers were computing; Point waits on the live
	// entry (or recomputes if its owner abandoned it).
	for _, key := range joins {
		if _, err := e.Point(key.log, key.a, key.u, key.variant); err != nil {
			return err
		}
	}
	return nil
}
