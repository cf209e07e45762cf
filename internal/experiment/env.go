// Package experiment defines the paper's evaluation: one experiment per
// table and figure (Table 1, Table 2, Figures 1-12), the headline-numbers
// summary, and the ablations of DESIGN.md §6. cmd/qossweep and the
// benchmark harness both execute these definitions, so the CLI output and
// the bench output are the same rows the paper reports.
package experiment

import (
	"fmt"
	"runtime"
	"strconv"
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

// Env carries the shared inputs (workloads, failure traces) and memoizes
// simulation points, since the figures share many (log, a, U) runs.
// An Env is safe for concurrent use: every input and every point is a memo
// cell, so concurrent requests for one key share a single build.
type Env struct {
	// JobCount scales the workloads; 0 means the paper's 10,000 jobs.
	JobCount int
	// Seed selects the synthetic trace streams.
	Seed int64
	// Workers is the number of goroutines RunAll computes points on; 0
	// means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, observes RunAll: it is called once with
	// (0, total) before the first point and once per computed point, with
	// total the number of distinct points the experiments declare. Calls
	// are serialized, so done never goes backwards. Set it before RunAll.
	Progress func(done, total int)

	mu      sync.Mutex
	logs    map[logKey]*memo[*workload.Log]
	traces  map[string]*memo[*failure.Trace]
	monitor memo[*health.Monitor]
	points  map[PointSpec]*memo[metrics.Report]
}

// PointSpec names one simulation point: a workload, the accuracy a, the
// user strategy U, and a configuration variant ("" is the full system).
type PointSpec struct {
	Log     string
	A, U    float64
	Variant string
}

// memo gates one expensive shared resource behind a sync.Once so concurrent
// first callers build it exactly once and everyone waits on the same build
// instead of racing to be the last writer. A failed build is memoized too:
// these generators and the simulator are deterministic and fail only on
// invalid configuration, which retrying cannot fix.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(build func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = build() })
	return m.val, m.err
}

// memoOf returns the memo for key in m, creating it on first use. Only the
// map access holds e.mu; the build runs outside it, so workers building
// different keys do not serialize.
func memoOf[K comparable, T any](e *Env, m map[K]*memo[T], key K) *memo[T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := m[key]
	if !ok {
		c = &memo[T]{}
		m[key] = c
	}
	return c
}

// NewEnv returns an Env at the paper's full scale.
func NewEnv() *Env {
	return &Env{
		logs:   make(map[logKey]*memo[*workload.Log]),
		traces: make(map[string]*memo[*failure.Trace]),
		points: make(map[PointSpec]*memo[metrics.Report]),
	}
}

func (e *Env) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Log returns the named synthetic workload, generating it on first use.
func (e *Env) Log(name string) (*workload.Log, error) {
	return e.genLog(name, workload.GenConfig{})
}

// logKey is a workload generator's full input, as workload.Resolve
// returns it.
type logKey struct {
	name string
	cfg  workload.GenConfig
}

// genLog returns the named log generated at the Env's scale and seed with
// cfg's remaining fields. Logs are memoized by the resolved generator input,
// so requests that differ only in spelling out a default share one log.
func (e *Env) genLog(name string, cfg workload.GenConfig) (*workload.Log, error) {
	cfg.Jobs, cfg.Seed = e.JobCount, e.Seed
	name, cfg, err := workload.Resolve(name, cfg)
	if err != nil {
		return nil, err
	}
	return memoOf(e, e.logs, logKey{name, cfg}).get(func() (*workload.Log, error) {
		return workload.Generate(name, cfg)
	})
}

// Trace returns the shared failure trace, generating it on first use.
func (e *Env) Trace() (*failure.Trace, error) {
	return memoOf(e, e.traces, "").get(func() (*failure.Trace, error) {
		return failure.GenerateTrace(failure.RawConfig{Seed: e.Seed}, failure.FilterConfig{})
	})
}

// Monitor returns the shared health-monitoring predictor, building the raw
// log and telemetry on first use. The raw log uses the same configuration
// as Trace(), so the monitor's ground truth is the trace the simulator
// replays.
func (e *Env) Monitor() (*health.Monitor, error) {
	return e.monitor.get(func() (*health.Monitor, error) {
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
	return e.genLog(name, workload.GenConfig{EstimateInflation: 0.8})
}

// stochasticTrace returns the memoized statistical-model trace for a
// failure-model variant, matched to the real trace's rate.
func (e *Env) stochasticTrace(variant string) (*failure.Trace, error) {
	return memoOf(e, e.traces, variant).get(func() (*failure.Trace, error) {
		kind := failure.Exponential
		if variant == "weibull-failures" {
			kind = failure.WeibullDecreasing
		}
		return failure.GenerateStochastic(failure.StochasticConfig{Kind: kind, Seed: e.Seed})
	})
}

// clusterTrace returns the memoized failure trace of an n-node cluster.
// It holds the per-node failure rate of the 128-node trace constant:
// episodes scale with the node count.
func (e *Env) clusterTrace(n int) (*failure.Trace, error) {
	return memoOf(e, e.traces, clusterVariant(n)).get(func() (*failure.Trace, error) {
		return failure.GenerateTrace(failure.RawConfig{
			Nodes: n, Seed: e.Seed, Episodes: 1021 * n / 128,
		}, failure.FilterConfig{Seed: e.Seed})
	})
}

// checkpointGrid is the sweep-checkpoint grid of (I, C) around Table 2.
var checkpointGrid = []checkpoint.Params{
	{Interval: 1800, Overhead: 720},
	{Interval: 3600, Overhead: 360},
	{Interval: 3600, Overhead: 720}, // Table 2
	{Interval: 3600, Overhead: 1440},
	{Interval: 7200, Overhead: 720},
	{Interval: 14400, Overhead: 720},
}

// checkpointVariant names the variant that checkpoints with p. The Table 2
// parameters are the full system's, so they name no variant.
func checkpointVariant(p checkpoint.Params) string {
	if p == checkpoint.DefaultParams() {
		return ""
	}
	return fmt.Sprintf("checkpoint-I%d-C%d", int64(p.Interval), int64(p.Overhead))
}

// clusterSizes are the node counts of the sweep-clustersize grid.
var clusterSizes = []int{64, 128, 256}

// clusterVariant names the variant that runs an n-node cluster with a
// proportional workload and failure trace.
func clusterVariant(n int) string { return "nodes-" + strconv.Itoa(n) }

// Variants are the named configuration ablations. The empty name is the
// full system.
var variants = func() map[string]func(*sim.Config) {
	m := map[string]func(*sim.Config){
		"":              nil,
		"first-fit":     func(c *sim.Config) { c.FaultAware = false },
		"no-skip":       func(c *sim.Config) { c.DeadlineSkip = false },
		"no-negotiate":  func(c *sim.Config) { c.Negotiate = false },
		"pure-forecast": func(c *sim.Config) { c.BaseRateFloor = false },
		"periodic":      func(c *sim.Config) { c.Policy = checkpoint.Periodic{} },
		"no-checkpoint": func(c *sim.Config) { c.Policy = checkpoint.Never{} },
		// Failure-model variants swap the failure trace itself (handled in
		// inputs, not by mutating the config): the stochastic-model
		// follow-up study the paper suggests.
		"poisson-failures": nil,
		"weibull-failures": nil,
		// Horizon variants degrade prediction accuracy with forecast
		// distance (§3.3: "predictions are less accurate as they stretch
		// further into the future").
		"horizon-6h":  func(c *sim.Config) { c.PredictionHalfLife = 6 * units.Hour },
		"horizon-48h": func(c *sim.Config) { c.PredictionHalfLife = 48 * units.Hour },
		// inflated-estimates swaps the workload for one whose users
		// overestimate runtimes ~1.8x on average (§3.3 notes exact
		// estimates are "not always true in practice"). Handled in inputs.
		"inflated-estimates": nil,
		// monitor-predictor replaces the idealized trace predictor with the
		// working health monitor built from telemetry and precursor events
		// (§3.1/§3.2). Handled in compute.
		"monitor-predictor": nil,
	}
	for _, p := range checkpointGrid {
		if v := checkpointVariant(p); v != "" {
			m[v] = func(c *sim.Config) { c.Checkpoint = p }
		}
	}
	// Cluster-size variants also swap both inputs (handled in inputs).
	for _, n := range clusterSizes {
		m[clusterVariant(n)] = func(c *sim.Config) { c.Nodes = n }
	}
	return m
}()

// Point runs (or recalls) one simulation at (log, a, u) under the named
// variant and returns its metrics. Concurrent calls for one point share a
// single simulation.
func (e *Env) Point(log string, a, u float64, variant string) (metrics.Report, error) {
	p := PointSpec{Log: log, A: a, U: u, Variant: variant}
	return memoOf(e, e.points, p).get(func() (metrics.Report, error) { return e.compute(p) })
}

// reports returns the points' results in order.
func (e *Env) reports(specs []PointSpec) ([]metrics.Report, error) {
	rs := make([]metrics.Report, len(specs))
	for i, p := range specs {
		r, err := e.Point(p.Log, p.A, p.U, p.Variant)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	return rs, nil
}

// computeAll computes the points on Workers goroutines, reporting each
// finished point to Progress.
func (e *Env) computeAll(specs []PointSpec) {
	var (
		mu   sync.Mutex
		done int
	)
	report := func() {
		if e.Progress != nil {
			e.Progress(done, len(specs))
		}
	}
	report()
	next := make(chan PointSpec)
	var wg sync.WaitGroup
	for range min(e.workers(), len(specs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				// The error stays in the point's memo cell; Run reports it.
				_, _ = e.Point(p.Log, p.A, p.U, p.Variant)
				mu.Lock()
				done++
				report()
				mu.Unlock()
			}
		}()
	}
	for _, p := range specs {
		next <- p
	}
	close(next)
	wg.Wait()
}

func (e *Env) compute(p PointSpec) (metrics.Report, error) {
	mutate, ok := variants[p.Variant]
	if !ok {
		return metrics.Report{}, fmt.Errorf("experiment: unknown variant %q", p.Variant)
	}
	log, tr, err := e.inputs(p)
	if err != nil {
		return metrics.Report{}, err
	}
	cfg := sim.DefaultConfig(log, tr)
	cfg.Accuracy = p.A
	cfg.UserRisk = p.U
	if p.Variant == "monitor-predictor" {
		if cfg.Predictor, err = e.Monitor(); err != nil {
			return metrics.Report{}, err
		}
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := simRun(cfg)
	if err != nil {
		return metrics.Report{}, fmt.Errorf("experiment: %s a=%.1f U=%.1f %q: %w",
			p.Log, p.A, p.U, p.Variant, err)
	}
	return metrics.Compute(res), nil
}

// inputs returns the workload and failure trace a point replays. A variant
// that swaps an input builds only its own, never the default.
func (e *Env) inputs(p PointSpec) (*workload.Log, *failure.Trace, error) {
	log := func() (*workload.Log, error) { return e.Log(p.Log) }
	trace := e.Trace
	switch p.Variant {
	case "inflated-estimates":
		log = func() (*workload.Log, error) { return e.inflatedLog(p.Log) }
	case "poisson-failures", "weibull-failures":
		trace = func() (*failure.Trace, error) { return e.stochasticTrace(p.Variant) }
	}
	for _, n := range clusterSizes {
		if p.Variant == clusterVariant(n) {
			log = func() (*workload.Log, error) {
				return e.genLog(p.Log, workload.GenConfig{ClusterNodes: n})
			}
			trace = func() (*failure.Trace, error) { return e.clusterTrace(n) }
		}
	}
	l, err := log()
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace()
	if err != nil {
		return nil, nil, err
	}
	return l, tr, nil
}
