package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"probqos/internal/failure"
	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/workload"
)

// fig1Jobs is the SDSC log length of one Figure-1 point. The paper uses
// 10 000 jobs; 1 000 keeps a point near 25 ms, so a pass over fig1Cells
// points takes a few seconds and a run holds several whole passes.
const fig1Jobs = 1000

// fig1Cells is the number of points in one pass: the Figure-1 grid four times,
// every point on its own log and trace window.
const fig1Cells = 132

// gridPoint is one (a, U) cell of Figure 1.
type gridPoint struct{ a, u float64 }

// fig1Grid is the paper's Figure-1 grid: a in {0, 0.1, ..., 1} times
// U in {0.1, 0.5, 0.9}, in the order the sweep runs it.
func fig1Grid() []gridPoint {
	var g []gridPoint
	for i := 0; i <= 10; i++ {
		for _, u := range []float64{0.1, 0.5, 0.9} {
			g = append(g, gridPoint{a: float64(i) / 10, u: u})
		}
	}
	return g
}

// fig1Cell is one point of a pass with its inputs.
type fig1Cell struct {
	p   gridPoint
	log *workload.Log
	tr  *failure.Trace
}

// setupFig1 generates the seed's failure trace and every cell's log and
// trace window.
func setupFig1(seed int64) ([]fig1Cell, setupTimes, error) {
	var st setupTimes
	tr, d, err := genTrace(seed)
	if err != nil {
		return nil, st, err
	}
	st.trace = d
	t0 := time.Now()
	grid := fig1Grid()
	cells := make([]fig1Cell, fig1Cells)
	for k := range cells {
		sub := subSeed(seed, k)
		w, err := window(tr, sub)
		if err != nil {
			return nil, st, err
		}
		cells[k] = fig1Cell{
			p:   grid[k%len(grid)],
			log: workload.GenerateSDSC(workload.GenConfig{Jobs: fig1Jobs, Seed: sub}),
			tr:  w,
		}
	}
	st.workload = time.Since(t0)
	return cells, st, nil
}

// layerProbe is a sim.Probe that totals phase wall time and counts
// decisions over however many runs it is attached to.
type layerProbe struct {
	phase     [sim.PhaseCheckpoint + 1]time.Duration
	decisions [sim.DecisionFailureIdle + 1]int
	offers    int
}

// add adds o's totals into p.
func (p *layerProbe) add(o *layerProbe) {
	for i, d := range o.phase {
		p.phase[i] += d
	}
	for i, n := range o.decisions {
		p.decisions[i] += n
	}
	p.offers += o.offers
}

func (p *layerProbe) Decision(d sim.Decision) {
	if int(d.Kind) < len(p.decisions) {
		p.decisions[d.Kind]++
	}
	if d.Kind == sim.DecisionQuote {
		p.offers += d.N
	}
}

func (p *layerProbe) Sample(sim.State) {}

func (p *layerProbe) Phase(ph sim.Phase, d time.Duration) {
	if int(ph) < len(p.phase) {
		p.phase[ph] += d
	}
}

// sweep is the outcome of one pass over the cells.
type sweep struct {
	pointMs []float64
	digest  string
	events  int
	wall    time.Duration
	alloc   uint64 // bytes allocated during the points
	mallocs uint64
}

// fig1Workers is how many points a pass runs at once, each worker one
// sim.Run at a time, as a parallel sweep runs them on a two-core machine.
// On a shared 2-vCPU VM each vCPU's speed drifts on its own, by 20% and
// more over tens of seconds; one worker measured whichever vCPU it ran on,
// two measure both, and their runs spread about a third less.
const fig1Workers = 2

// runSweep runs every cell once, fig1Workers points at a time, with a
// probe per worker added into probe afterwards (nil for an untraced
// sweep).
func runSweep(cells []fig1Cell, probe *layerProbe) (sweep, error) {
	var (
		sw      = sweep{pointMs: make([]float64, len(cells))}
		reports = make([]metrics.Report, len(cells))
		events  = make([]int, len(cells))
		probes  = make([]*layerProbe, fig1Workers)
		errs    = make([]error, fig1Workers)
		next    atomic.Int64
		wg      sync.WaitGroup
		m0, m1  runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for w := range fig1Workers {
		if probe != nil {
			probes[w] = &layerProbe{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(cells); k = int(next.Add(1)) - 1 {
				c := cells[k]
				cfg := sim.DefaultConfig(c.log, c.tr)
				cfg.Accuracy, cfg.UserRisk = c.p.a, c.p.u
				if probe != nil {
					cfg.Probe = probes[w]
				}
				t0 := time.Now()
				res, err := sim.Run(cfg)
				sw.pointMs[k] = ms(time.Since(t0))
				if err != nil {
					errs[w] = fmt.Errorf("fig1 a=%.1f U=%.1f: %w", c.p.a, c.p.u, err)
					return
				}
				reports[k] = metrics.Compute(res)
				events[k] = res.EventsProcessed
			}
		}()
	}
	wg.Wait()
	sw.wall = time.Since(begin)
	runtime.ReadMemStats(&m1)
	if err := errors.Join(errs...); err != nil {
		return sw, err
	}
	sw.alloc = m1.TotalAlloc - m0.TotalAlloc
	sw.mallocs = m1.Mallocs - m0.Mallocs
	for k := range cells {
		sw.events += events[k]
	}
	if probe != nil {
		for _, p := range probes {
			probe.add(p)
		}
	}
	sw.digest = fig1Digest(reports)
	return sw, nil
}

// fig1Digest fingerprints a pass's reports in cell order. %+v prints every
// float with the shortest exact representation, so equal digests mean
// bit-identical reports.
func fig1Digest(reports []metrics.Report) string {
	h := newDigest()
	for i, r := range reports {
		fmt.Fprintf(h, "%d %+v\n", i, r)
	}
	return h.sum()
}

// benchFig1 measures the Figure-1 sweep: one warm-up pass with the probe
// attached, then whole passes until the measured time reaches seconds, with
// setupRepeats timed set-ups spread over them. With traced set, passes
// alternate untraced and traced and the result holds the per-layer metrics
// instead.
func benchFig1(o options) (result, error) {
	var (
		res    result
		setups []setupTimes
		cells  []fig1Cell
		speed  hostSpeed
		spent  time.Duration
		due    = setupSchedule{total: o.duration()}
	)
	d, ok := recorded.Fig1[seedKey(o.seed)]
	if ok {
		res.expect("fig1-sdsc", d)
	}
	res.noteRecorded(o.seed, ok)
	// setUp runs the set-ups due after spent measured time. Each replaces
	// the cells with identical fresh ones, and starts from a collected heap
	// that no longer holds the old ones.
	setUp := func() error {
		for due.due(spent) {
			cells = nil
			runtime.GC()
			c, st, err := setupFig1(o.seed)
			if err != nil {
				return err
			}
			cells, setups = c, append(setups, st)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return res, err
	}
	// pass runs one pass from a collected heap; a measured one is preceded
	// by the reference kernel on every worker.
	pass := func(probe *layerProbe, what string, measured bool) (sweep, error) {
		runtime.GC()
		if measured {
			speed.measure(fig1Workers)
		}
		sw, err := runSweep(cells, probe)
		res.attempted += len(cells)
		if err != nil {
			res.failed++
			return sw, err
		}
		res.check(what, "fig1-sdsc", sw.digest)
		return sw, nil
	}

	// The warm-up pass runs traced: an untraced pass must reproduce its
	// reports exactly, which checks every seed, recorded or not.
	if _, err := pass(&layerProbe{}, "warm-up traced pass", false); err != nil {
		return res, err
	}
	var (
		plain, traced []sweep
		probe         = &layerProbe{}
	)
	for spent < o.duration() || len(plain) == 0 || (o.trace && len(traced) == 0) {
		if o.trace && len(traced) < len(plain) {
			sw, err := pass(probe, "traced pass", true)
			if err != nil {
				return res, err
			}
			traced = append(traced, sw)
			spent += sw.wall
		} else {
			sw, err := pass(nil, "pass", true)
			if err != nil {
				return res, err
			}
			plain = append(plain, sw)
			spent += sw.wall
		}
		if err := setUp(); err != nil {
			return res, err
		}
	}

	if !o.trace {
		var (
			rounds []round
			alloc  uint64
		)
		for _, sw := range plain {
			rounds = append(rounds, round{lat: sw.pointMs, wall: sw.wall})
			alloc += sw.alloc
		}
		res.endToEnd(rounds, setups, float64(alloc)/1024/float64(len(plain)*len(cells)), &speed)
		return res, nil
	}

	points := float64(len(traced) * len(cells))
	var events int
	for _, sw := range traced {
		events += sw.events
	}
	phaseMs := func(ph sim.Phase) float64 { return ms(probe.phase[ph]) / points }
	dec := func(k sim.DecisionKind) float64 { return float64(probe.decisions[k]) }
	arrivals := dec(sim.DecisionQuote)
	grants, skips := dec(sim.DecisionCheckpointGrant), dec(sim.DecisionCheckpointSkip)
	nested := probe.phase[sim.PhaseNegotiate] + probe.phase[sim.PhaseSchedule] + probe.phase[sim.PhaseCheckpoint]

	l := res.layers()
	l.set("negotiate.quote_ms", phaseMs(sim.PhaseNegotiate))
	l.set("negotiate.quote_us_per_arrival", 1000*ratio(ms(probe.phase[sim.PhaseNegotiate]), arrivals))
	l.set("negotiate.offers_per_arrival", ratio(float64(probe.offers), arrivals))
	l.set("sim.dispatch_ms", phaseMs(sim.PhaseDispatch))
	l.set("sim.dispatch_self_ms", ms(probe.phase[sim.PhaseDispatch]-nested)/points)
	l.set("sim.events", float64(events)/points)
	l.set("sched.place_ms", phaseMs(sim.PhaseSchedule))
	l.set("sched.backfills", dec(sim.DecisionBackfill)/points)
	l.set("sched.start_slips", dec(sim.DecisionStartSlip)/points)
	l.set("checkpoint.decide_ms", phaseMs(sim.PhaseCheckpoint))
	l.set("checkpoint.requests", (grants+skips)/points)
	l.set("checkpoint.grant_ratio", ratio(grants, grants+skips))
	l.set("failure.kills", dec(sim.DecisionFailureKill)/points)
	l.setSetup(setups)
	l.set("host.ref_kernel_ms", speed.kernelMs.median())
	var mallocs uint64
	for _, sw := range plain {
		mallocs += sw.mallocs
	}
	l.set("mem.allocs_per_op", float64(mallocs)/float64(len(plain)*len(cells)))
	l.set("trace.overhead_pct", overheadPct(sweepWalls(traced), sweepWalls(plain)))
	return res, nil
}

func sweepWalls(sws []sweep) samples {
	var s samples
	for _, sw := range sws {
		s = append(s, ms(sw.wall))
	}
	return s
}
