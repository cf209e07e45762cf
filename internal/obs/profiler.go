package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"probqos/internal/sim"
	"probqos/internal/units"
)

// phaseDurationBounds bucket phase occurrences from 1µs to 1s; simulator
// phases are far below a second, so the overflow bucket flags pathology.
// Exact literals rather than a product series: repeated multiplication
// drifts (1e-6*10*10 = 9.999...e-05) and the drift would leak into the le=
// labels.
var phaseDurationBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// PhaseStat summarizes one hot phase's wall-clock bill.
type PhaseStat struct {
	Phase        string  `json:"phase"`
	Calls        uint64  `json:"calls"`
	TotalSeconds float64 `json:"total_s"`
	MeanSeconds  float64 `json:"mean_s"`
	MaxSeconds   float64 `json:"max_s"`
	// DispatchShare is TotalSeconds over the dispatch phase's total: the
	// fraction of event-processing wall-clock this phase accounts for
	// (dispatch itself reads 1). Sub-phases are nested inside dispatch, so
	// shares do not sum to 1.
	DispatchShare float64 `json:"dispatch_share"`
}

type phaseAgg struct {
	seconds *Counter
	calls   *Counter
	hist    *Histogram

	mu    sync.Mutex
	n     uint64
	total time.Duration
	max   time.Duration
}

// Profiler accounts wall-clock per simulator hot phase: nanosecond timers
// feed per-phase counters and duration histograms on the registry plus an
// aggregate report, giving perf work a measured baseline.
type Profiler struct {
	agg map[sim.Phase]*phaseAgg
}

// NewProfiler registers per-phase wall-clock metrics on reg.
func NewProfiler(reg *Registry) *Profiler {
	p := &Profiler{agg: make(map[sim.Phase]*phaseAgg, len(sim.AllPhases()))}
	for _, ph := range sim.AllPhases() {
		labels := Labels{"phase": ph.String()}
		p.agg[ph] = &phaseAgg{
			seconds: reg.Counter("probqos_sim_phase_seconds_total",
				"Wall-clock seconds spent per simulator phase.", labels),
			calls: reg.Counter("probqos_sim_phase_calls_total",
				"Occurrences of each simulator phase.", labels),
			hist: reg.Histogram("probqos_sim_phase_duration_seconds",
				"Wall-clock duration of one phase occurrence.", phaseDurationBounds, labels),
		}
	}
	return p
}

// Phase implements the Probe timing hook.
func (p *Profiler) Phase(ph sim.Phase, d time.Duration) {
	a := p.agg[ph]
	if a == nil {
		return
	}
	secs := d.Seconds()
	a.seconds.Add(secs)
	a.calls.Inc()
	a.hist.Observe(secs)
	a.mu.Lock()
	a.n++
	a.total += d
	if d > a.max {
		a.max = d
	}
	a.mu.Unlock()
}

// Report returns per-phase statistics, dispatch first and the nested phases
// by descending total.
func (p *Profiler) Report() []PhaseStat {
	var dispatchTotal time.Duration
	if a := p.agg[sim.PhaseDispatch]; a != nil {
		a.mu.Lock()
		dispatchTotal = a.total
		a.mu.Unlock()
	}
	stats := make([]PhaseStat, 0, len(p.agg))
	for _, ph := range sim.AllPhases() {
		a := p.agg[ph]
		a.mu.Lock()
		n, total, max := a.n, a.total, a.max
		a.mu.Unlock()
		st := PhaseStat{
			Phase:        ph.String(),
			Calls:        n,
			TotalSeconds: total.Seconds(),
			MaxSeconds:   max.Seconds(),
		}
		if n > 0 {
			st.MeanSeconds = total.Seconds() / float64(n)
		}
		if dispatchTotal > 0 {
			st.DispatchShare = total.Seconds() / dispatchTotal.Seconds()
		}
		stats = append(stats, st)
	}
	// Dispatch stays first; order the nested phases by descending total.
	rest := stats[1:]
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].TotalSeconds > rest[j].TotalSeconds })
	return stats
}

// WriteReport writes the per-phase breakdown as aligned text.
func (p *Profiler) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %10s %12s %12s %12s %8s\n",
		"phase", "calls", "total", "mean", "max", "% disp")
	for _, st := range p.Report() {
		fmt.Fprintf(bw, "%-12s %10d %12s %12s %12s %8.1f\n",
			st.Phase, st.Calls,
			fmtSeconds(st.TotalSeconds), fmtSeconds(st.MeanSeconds), fmtSeconds(st.MaxSeconds),
			100*st.DispatchShare)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write phase report: %w", err)
	}
	return nil
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Nanosecond).String()
}

// Instrument bundles a Sampler and a Profiler into one probe: assign it to
// a simulation's Probe (and, to meter the journal too, its Observer — via
// sim.MultiObserver when a journal writer is also attached).
type Instrument struct {
	*Sampler
	*Profiler
}

var (
	_ sim.Probe    = (*Instrument)(nil)
	_ sim.Observer = (*Instrument)(nil)
)

// NewInstrument builds a Sampler and Profiler over one registry.
func NewInstrument(reg *Registry, cadence units.Duration) *Instrument {
	return &Instrument{Sampler: NewSampler(reg, cadence), Profiler: NewProfiler(reg)}
}
