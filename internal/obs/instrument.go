package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probqos/internal/sim"
	"probqos/internal/units"
)

// DefaultCadence is the default simulation-time sampling period.
const DefaultCadence = 15 * units.Minute

// phaseDurationBounds bucket phase occurrences from 1µs to 1s; simulator
// phases are far below a second, so the overflow bucket flags pathology.
// Exact literals rather than a product series: repeated multiplication
// drifts (1e-6*10*10 = 9.999...e-05) and the drift would leak into the le=
// labels.
var phaseDurationBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Point is one sampled cluster state on the simulation clock.
type Point struct {
	Time        units.Time `json:"time"`
	QueueDepth  int        `json:"queue_depth"`
	RunningJobs int        `json:"running_jobs"`
	BusyNodes   int        `json:"busy_nodes"`
	LostWork    units.Work `json:"lost_work_node_s"`
	MeanPromise float64    `json:"mean_promise"`
	Events      int        `json:"events"`
}

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

// phaseAgg is one phase's registry instruments plus the longest single
// occurrence, which the registry does not keep.
type phaseAgg struct {
	seconds *Counter
	calls   *Counter
	hist    *Histogram
	max     atomic.Int64 // nanoseconds
}

// Instrument is the standard sim.Probe. From the simulator's one hook it
// keeps (1) live registry metrics — gauges for the instantaneous cluster
// state, counters for events, journal notes, and control-plane decisions,
// and per-phase wall-clock counters and histograms — (2) a fixed-cadence
// time series of Points for post-hoc plotting, and (3) a per-phase
// wall-clock report. It is safe to read (SeriesTail, Report, the registry)
// while a simulation is feeding it.
type Instrument struct {
	cadence units.Duration
	reg     *Registry

	mu      sync.Mutex
	started bool
	next    units.Time
	points  []Point
	last    Point
	hasLast bool
	notes   map[sim.Kind]*Counter

	events *Counter
	// decisions counts the control-plane decisions by kind, weighted by N.
	decisions map[sim.DecisionKind]*Counter

	gTime, gQueue, gRunning, gBusy, gLost, gPromise *Gauge

	phases map[sim.Phase]*phaseAgg
}

var _ sim.Probe = (*Instrument)(nil)

// NewInstrument registers the simulation metrics on reg and returns an
// instrument recording one Point per cadence of simulation time
// (DefaultCadence if cadence <= 0).
func NewInstrument(reg *Registry, cadence units.Duration) *Instrument {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	const (
		decisions = "probqos_sim_decisions_total"
		decHelp   = "Control-plane decisions by kind."
		ckpts     = "probqos_sim_checkpoints_total"
		ckptHelp  = "Checkpoint requests by decision outcome."
		fails     = "probqos_sim_failures_total"
		failHelp  = "Failures processed, by outcome."
	)
	ins := &Instrument{
		cadence: cadence,
		reg:     reg,
		notes:   make(map[sim.Kind]*Counter),

		events: reg.Counter("probqos_sim_events_total", "Simulator events dispatched.", nil),

		decisions: map[sim.DecisionKind]*Counter{
			sim.DecisionQuote:                  reg.Counter(decisions, decHelp, Labels{"kind": sim.DecisionQuote.String()}),
			sim.DecisionReserve:                reg.Counter(decisions, decHelp, Labels{"kind": sim.DecisionReserve.String()}),
			sim.DecisionBackfill:               reg.Counter(decisions, decHelp, Labels{"kind": sim.DecisionBackfill.String()}),
			sim.DecisionStartSlip:              reg.Counter(decisions, decHelp, Labels{"kind": sim.DecisionStartSlip.String()}),
			sim.DecisionCheckpointGrant:        reg.Counter(ckpts, ckptHelp, Labels{"decision": "granted"}),
			sim.DecisionCheckpointSkip:         reg.Counter(ckpts, ckptHelp, Labels{"decision": "skipped"}),
			sim.DecisionCheckpointDeadlineSkip: reg.Counter(ckpts, ckptHelp, Labels{"decision": "deadline-skipped"}),
			sim.DecisionFailureKill:            reg.Counter(fails, failHelp, Labels{"outcome": "job-killed"}),
			sim.DecisionFailureIdle:            reg.Counter(fails, failHelp, Labels{"outcome": "idle-node"}),
		},

		gTime:    reg.Gauge("probqos_sim_time_seconds", "Simulation clock, seconds since trace start.", nil),
		gQueue:   reg.Gauge("probqos_sim_queue_depth", "Jobs negotiated but not executing.", nil),
		gRunning: reg.Gauge("probqos_sim_running_jobs", "Jobs currently executing.", nil),
		gBusy:    reg.Gauge("probqos_sim_nodes_busy", "Nodes occupied by running jobs.", nil),
		gLost:    reg.Gauge("probqos_sim_lost_work_node_seconds", "Cumulative work destroyed by failures.", nil),
		gPromise: reg.Gauge("probqos_sim_mean_promise", "Mean promised success probability over arrivals so far.", nil),

		phases: make(map[sim.Phase]*phaseAgg, len(sim.AllPhases())),
	}
	for _, ph := range sim.AllPhases() {
		labels := Labels{"phase": ph.String()}
		ins.phases[ph] = &phaseAgg{
			seconds: reg.Counter("probqos_sim_phase_seconds_total",
				"Wall-clock seconds spent per simulator phase.", labels),
			calls: reg.Counter("probqos_sim_phase_calls_total",
				"Occurrences of each simulator phase.", labels),
			hist: reg.Histogram("probqos_sim_phase_duration_seconds",
				"Wall-clock duration of one phase occurrence.", phaseDurationBounds, labels),
		}
	}
	return ins
}

// Sample implements the Probe state hook: it refreshes the live gauges on
// every event and appends a Point once per cadence of simulation time.
func (ins *Instrument) Sample(st sim.State) {
	ins.events.Inc()
	ins.gTime.Set(float64(st.Time))
	ins.gQueue.Set(float64(st.QueueDepth))
	ins.gRunning.Set(float64(st.RunningJobs))
	ins.gBusy.Set(float64(st.BusyNodes))
	ins.gLost.Set(st.LostWork.NodeSeconds())
	ins.gPromise.Set(st.MeanPromise())

	p := Point{
		Time:        st.Time,
		QueueDepth:  st.QueueDepth,
		RunningJobs: st.RunningJobs,
		BusyNodes:   st.BusyNodes,
		LostWork:    st.LostWork,
		MeanPromise: st.MeanPromise(),
		Events:      st.EventsProcessed,
	}
	ins.mu.Lock()
	ins.last, ins.hasLast = p, true
	if !ins.started || st.Time >= ins.next {
		ins.started = true
		ins.points = append(ins.points, p)
		ins.next = st.Time.Add(ins.cadence)
	}
	ins.mu.Unlock()
}

// Decision implements the Probe decision hook: it counts control-plane
// decisions by kind and the journal notes they render as, by note kind
// alone, without rendering the notes.
func (ins *Instrument) Decision(d sim.Decision) {
	if c := ins.decisions[d.Kind]; c != nil {
		c.Add(float64(d.N))
	}
	kind, ok := d.Kind.NoteKind()
	if !ok {
		return
	}
	ins.mu.Lock()
	c, ok := ins.notes[kind]
	if !ok {
		c = ins.reg.Counter("probqos_sim_notes_total", "Journal notes by kind.", Labels{"kind": kind.String()})
		ins.notes[kind] = c
	}
	ins.mu.Unlock()
	c.Inc()
}

// Phase implements the Probe timing hook.
func (ins *Instrument) Phase(ph sim.Phase, d time.Duration) {
	a := ins.phases[ph]
	if a == nil {
		return
	}
	secs := d.Seconds()
	a.seconds.Add(secs)
	a.calls.Inc()
	a.hist.Observe(secs)
	for {
		cur := a.max.Load()
		if int64(d) <= cur || a.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Flush appends the most recent state as a final Point if the cadence had
// not yet captured it. Call it once when the run completes.
func (ins *Instrument) Flush() {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if ins.hasLast && (len(ins.points) == 0 || ins.points[len(ins.points)-1].Time != ins.last.Time) {
		ins.points = append(ins.points, ins.last)
	}
}

// SeriesTail returns at most n trailing points (all points if n <= 0).
func (ins *Instrument) SeriesTail(n int) []Point {
	ins.mu.Lock()
	defer ins.mu.Unlock()
	pts := ins.points
	if n > 0 && len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	return append([]Point(nil), pts...)
}

// WriteSeriesCSV writes the sampled time series as CSV for plotting.
func (ins *Instrument) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s,queue_depth,running_jobs,nodes_busy,lost_work_node_s,mean_promise,events"); err != nil {
		return fmt.Errorf("obs: write series csv: %w", err)
	}
	for _, p := range ins.SeriesTail(0) {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%.6f,%d\n",
			int64(p.Time), p.QueueDepth, p.RunningJobs, p.BusyNodes,
			int64(p.LostWork), p.MeanPromise, p.Events); err != nil {
			return fmt.Errorf("obs: write series csv: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write series csv: %w", err)
	}
	return nil
}

// Report returns per-phase statistics, dispatch first and the nested phases
// by descending total. Calls and totals are read back from the registry.
func (ins *Instrument) Report() []PhaseStat {
	dispatchTotal := ins.phases[sim.PhaseDispatch].seconds.Value()
	stats := make([]PhaseStat, 0, len(ins.phases))
	for _, ph := range sim.AllPhases() {
		a := ins.phases[ph]
		n, total := uint64(a.calls.Value()), a.seconds.Value()
		st := PhaseStat{
			Phase:        ph.String(),
			Calls:        n,
			TotalSeconds: total,
			MaxSeconds:   time.Duration(a.max.Load()).Seconds(),
		}
		if n > 0 {
			st.MeanSeconds = total / float64(n)
		}
		if dispatchTotal > 0 {
			st.DispatchShare = total / dispatchTotal
		}
		stats = append(stats, st)
	}
	// Dispatch stays first; order the nested phases by descending total.
	rest := stats[1:]
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].TotalSeconds > rest[j].TotalSeconds })
	return stats
}

// WriteReport writes the per-phase breakdown as aligned text.
func (ins *Instrument) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-12s %10s %12s %12s %12s %8s\n",
		"phase", "calls", "total", "mean", "max", "% disp")
	for _, st := range ins.Report() {
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
