package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/units"
)

// Report is the machine-readable outcome of one scenario run. Field order
// and float formatting are stable, so equal runs serialize byte-identically
// (the golden zoo depends on it).
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// FinalClock is the virtual instant the run ended on (after the final
	// drain, the last processed event).
	FinalClock units.Time `json:"final_clock_s"`

	Jobs        JobsReport               `json:"jobs"`
	Metrics     MetricsReport            `json:"metrics"`
	Conformance metrics.ConformanceStats `json:"conformance"`

	Assertions []AssertionResult `json:"assertions"`
	// OK is true when every assertion held (vacuously true with none).
	OK bool `json:"ok"`
}

// JobsReport counts submissions and their fates.
type JobsReport struct {
	// Submitted = Admitted + Rejected; Admitted = Completed + Missed after
	// the final drain (every admitted job reaches a terminal state).
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Missed    int `json:"missed"`
	// InjectedFailures counts unpredicted failures the timeline injected
	// (inject_failure plus maintenance re-failures), not background ones.
	InjectedFailures int `json:"injected_failures"`
}

// MetricsReport mirrors the offline metrics over the scenario's jobs.
type MetricsReport struct {
	// QoS is the paper's aggregate: sum(e*n*q*p) / sum(e*n) with q = 1 for
	// jobs that met their deadline.
	QoS float64 `json:"qos"`
	// Utilization is useful work over Span * Nodes.
	Utilization float64 `json:"utilization"`
	// Span runs from 0 to the latest job finish (or deadline for jobs the
	// engine never finished by then).
	Span               units.Duration `json:"span_s"`
	TotalWorkNodeHours float64        `json:"total_work_node_hours"`
	LostWorkNodeHours  float64        `json:"lost_work_node_hours"`
	MeanPromise        float64        `json:"mean_promise"`
	DeadlineMissRate   float64        `json:"deadline_miss_rate"`
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Type   string `json:"type"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report evaluates the scenario's assertions against the engine's final
// state and assembles the run report. Calling it mid-run is allowed (the
// CLI does not, but tests may); assertions then see the partial state.
func (r *Runner) Report() *Report {
	eng := r.m.Engine()
	rep := &Report{
		Scenario:   r.scn.Name,
		Seed:       r.scn.Seed,
		FinalClock: eng.Now(),
		Jobs: JobsReport{
			Submitted:        r.submitted,
			Rejected:         r.rejected,
			InjectedFailures: r.injected,
		},
		Conformance: r.m.Ledger().Stats(),
	}

	var (
		totalWork float64 // sum e_j * n_j, node-seconds
		qosNum    float64
		lostWork  units.Work
		promised  float64
		span      units.Time
	)
	for _, id := range eng.JobIDs() {
		js, ok := eng.Job(id)
		if !ok {
			continue
		}
		rep.Jobs.Admitted++
		w := js.Exec.Seconds() * float64(js.Nodes)
		totalWork += w
		promised += js.Promised
		lostWork += js.LostWork
		span = span.Max(js.Finish).Max(js.Deadline)
		switch js.State {
		case sim.JobCompleted:
			rep.Jobs.Completed++
			qosNum += w * js.Promised
		case sim.JobMissed:
			rep.Jobs.Missed++
		}
	}
	m := &rep.Metrics
	m.Span = units.Duration(span)
	m.TotalWorkNodeHours = totalWork / units.Hour.Seconds()
	m.LostWorkNodeHours = lostWork.NodeSeconds() / units.Hour.Seconds()
	if totalWork > 0 {
		m.QoS = qosNum / totalWork
	}
	if m.Span > 0 && r.scn.Fleet.Nodes > 0 {
		m.Utilization = totalWork / (m.Span.Seconds() * float64(r.scn.Fleet.Nodes))
	}
	if rep.Jobs.Admitted > 0 {
		m.MeanPromise = promised / float64(rep.Jobs.Admitted)
		m.DeadlineMissRate = float64(rep.Jobs.Missed) / float64(rep.Jobs.Admitted)
	}

	rep.OK = true
	for _, a := range r.scn.Asserts {
		res := evalAssertion(a, rep)
		rep.Assertions = append(rep.Assertions, res)
		rep.OK = rep.OK && res.OK
	}
	return rep
}

// evalAssertion checks one assertion against the assembled report.
func evalAssertion(a Assertion, rep *Report) AssertionResult {
	res := AssertionResult{Type: a.Type}
	ge := func(what string, got, min float64) {
		res.OK = got >= min
		res.Detail = fmt.Sprintf("%s %.6f (min %.6f)", what, got, min)
	}
	le := func(what string, got, max float64) {
		res.OK = got <= max
		res.Detail = fmt.Sprintf("%s %.6f (max %.6f)", what, got, max)
	}
	switch a.Type {
	case AssertQoSFloor:
		ge("qos", rep.Metrics.QoS, a.Min)
	case AssertPromiseKeeping:
		ge("keeping_rate", rep.Conformance.KeepingRate, a.Min)
	case AssertUtilizationBand:
		u := rep.Metrics.Utilization
		res.OK = u >= a.Min && u <= a.Max
		res.Detail = fmt.Sprintf("utilization %.6f (band [%.6f, %.6f])", u, a.Min, a.Max)
	case AssertMaxLostWork:
		le("lost_work_node_hours", rep.Metrics.LostWorkNodeHours, a.Max)
	case AssertMaxMissRate:
		le("deadline_miss_rate", rep.Metrics.DeadlineMissRate, a.Max)
	case AssertMinCompleted:
		res.OK = float64(rep.Jobs.Completed) >= a.Min
		res.Detail = fmt.Sprintf("completed %d (min %.0f)", rep.Jobs.Completed, a.Min)
	case AssertHonestPromises:
		bin, short := rep.Conformance.Worst()
		res.OK = short <= a.Slack
		res.Detail = "every populated bin honest"
		if !res.OK {
			res.Detail = fmt.Sprintf("bin %s observed %.6f below promised %.6f by %.6f (slack %.6f)",
				bin.Label(), bin.Observed, bin.PromisedMean, short, a.Slack)
		}
	default:
		// Validate rejects unknown types; reaching here means the report
		// was asked about an assertion the schema does not define.
		res.Detail = fmt.Sprintf("unknown assertion type %q", a.Type)
	}
	return res
}

// Failed returns the assertions that did not hold.
func (rep *Report) Failed() []AssertionResult {
	var out []AssertionResult
	for _, a := range rep.Assertions {
		if !a.OK {
			out = append(out, a)
		}
	}
	return out
}

// WriteJSON writes the report as stable, indented JSON with a trailing
// newline — the byte-exact form the golden zoo stores.
func (rep *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
