package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"probqos/internal/metrics"
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
	Metrics     metrics.AsOfReport       `json:"metrics"`
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
	st := eng.Stats()
	rep := &Report{
		Scenario:   r.scn.Name,
		Seed:       r.scn.Seed,
		FinalClock: eng.Now(),
		Jobs: JobsReport{
			Submitted:        r.submitted,
			Admitted:         st.Jobs,
			Rejected:         r.rejected,
			Completed:        st.Completed,
			Missed:           st.Missed,
			InjectedFailures: r.injected,
		},
		Metrics:     metrics.AsOf(eng),
		Conformance: r.m.Ledger().Stats(),
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
