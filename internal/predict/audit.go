package predict

import (
	"probqos/internal/failure"
	"probqos/internal/units"
)

// Audit quantifies a predictor's behaviour against the ground-truth trace:
// the per-failure detection rate and the windowed false-positive rate. For
// the trace predictor the paper's claims hold by construction (detection
// rate ≈ a, false positives = 0); Audit verifies them and characterizes any
// other Predictor the same way. cmd/predcheck prints this report.
type Audit struct {
	// Failures is the number of failures in the trace.
	Failures int
	// Detected is how many failures the predictor forecasts when asked
	// about exactly their node and an enclosing window.
	Detected int
	// Windows is the number of (node, window) probes evaluated.
	Windows int
	// FalsePositives counts probes with PFail > 0 but no failure in the
	// window.
	FalsePositives int
	// MeanConfidence is the average PFail over detected failures.
	MeanConfidence float64
}

// DetectionRate returns Detected/Failures (0 for an empty trace).
func (a Audit) DetectionRate() float64 {
	if a.Failures == 0 {
		return 0
	}
	return float64(a.Detected) / float64(a.Failures)
}

// FalsePositiveRate returns FalsePositives/Windows (0 for no probes).
func (a Audit) FalsePositiveRate() float64 {
	if a.Windows == 0 {
		return 0
	}
	return float64(a.FalsePositives) / float64(a.Windows)
}

// Run evaluates the predictor against the trace. Each failure is probed
// with a single-node window of the given width centered on the failure;
// false positives are probed with per-node windows tiling the trace span.
func Run(p Predictor, tr *failure.Trace, window units.Duration) Audit {
	var audit Audit
	if window <= 0 {
		window = units.Hour
	}

	events := tr.Events()
	audit.Failures = len(events)
	var confSum float64
	node := make([]int, 1) // every probe asks about one node
	for _, e := range events {
		from := e.Time.Add(-window / 2)
		node[0] = e.Node
		pf := p.PFail(node, from, from.Add(window))
		if pf > 0 {
			audit.Detected++
			confSum += pf
		}
	}
	if audit.Detected > 0 {
		audit.MeanConfidence = confSum / float64(audit.Detected)
	}

	if len(events) == 0 {
		return audit
	}
	start, end := events[0].Time, events[len(events)-1].Time
	for n := 0; n < tr.Nodes(); n++ {
		node[0] = n
		for from := start; from < end; from = from.Add(window) {
			to := from.Add(window)
			audit.Windows++
			pf := p.PFail(node, from, to)
			if pf > 0 && len(tr.Window(node, from, to)) == 0 {
				audit.FalsePositives++
			}
		}
	}
	return audit
}
