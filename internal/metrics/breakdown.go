package metrics

import (
	"probqos/internal/sim"
	"probqos/internal/units"
)

// ClassReport summarizes one job-size class. The QoS metric weights jobs
// by work, so the system's behaviour on large jobs dominates the headline
// number; the breakdown shows where QoS is actually won and lost.
type ClassReport struct {
	// Label names the class ("1-8 nodes").
	Label string
	// MinNodes and MaxNodes bound the class (inclusive).
	MinNodes, MaxNodes int
	// Jobs is the class population.
	Jobs int
	// WorkShare is the class's fraction of total useful work.
	WorkShare float64
	// QoS is Equation 2 restricted to the class.
	QoS float64
	// MissRate is the fraction of the class's jobs missing deadlines.
	MissRate float64
	// FailureRate is the fraction of the class's jobs that suffered at
	// least one failure.
	FailureRate float64
	// LostWork is the class's total lost work.
	LostWork units.Work
	// MeanWaitSeconds is the class's mean (last start - arrival).
	MeanWaitSeconds float64
}

// DefaultClasses are the size classes used by the breakdown: narrow,
// medium, wide, and huge jobs on a 128-node machine.
func DefaultClasses() []ClassReport {
	return []ClassReport{
		{Label: "1-4 nodes", MinNodes: 1, MaxNodes: 4},
		{Label: "5-16 nodes", MinNodes: 5, MaxNodes: 16},
		{Label: "17-64 nodes", MinNodes: 17, MaxNodes: 64},
		{Label: "65+ nodes", MinNodes: 65, MaxNodes: 1 << 30},
	}
}

// BySize computes the per-class breakdown of a run using DefaultClasses.
func BySize(res *sim.Result) []ClassReport {
	return ByClasses(res, DefaultClasses())
}

// ByClasses computes the breakdown over caller-provided classes. Jobs whose
// size falls in no class are ignored.
func ByClasses(res *sim.Result, classes []ClassReport) []ClassReport {
	out := make([]ClassReport, len(classes))
	copy(out, classes)
	if res == nil || len(res.Jobs) == 0 {
		return out
	}
	var all fold
	type accum struct {
		fold
		wait   float64
		failed int
	}
	accums := make([]accum, len(out))
	for k := range res.Jobs {
		j := &res.Jobs[k]
		all.record(j)
		for i := range out {
			if j.Nodes < out[i].MinNodes || j.Nodes > out[i].MaxNodes {
				continue
			}
			a := &accums[i]
			a.record(j)
			if j.FailuresSuffered > 0 {
				a.failed++
			}
			a.wait += j.LastStart.Sub(j.Arrival).Seconds()
			out[i].Jobs++
			out[i].LostWork += j.LostWork
			break
		}
	}
	for i := range out {
		a := &accums[i]
		if out[i].Jobs == 0 {
			continue
		}
		n := float64(out[i].Jobs)
		out[i].QoS = a.qos()
		if all.work > 0 {
			out[i].WorkShare = a.work / all.work
		}
		out[i].MissRate = float64(a.missed) / n
		out[i].FailureRate = float64(a.failed) / n
		out[i].MeanWaitSeconds = a.wait / n
	}
	return out
}
