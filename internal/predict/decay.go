package predict

import (
	"fmt"
	"math"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// Decaying wraps the trace predictor with a forecast horizon: §3.3 notes
// that "in practice, predictions are less accurate as they stretch further
// into the future", which the idealized simulator ignores. Decaying models
// it by shrinking the effective accuracy exponentially with how far past
// the window start a failure lies:
//
//	a_eff(t) = a0 * 2^(-(t - from)/halfLife)
//
// A failure is detected iff its detectability p_x <= a_eff(t). At
// halfLife -> infinity this reduces to the paper's static predictor. The
// window start stands in for "now": reservations are priced when they are
// quoted, so risk near the start of the window is near-term risk.
type Decaying struct {
	trace    *failure.Trace
	accuracy float64
	halfLife units.Duration
}

// NewDecaying builds a horizon-limited trace predictor. halfLife must be
// positive; accuracy a0 follows the usual [0, 1] rule.
func NewDecaying(tr *failure.Trace, a0 float64, halfLife units.Duration) (*Decaying, error) {
	if tr == nil {
		return nil, fmt.Errorf("predict: nil failure trace")
	}
	if a0 < 0 || a0 > 1 || math.IsNaN(a0) {
		return nil, fmt.Errorf("predict: accuracy %v outside [0,1]", a0)
	}
	if halfLife <= 0 {
		return nil, fmt.Errorf("predict: half-life must be positive, got %v", halfLife)
	}
	return &Decaying{trace: tr, accuracy: a0, halfLife: halfLife}, nil
}

// effective returns the accuracy applied to a failure at instant t for a
// window starting at from.
func (p *Decaying) effective(from units.Time, t units.Time) float64 {
	if t <= from {
		return p.accuracy
	}
	return p.accuracy * math.Exp2(-t.Sub(from).Seconds()/p.halfLife.Seconds())
}

// PFail implements Predictor: the detectability of the first failure in
// the window detectable at its horizon-degraded accuracy.
func (p *Decaying) PFail(nodes []int, from, to units.Time) float64 {
	e, _ := p.FirstDetectable(nodes, from, to)
	return e.Detectability
}

// AppendPFailNodes implements Predictor. The decayed threshold rules out a
// segment-tree descent (there is no fixed detectability cutoff), but the
// batch still answers every node in one call through allocation-free
// per-node walks.
func (p *Decaying) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	for _, n := range nodes {
		dst = append(dst, p.pfailNode(n, from, to))
	}
	return dst
}

// pfailNode is PFail for one node: the walk over the node's own index,
// which needs no node slice and no multi-node merge.
func (p *Decaying) pfailNode(node int, from, to units.Time) float64 {
	var px float64
	p.trace.ScanNode(node, from, to, func(e failure.Event) bool {
		if e.Detectability <= p.effective(from, e.Time) {
			px = e.Detectability
			return false
		}
		return true
	})
	return px
}

// FirstDetectable implements Locator under the decayed rule, so the
// negotiator can still step past located failures.
func (p *Decaying) FirstDetectable(nodes []int, from, to units.Time) (failure.Event, bool) {
	var (
		hit   failure.Event
		found bool
	)
	p.trace.Scan(nodes, from, to, func(e failure.Event) bool {
		if e.Detectability <= p.effective(from, e.Time) {
			hit, found = e, true
			return false
		}
		return true
	})
	return hit, found
}
