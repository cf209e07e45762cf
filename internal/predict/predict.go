// Package predict implements the event-prediction mechanism of §3.2/§4.3:
// given a set of nodes (a partition) and a future time window, a Predictor
// estimates the probability that some node in the set suffers a critical
// failure during the window.
package predict

import (
	"fmt"
	"math"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// Predictor forecasts partition failures. Implementations must be
// deterministic: repeated calls with equal arguments return equal values
// (the paper's simulations rely on this, §4.3).
type Predictor interface {
	// PFail returns the estimated probability that at least one of the
	// nodes fails in [from, to).
	PFail(nodes []int, from, to units.Time) float64
	// AppendPFailNodes appends, for each node in order, the probability
	// that this node alone fails in [from, to) to dst and returns the
	// extended slice. Each appended value must equal PFail([]int{node},
	// from, to). The scheduler scores every free node at every candidate
	// start through this one call, so implementations answer the whole set
	// in a single pass and reuse dst's spare capacity.
	AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64
}

// Locator is the optional capability of a predictor that can name the
// failure behind its forecast. The negotiator uses it to propose the next
// deadline past that failure; without it the negotiator defers the start
// exponentially.
type Locator interface {
	// FirstDetectable returns the earliest failure in [from, to) on any of
	// the nodes that the predictor sees, if any.
	FirstDetectable(nodes []int, from, to units.Time) (failure.Event, bool)
}

// Null is the no-forecasting predictor: it always reports zero risk. It is
// the "system that does not use event prediction" baseline.
type Null struct{}

// PFail always returns 0.
func (Null) PFail([]int, units.Time, units.Time) float64 { return 0 }

// AppendPFailNodes appends one zero per node.
func (Null) AppendPFailNodes(dst []float64, nodes []int, _, _ units.Time) []float64 {
	for range nodes {
		dst = append(dst, 0)
	}
	return dst
}

// Trace is the deterministic trace-driven predictor of §4.3. Every failure
// in the trace carries a static detectability p_x in [0,1]. Queried over a
// window, the predictor walks the window's failures in time order and
// returns the p_x of the first one with p_x <= a (the accuracy); if none
// qualifies it returns 0.
//
// Consequences, as in the paper: the false-positive rate is 0, the
// false-negative rate is 1-a, and no prediction ever exceeds a — a
// low-accuracy predictor does not make predictions with high confidence.
type Trace struct {
	trace    *failure.Trace
	accuracy float64
}

// NewTrace builds a trace predictor with accuracy a in [0, 1].
func NewTrace(tr *failure.Trace, a float64) (*Trace, error) {
	if tr == nil {
		return nil, fmt.Errorf("predict: nil failure trace")
	}
	if a < 0 || a > 1 || math.IsNaN(a) {
		return nil, fmt.Errorf("predict: accuracy %v outside [0,1]", a)
	}
	return &Trace{trace: tr, accuracy: a}, nil
}

// PFail implements Predictor: the detectability of the earliest failure
// in the window with p_x <= a, answered by the trace's segment-tree pass
// without merge-walking the undetectable events a Scan visits.
func (p *Trace) PFail(nodes []int, from, to units.Time) float64 {
	e, _ := p.FirstDetectable(nodes, from, to)
	return e.Detectability
}

// AppendPFailNodes implements Predictor: every node answered in one pass
// over the trace index.
func (p *Trace) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	return p.trace.AppendPFailBatch(dst, nodes, from, to, p.accuracy)
}

// FirstDetectable implements Locator: the first failure in the window the
// predictor can see.
func (p *Trace) FirstDetectable(nodes []int, from, to units.Time) (failure.Event, bool) {
	return p.trace.FirstDetectableOnNodes(nodes, from, to, p.accuracy)
}

// BaseRate is the exponential (memoryless) hazard implied by a per-node
// MTBF, with no knowledge of individual failures:
// PFail = 1 - exp(-n * w / MTBF). It is the purely statistical estimate
// the paper contrasts trace-driven prediction with; the simulator uses it
// as the floor under checkpoint decisions. It prices partitions only and
// is not a Predictor.
type BaseRate struct {
	nodeMTBF units.Duration
}

// NewBaseRate builds the hazard of a per-node MTBF.
func NewBaseRate(nodeMTBF units.Duration) (*BaseRate, error) {
	if nodeMTBF <= 0 {
		return nil, fmt.Errorf("predict: node MTBF must be positive, got %v", nodeMTBF)
	}
	return &BaseRate{nodeMTBF: nodeMTBF}, nil
}

// NewBaseRateFromTrace derives the per-node MTBF from a trace's statistics.
func NewBaseRateFromTrace(tr *failure.Trace) (*BaseRate, error) {
	s := tr.Stats()
	if s.NodeMTBF <= 0 {
		return nil, fmt.Errorf("predict: trace too short to estimate a node MTBF")
	}
	return NewBaseRate(s.NodeMTBF)
}

// PFail returns the probability that at least one of the nodes fails in
// [from, to) under the MTBF hazard.
func (p *BaseRate) PFail(nodes []int, from, to units.Time) float64 {
	if to <= from {
		return 0
	}
	w := to.Sub(from).Seconds()
	return 1 - math.Exp(-float64(len(nodes))*w/p.nodeMTBF.Seconds())
}
