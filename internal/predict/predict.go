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
}

// NodePredictor is the optional single-node fast path. The scheduler scores
// every free node at every candidate start, so this query dominates the
// quote path; implementations answer it without building a node slice or
// running the multi-node merge, and must return exactly what
// PFail([]int{node}, from, to) would.
type NodePredictor interface {
	// PFailNode returns the estimated probability that the node fails in
	// [from, to).
	PFailNode(node int, from, to units.Time) float64
}

// PFailNode queries p for a single node through its fast path when it has
// one, falling back to the general interface otherwise. Callers on a hot
// loop should type-assert NodePredictor once instead.
func PFailNode(p Predictor, node int, from, to units.Time) float64 {
	if np, ok := p.(NodePredictor); ok {
		return np.PFailNode(node, from, to)
	}
	return p.PFail([]int{node}, from, to)
}

// BatchNodePredictor is the optional batched scoring path: one call answers
// the single-node query for every node in the slice, appending one
// probability per node to dst (in node-slice order) and returning the
// extended slice. The scheduler scores every free node at every candidate
// start; answering the whole set in one pass removes a per-node interface
// call from the hottest loop in the system. Implementations must append
// exactly what PFailNode would return for each node.
type BatchNodePredictor interface {
	// AppendPFailNodes appends PFailNode(node, from, to) for each node to
	// dst and returns the extended slice.
	AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64
}

// Null is the no-forecasting predictor: it always reports zero risk. It is
// the "system that does not use event prediction" baseline.
type Null struct{}

// PFail always returns 0.
func (Null) PFail([]int, units.Time, units.Time) float64 { return 0 }

// PFailNode always returns 0.
func (Null) PFailNode(int, units.Time, units.Time) float64 { return 0 }

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

// PFail implements Predictor. The multi-node query is answered by the
// trace's batched segment-tree pass: the earliest detectable event across
// the partition, without merge-walking the undetectable events a Scan
// visits (or its per-call cursor allocation).
func (p *Trace) PFail(nodes []int, from, to units.Time) float64 {
	if len(nodes) == 1 {
		return p.PFailNode(nodes[0], from, to)
	}
	if e, ok := p.trace.FirstDetectableOnNodes(nodes, from, to, p.accuracy); ok {
		return e.Detectability
	}
	return 0
}

// PFailNode implements NodePredictor: "first failure in the window with
// p_x <= a" is answered straight from the trace's per-node detectability
// index, skipping the undetectable events a scan would visit.
func (p *Trace) PFailNode(node int, from, to units.Time) float64 {
	if e, ok := p.trace.FirstDetectableOnNode(node, from, to, p.accuracy); ok {
		return e.Detectability
	}
	return 0
}

// AppendPFailNodes implements BatchNodePredictor: every node answered in
// one pass over the trace index.
func (p *Trace) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	return p.trace.AppendPFailBatch(dst, nodes, from, to, p.accuracy)
}

// FirstDetectable returns the first failure in the window the predictor can
// see, if any. The negotiation layer uses it to propose deadlines past the
// predicted failure.
func (p *Trace) FirstDetectable(nodes []int, from, to units.Time) (failure.Event, bool) {
	return p.trace.FirstDetectableOnNodes(nodes, from, to, p.accuracy)
}

// BaseRate predicts from the exponential (memoryless) hazard implied by a
// per-node MTBF, with no knowledge of individual failures:
// PFail = 1 - exp(-n * w / MTBF). It is the purely statistical forecaster
// the paper contrasts trace-driven prediction with.
type BaseRate struct {
	nodeMTBF units.Duration
}

// NewBaseRate builds a base-rate predictor from a per-node MTBF.
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

// PFail implements Predictor.
func (p *BaseRate) PFail(nodes []int, from, to units.Time) float64 {
	if to <= from {
		return 0
	}
	w := to.Sub(from).Seconds()
	return 1 - math.Exp(-float64(len(nodes))*w/p.nodeMTBF.Seconds())
}

// PFailNode implements NodePredictor.
func (p *BaseRate) PFailNode(_ int, from, to units.Time) float64 {
	if to <= from {
		return 0
	}
	w := to.Sub(from).Seconds()
	return 1 - math.Exp(-w/p.nodeMTBF.Seconds())
}

// AppendPFailNodes implements BatchNodePredictor: the hazard is the same
// for every node, so the exponential is evaluated once per batch.
func (p *BaseRate) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	v := p.PFailNode(0, from, to)
	for range nodes {
		dst = append(dst, v)
	}
	return dst
}

// Max combines predictors by taking the largest estimate. Blending the
// trace predictor with a base-rate floor gives the "cooperative" checkpoint
// policy a hazard estimate even when no specific failure is forecast.
type Max struct {
	preds []Predictor
	// nodePreds[i] is preds[i]'s fast path, or nil; resolved once here so
	// PFailNode does no per-call type assertions.
	nodePreds []NodePredictor
}

// NewMax combines the given predictors. At least one is required.
func NewMax(preds ...Predictor) (*Max, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("predict: Max needs at least one predictor")
	}
	m := &Max{preds: preds, nodePreds: make([]NodePredictor, len(preds))}
	for i, sub := range preds {
		if np, ok := sub.(NodePredictor); ok {
			m.nodePreds[i] = np
		}
	}
	return m, nil
}

// PFail implements Predictor.
func (p *Max) PFail(nodes []int, from, to units.Time) float64 {
	if len(nodes) == 1 {
		return p.PFailNode(nodes[0], from, to)
	}
	var best float64
	for _, sub := range p.preds {
		if v := sub.PFail(nodes, from, to); v > best {
			best = v
		}
	}
	return best
}

// PFailNode implements NodePredictor: the largest single-node estimate,
// using each sub-predictor's fast path where it exists.
func (p *Max) PFailNode(node int, from, to units.Time) float64 {
	var best float64
	for i, sub := range p.preds {
		var v float64
		if np := p.nodePreds[i]; np != nil {
			v = np.PFailNode(node, from, to)
		} else {
			v = sub.PFail([]int{node}, from, to)
		}
		if v > best {
			best = v
		}
	}
	return best
}

// AppendPFailNodes implements BatchNodePredictor: the per-node maximum over
// the sub-predictors, kept stateless so a shared Max stays safe under
// concurrent sweep workers.
func (p *Max) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	for _, n := range nodes {
		dst = append(dst, p.PFailNode(n, from, to))
	}
	return dst
}
