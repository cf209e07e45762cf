package health

import (
	"fmt"
	"math"
	"sort"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// Monitor is a working (non-oracle) failure predictor in the style the
// paper describes in §3.2: it combines a linear time-series signal (the
// recent temperature slope) with an event-correlation signal (the recent
// rate of WARNING/ERROR events) into a per-node hazard score, and converts
// scores into a partition failure probability.
//
// Unlike the idealized trace predictor, the Monitor only looks at
// telemetry and events before the queried window's start: it has a real
// forecast horizon, produces false positives, and misses failures without
// precursors. It implements predict.Predictor.
//
// One idealization remains, shared with the paper's own simulator: a quote
// for a reservation starting in the future is evaluated against the
// history available just before that start, standing in for the
// re-evaluation a live system would perform as the start approaches. (The
// paper: "In practice, predictions are less accurate as they stretch
// further into the future ... the simulator, however, suffers from no such
// problem.")
type Monitor struct {
	telemetry *Telemetry
	// warnings[node] holds the times of non-critical precursor events.
	warnings [][]units.Time

	lookback     units.Duration
	slopeWeight  float64
	warnWeight   float64
	minSlope     float64
	horizon      units.Duration
	maxPrognosis float64
}

// MonitorConfig tunes the monitoring model.
type MonitorConfig struct {
	// Lookback is how much history before a window's start feeds the
	// model. Defaults to 4 hours.
	Lookback units.Duration
	// Horizon is the decay scale of the model's confidence with forecast
	// distance: risk halves every Horizon between the last observable
	// instant and the window start. Defaults to 6 hours.
	Horizon units.Duration
	// SlopeWeight and WarnWeight scale the two signals. Defaults 0.35 per
	// °C/hour of slope above MinSlope and 0.30 per precursor event beyond
	// the first.
	SlopeWeight, WarnWeight float64
	// MinSlope is the alarm threshold in °C/hour: slopes below it are
	// treated as noise (sampling noise and the diurnal cycle produce
	// slopes up to ~0.5 °C/h). Defaults to 1.5.
	MinSlope float64
	// MaxPrognosis caps the per-node probability; a monitoring model
	// should not claim certainty. Defaults to 0.95.
	MaxPrognosis float64
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Lookback == 0 {
		c.Lookback = 4 * units.Hour
	}
	if c.Horizon == 0 {
		c.Horizon = 6 * units.Hour
	}
	if c.SlopeWeight <= 0 {
		c.SlopeWeight = 0.35
	}
	if c.WarnWeight <= 0 {
		c.WarnWeight = 0.30
	}
	if c.MinSlope <= 0 {
		c.MinSlope = 1.5
	}
	if c.MaxPrognosis <= 0 {
		c.MaxPrognosis = 0.95
	}
	return c
}

// NewMonitor builds the monitoring model over telemetry and the raw RAS
// log (from which only non-critical events are consumed — the monitor must
// not see the failures it is trying to predict).
func NewMonitor(t *Telemetry, raw []failure.RawEvent, cfg MonitorConfig) (*Monitor, error) {
	if t == nil {
		return nil, fmt.Errorf("health: monitor needs telemetry")
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		telemetry:    t,
		warnings:     make([][]units.Time, t.Nodes()),
		lookback:     cfg.Lookback,
		slopeWeight:  cfg.SlopeWeight,
		warnWeight:   cfg.WarnWeight,
		minSlope:     cfg.MinSlope,
		horizon:      cfg.Horizon,
		maxPrognosis: cfg.MaxPrognosis,
	}
	for _, e := range raw {
		if e.Severity == failure.Warning || e.Severity == failure.Error {
			if e.Node >= 0 && e.Node < t.Nodes() {
				m.warnings[e.Node] = append(m.warnings[e.Node], e.Time)
			}
		}
	}
	for n := range m.warnings {
		sort.Slice(m.warnings[n], func(i, j int) bool { return m.warnings[n][i] < m.warnings[n][j] })
	}
	return m, nil
}

// nodeScore is the raw hazard score of one node using only data in
// [asOf-lookback, asOf).
func (m *Monitor) nodeScore(node int, asOf units.Time) float64 {
	from := asOf.Add(-m.lookback)
	score := 0.0
	if slope, ok := m.telemetry.Slope(node, from, asOf); ok && slope > m.minSlope {
		score += m.slopeWeight * (slope - m.minSlope)
	}
	warns := m.warnings[node]
	lo := sort.Search(len(warns), func(i int) bool { return warns[i] >= from })
	hi := sort.Search(len(warns), func(i int) bool { return warns[i] >= asOf })
	// A single warning in four hours is background chatter; the
	// correlation signal is a burst of them.
	if count := hi - lo; count > 1 {
		score += m.warnWeight * float64(count-1)
	}
	return score
}

// PFail implements predict.Predictor: the probability that some node in
// the set fails during [from, to), estimated from the observable history
// before from and discounted by forecast distance. The last telemetry
// sample before from is the model's "now"; risk decays with how far past
// it the window reaches.
func (m *Monitor) PFail(nodes []int, from, to units.Time) float64 {
	if to <= from {
		return 0
	}
	survive := 1.0
	for _, n := range nodes {
		if n < 0 || n >= m.telemetry.Nodes() {
			continue
		}
		survive *= 1 - m.nodeRisk(n, from)
	}
	return m.decayRisk(1-survive, from, to)
}

// AppendPFailNodes implements predict.Predictor: each node's single-node
// estimate, what PFail returns for that node alone, without the partition
// loop. A node outside the telemetry is risk-free.
func (m *Monitor) AppendPFailNodes(dst []float64, nodes []int, from, to units.Time) []float64 {
	for _, n := range nodes {
		survive := 1.0
		if to > from && n >= 0 && n < m.telemetry.Nodes() {
			survive = 1 - m.nodeRisk(n, from)
		}
		dst = append(dst, m.decayRisk(1-survive, from, to))
	}
	return dst
}

// nodeRisk converts one node's hazard score into a capped probability.
func (m *Monitor) nodeRisk(node int, asOf units.Time) float64 {
	p := 1 - math.Exp(-m.nodeScore(node, asOf))
	if p > m.maxPrognosis {
		p = m.maxPrognosis
	}
	return p
}

// decayRisk applies the forecast-distance discount: confidence decays for
// windows far from the observed signal — a prognosis is about the near
// future.
func (m *Monitor) decayRisk(risk float64, from, to units.Time) float64 {
	width := to.Sub(from)
	if width > m.horizon {
		risk *= math.Exp2(-float64(width-m.horizon) / float64(m.horizon))
	}
	return risk
}
