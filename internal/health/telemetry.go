// Package health implements the §3.1 substrate the idealized predictor
// abstracts away: per-node telemetry (temperature, load) and a monitoring
// model that turns telemetry plus low-severity RAS events into failure-risk
// estimates. The paper's §3.2 describes the real mechanism as "linear time
// series models for the roughly continuous variables (e.g. node temperature
// and load) and Bayesian correlation models to recognize patterns in
// preceding system events"; this package provides a working (synthetic)
// version of that pipeline, auditable against the ground-truth trace.
package health

import (
	"fmt"
	"math"
	"sort"

	"probqos/internal/failure"
	"probqos/internal/stats"
	"probqos/internal/units"
)

// Sample is one telemetry reading from one node.
type Sample struct {
	Time units.Time
	// Temperature in °C.
	Temperature float64
	// Load is the node's utilization-ish signal in [0, 1].
	Load float64
}

// Telemetry holds regularly sampled per-node signals.
type Telemetry struct {
	perNode [][]Sample // ascending in time
}

// TelemetryConfig parameterizes the synthetic telemetry generator.
type TelemetryConfig struct {
	// Nodes is the cluster size. Defaults to 128.
	Nodes int
	// Span is the covered duration. Defaults to one year.
	Span units.Duration
	// Interval is the sampling period. Defaults to 10 minutes.
	Interval units.Duration
	// Seed selects the random stream.
	Seed int64
	// RampLead is how long before a critical event its thermal ramp
	// builds. Defaults to 2 hours, matching the precursor lead times of
	// the raw-log generator.
	RampLead units.Duration
}

func (c TelemetryConfig) withDefaults() TelemetryConfig {
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	if c.Span == 0 {
		c.Span = units.Year
	}
	if c.Interval == 0 {
		c.Interval = 10 * units.Minute
	}
	if c.RampLead == 0 {
		c.RampLead = 2 * units.Hour
	}
	return c
}

// Generate synthesizes telemetry consistent with a raw RAS log: each
// node's temperature is a noisy diurnal baseline, with a thermal ramp
// building toward every critical event on the node (failures physically
// announce themselves in the continuous signals — that is what makes
// §3.2's time-series models work at all).
func Generate(cfg TelemetryConfig, raw []failure.RawEvent) (*Telemetry, error) {
	cfg = cfg.withDefaults()
	if cfg.Interval <= 0 || cfg.Span <= 0 {
		return nil, fmt.Errorf("health: telemetry needs positive span and interval")
	}
	src := stats.NewSource(cfg.Seed ^ 0x11c3a97)
	noise := src.Split("noise")
	base := src.Split("base")

	// Critical instants per node drive the ramps.
	criticalAt := make([][]units.Time, cfg.Nodes)
	for _, e := range raw {
		if e.Severity >= failure.Fatal && e.Node >= 0 && e.Node < cfg.Nodes {
			criticalAt[e.Node] = append(criticalAt[e.Node], e.Time)
		}
	}
	for n := range criticalAt {
		sort.Slice(criticalAt[n], func(i, j int) bool { return criticalAt[n][i] < criticalAt[n][j] })
	}

	t := &Telemetry{perNode: make([][]Sample, cfg.Nodes)}
	samples := int(cfg.Span / cfg.Interval)
	day := units.Day.Seconds()
	for n := 0; n < cfg.Nodes; n++ {
		baseTemp := 42 + base.Norm(0, 2)
		series := make([]Sample, 0, samples)
		next := 0
		for k := 0; k < samples; k++ {
			at := units.Time(k) * units.Time(cfg.Interval)
			for next < len(criticalAt[n]) && criticalAt[n][next] < at {
				next++
			}
			temp := baseTemp +
				1.5*math.Sin(2*math.Pi*float64(at)/day) + // machine-room diurnal cycle
				noise.Norm(0, 0.6)
			load := 0.55 + 0.25*math.Sin(2*math.Pi*float64(at)/day+1) + noise.Norm(0, 0.08)
			if load < 0 {
				load = 0
			}
			if load > 1 {
				load = 1
			}
			// Thermal ramp toward the next critical event on this node.
			if next < len(criticalAt[n]) {
				lead := criticalAt[n][next].Sub(at)
				if lead >= 0 && lead <= cfg.RampLead {
					frac := 1 - lead.Seconds()/cfg.RampLead.Seconds()
					temp += 9 * frac
				}
			}
			series = append(series, Sample{Time: at, Temperature: temp, Load: load})
		}
		t.perNode[n] = series
	}
	return t, nil
}

// Nodes returns the number of nodes covered.
func (t *Telemetry) Nodes() int { return len(t.perNode) }

// Window returns the node's samples with Time in [from, to).
func (t *Telemetry) Window(node int, from, to units.Time) []Sample {
	series := t.perNode[node]
	lo := sort.Search(len(series), func(i int) bool { return series[i].Time >= from })
	hi := sort.Search(len(series), func(i int) bool { return series[i].Time >= to })
	return series[lo:hi]
}

// Slope returns the least-squares temperature slope (°C per hour) of the
// node's samples in [from, to), and false if fewer than three samples are
// available.
func (t *Telemetry) Slope(node int, from, to units.Time) (float64, bool) {
	window := t.Window(node, from, to)
	if len(window) < 3 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	for _, s := range window {
		x := s.Time.Sub(from).Hours()
		sx += x
		sy += s.Temperature
		sxx += x * x
		sxy += x * s.Temperature
	}
	n := float64(len(window))
	// den is nonnegative up to rounding (Cauchy–Schwarz); treat cancellation
	// noise below zero as the same degenerate window as exact zero.
	den := n*sxx - sx*sx
	if den <= 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}
