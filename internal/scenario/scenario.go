// Package scenario is the declarative scenario harness: a small, stdlib-only
// YAML-subset format (so files read like fleet-simulator scenarios, comments
// included) describing a fleet, a timeline of events, and assertions over
// the outcome, compiled deterministically onto the sim.Engine primitives.
//
// A scenario has three sections:
//
//   - fleet: the cluster under test — node count, background failure model
//     (cluster MTBF with Weibull inter-failure gaps), checkpoint costs,
//     prediction accuracy, and the scheduler/policy switches the simulator
//     already exposes.
//   - events: a timeline of timed operations — arrival_burst,
//     inject_failure, maintenance_window, mtbf_shift, drain — applied in
//     order on the engine's virtual clock.
//   - assertions: declarative checks evaluated against the final report —
//     QoS floor, promise-keeping rate (via the metrics.Ledger), utilization
//     band, lost-work ceiling.
//
// Everything is a pure function of the scenario text: the background
// failure trace, burst job parameters, and injected failures all derive
// from the scenario seed, so one scenario file pins one byte-exact report
// (the golden zoo under zoo/ is checked exactly that way in CI).
package scenario

import (
	"fmt"
	"math"

	"probqos/internal/checkpoint"
	"probqos/internal/units"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	// Name identifies the scenario in reports and golden files.
	Name string `json:"name"`
	// Description says what the scenario exercises. Informational.
	Description string `json:"description,omitempty"`
	// Seed selects every deterministic random stream the scenario uses:
	// the background failure trace and burst job shapes.
	Seed int64 `json:"seed"`
	// Fleet is the cluster under test.
	Fleet Fleet `json:"fleet"`
	// Events is the timeline, ordered by non-decreasing At.
	Events []Event `json:"events"`
	// Asserts are the declarative checks on the final report.
	Asserts []Assertion `json:"assertions,omitempty"`
}

// Fleet is the cluster definition section.
type Fleet struct {
	// Nodes is the cluster size N.
	Nodes int `json:"nodes"`
	// RackSize partitions nodes into racks [k*RackSize, (k+1)*RackSize) for
	// rack-targeted events. Zero means rack targeting is unavailable.
	RackSize int `json:"rack_size,omitempty"`
	// Accuracy is the event-prediction accuracy a in [0, 1].
	Accuracy float64 `json:"accuracy"`
	// UserRisk is the default user strategy U in [0, 1]; bursts may
	// override it per event.
	UserRisk float64 `json:"user_risk"`
	// Checkpoint holds the interval I and overhead C.
	Checkpoint checkpoint.Params `json:"checkpoint"`
	// Downtime is the per-failure node restart time.
	Downtime units.Duration `json:"downtime_s"`
	// Policy names the checkpoint policy: "risk", "periodic", or "never".
	Policy string `json:"policy"`
	// FaultAware, DeadlineSkip, and BaseRateFloor are the simulator's
	// scheduling/checkpointing switches (all default on).
	FaultAware    bool `json:"fault_aware"`
	DeadlineSkip  bool `json:"deadline_skip"`
	BaseRateFloor bool `json:"base_rate_floor"`
	// Failures is the background failure model visible to the predictor.
	Failures FailureModel `json:"failures"`
}

// FailureModel parameterizes the background failure trace: cluster-wide
// Weibull inter-failure gaps at a target MTBF, over a fixed horizon. The
// trace is generated from the scenario seed and handed to the predictor,
// so quotes price these failures in (at the fleet's accuracy); timeline
// inject_failure events, by contrast, are invisible surprises.
type FailureModel struct {
	// MTBF is the cluster-wide mean time between failures. Zero disables
	// background failures entirely.
	MTBF units.Duration `json:"mtbf_s,omitempty"`
	// Shape is the Weibull shape of inter-failure gaps; shape < 1 gives
	// bursty, heavy-tailed arrivals. Defaults to 1 (exponential).
	Shape float64 `json:"shape,omitempty"`
	// Horizon bounds background failure generation. Zero means the last
	// timeline event plus two weeks.
	Horizon units.Duration `json:"horizon_s,omitempty"`
}

// Event actions.
const (
	ActionArrivalBurst = "arrival_burst"
	ActionInjectFail   = "inject_failure"
	ActionMaintenance  = "maintenance_window"
	ActionMTBFShift    = "mtbf_shift"
	ActionDrain        = "drain"
)

// Event is one timeline entry. Exactly one of the action payloads is
// non-nil, matching Action (Drain carries none).
type Event struct {
	// At is the virtual instant the event applies.
	At units.Time `json:"at_s"`
	// Action is one of the Action* constants.
	Action string `json:"action"`

	Burst       *Burst       `json:"burst,omitempty"`
	Inject      *Inject      `json:"inject,omitempty"`
	Maintenance *Maintenance `json:"maintenance,omitempty"`
	Shift       *Shift       `json:"shift,omitempty"`
}

// Burst is an arrival_burst payload: Jobs job submissions spread evenly
// over Spread starting at the event instant, each negotiating quotes and
// admitting the earliest one whose promise clears the user risk.
type Burst struct {
	Jobs int `json:"jobs"`
	// MinNodes..MaxNodes is the inclusive job size range.
	MinNodes int `json:"min_nodes"`
	MaxNodes int `json:"max_nodes"`
	// MinExec..MaxExec is the inclusive checkpoint-free execution range.
	MinExec units.Duration `json:"min_exec_s"`
	MaxExec units.Duration `json:"max_exec_s"`
	Spread  units.Duration `json:"spread_s,omitempty"`
	// UserRisk overrides the fleet default for this burst; negative means
	// "use the fleet's".
	UserRisk float64 `json:"user_risk,omitempty"`
}

// Inject is an inject_failure payload: unpredicted failures on the listed
// nodes, staggered Stagger apart starting at the event instant.
type Inject struct {
	Nodes   []int          `json:"nodes"`
	Stagger units.Duration `json:"stagger_s,omitempty"`
}

// Maintenance is a maintenance_window payload: the listed nodes are held
// down for Duration by re-failing each node every fleet downtime (the
// cluster keeps the longest outage, so the window is contiguous).
type Maintenance struct {
	Nodes    []int          `json:"nodes"`
	Duration units.Duration `json:"duration_s"`
}

// Shift is an mtbf_shift payload: from the event instant on, the
// background failure model's MTBF is multiplied by Factor (factors below 1
// mean more frequent failures). Factors are absolute against the fleet
// MTBF, not compounding.
type Shift struct {
	Factor float64 `json:"factor"`
}

// Assertion types.
const (
	AssertQoSFloor        = "qos_floor"        // Min: final QoS >= Min
	AssertPromiseKeeping  = "promise_keeping"  // Min: ledger keeping rate >= Min
	AssertUtilizationBand = "utilization_band" // Min, Max: utilization within [Min, Max]
	AssertMaxLostWork     = "max_lost_work"    // Max: lost work (node-hours) <= Max
	AssertMaxMissRate     = "max_miss_rate"    // Max: deadline miss rate <= Max
	AssertMinCompleted    = "min_completed"    // Min: jobs completed on time >= Min
	AssertHonestPromises  = "honest_promises"  // Slack: every populated ledger bin has observed >= promised - Slack
)

// Assertion is one declarative check. The Min/Max/Slack fields are
// interpreted per Type; see the Assert* constants.
type Assertion struct {
	Type  string  `json:"type"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Slack float64 `json:"slack,omitempty"`
}

// LastEventAt returns the At of the final timeline event (0 if none).
func (s *Scenario) LastEventAt() units.Time {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].At
}

// Validate checks the scenario's semantic invariants: the same rules the
// file binder enforces with source positions, restated for scenarios
// constructed programmatically. NewRunner calls it.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	f := s.Fleet
	switch {
	case f.Nodes <= 0:
		return fmt.Errorf("scenario %s: fleet.nodes must be positive, got %d", s.Name, f.Nodes)
	case f.RackSize < 0 || f.RackSize > f.Nodes:
		return fmt.Errorf("scenario %s: fleet.rack_size %d outside [0,%d]", s.Name, f.RackSize, f.Nodes)
	case f.Accuracy < 0 || f.Accuracy > 1 || math.IsNaN(f.Accuracy):
		return fmt.Errorf("scenario %s: fleet.accuracy %v outside [0,1]", s.Name, f.Accuracy)
	case f.UserRisk < 0 || f.UserRisk > 1 || math.IsNaN(f.UserRisk):
		return fmt.Errorf("scenario %s: fleet.user_risk %v outside [0,1]", s.Name, f.UserRisk)
	case f.Downtime <= 0:
		return fmt.Errorf("scenario %s: fleet.downtime_s must be positive, got %v", s.Name, f.Downtime)
	}
	if err := f.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := checkpoint.ParsePolicy(f.Policy); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	fm := f.Failures
	if fm.MTBF < 0 || fm.Shape < 0 || fm.Horizon < 0 {
		return fmt.Errorf("scenario %s: failure model fields must be non-negative", s.Name)
	}
	if fm.MTBF > 0 && fm.Shape <= 0 {
		return fmt.Errorf("scenario %s: failures.shape must be positive when mtbf is set", s.Name)
	}
	var prev units.Time
	for i, ev := range s.Events {
		if err := s.validateEvent(i, ev); err != nil {
			return err
		}
		if ev.At < prev {
			return fmt.Errorf("scenario %s: events[%d] at %v precedes events[%d]; order events by at", s.Name, i, ev.At, i-1)
		}
		prev = ev.At
	}
	for i, a := range s.Asserts {
		if err := validateAssertion(a); err != nil {
			return fmt.Errorf("scenario %s: assertions[%d]: %w", s.Name, i, err)
		}
	}
	return nil
}

func (s *Scenario) validateEvent(i int, ev Event) error {
	if ev.At < 0 {
		return fmt.Errorf("scenario %s: events[%d] has negative at %v", s.Name, i, ev.At)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: events[%d] (%s): %s", s.Name, i, ev.Action, fmt.Sprintf(format, args...))
	}
	checkNodes := func(nodes []int) error {
		if len(nodes) == 0 {
			return bad("needs at least one target node")
		}
		for _, n := range nodes {
			if n < 0 || n >= s.Fleet.Nodes {
				return bad("node %d outside [0,%d)", n, s.Fleet.Nodes)
			}
		}
		return nil
	}
	switch ev.Action {
	case ActionArrivalBurst:
		b := ev.Burst
		switch {
		case b == nil:
			return bad("missing burst payload")
		case b.Jobs <= 0:
			return bad("jobs must be positive, got %d", b.Jobs)
		case b.MinNodes <= 0 || b.MaxNodes < b.MinNodes || b.MaxNodes > s.Fleet.Nodes:
			return bad("job size range [%d,%d] invalid for a %d-node fleet", b.MinNodes, b.MaxNodes, s.Fleet.Nodes)
		case b.MinExec <= 0 || b.MaxExec < b.MinExec:
			return bad("exec range [%v,%v] invalid", b.MinExec, b.MaxExec)
		case b.Spread < 0:
			return bad("spread_s must be non-negative, got %v", b.Spread)
		case b.UserRisk > 1 || math.IsNaN(b.UserRisk):
			return bad("user_risk %v outside [0,1]", b.UserRisk)
		}
	case ActionInjectFail:
		if ev.Inject == nil {
			return bad("missing inject payload")
		}
		if ev.Inject.Stagger < 0 {
			return bad("stagger_s must be non-negative, got %v", ev.Inject.Stagger)
		}
		return checkNodes(ev.Inject.Nodes)
	case ActionMaintenance:
		m := ev.Maintenance
		if m == nil {
			return bad("missing maintenance payload")
		}
		if m.Duration <= 0 {
			return bad("duration_s must be positive, got %v", m.Duration)
		}
		return checkNodes(m.Nodes)
	case ActionMTBFShift:
		if ev.Shift == nil {
			return bad("missing shift payload")
		}
		if f := ev.Shift.Factor; f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return bad("factor must be a positive finite number, got %v", ev.Shift.Factor)
		}
		if s.Fleet.Failures.MTBF <= 0 {
			return bad("fleet has no background failure model to shift")
		}
	case ActionDrain:
		// No payload.
	default:
		return bad("unknown action")
	}
	return nil
}

func validateAssertion(a Assertion) error {
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("%s %v outside [0,1]", name, v)
		}
		return nil
	}
	switch a.Type {
	case AssertQoSFloor, AssertPromiseKeeping:
		return frac("min", a.Min)
	case AssertUtilizationBand:
		if err := frac("min", a.Min); err != nil {
			return err
		}
		if err := frac("max", a.Max); err != nil {
			return err
		}
		if a.Max < a.Min {
			return fmt.Errorf("max %v below min %v", a.Max, a.Min)
		}
		return nil
	case AssertMaxLostWork:
		if a.Max < 0 || math.IsNaN(a.Max) {
			return fmt.Errorf("max (node-hours) must be non-negative, got %v", a.Max)
		}
		return nil
	case AssertMaxMissRate:
		return frac("max", a.Max)
	case AssertMinCompleted:
		//qoslint:allow floateq integrality check: Trunc(x) == x is exact for every float
		if a.Min < 0 || a.Min != math.Trunc(a.Min) {
			return fmt.Errorf("min must be a non-negative integer, got %v", a.Min)
		}
		return nil
	case AssertHonestPromises:
		return frac("slack", a.Slack)
	default:
		return fmt.Errorf("unknown assertion type %q", a.Type)
	}
}
