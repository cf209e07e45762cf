// Package checkpoint implements the cooperative checkpointing mechanism of
// §3.4: applications request a checkpoint every interval I, and a policy
// decides per request whether to perform it (paying overhead C) or skip it,
// using the predicted partition failure probability and the job's deadline.
package checkpoint

import (
	"fmt"
	"strings"

	"probqos/internal/units"
)

// Params are the system-wide checkpointing constants (Table 2 defaults:
// I = 3600 s, C = 720 s; checkpoint latency L ≈ C and recovery R = 0 are
// folded in as in the paper).
type Params struct {
	// Interval is the time I between the completion of one checkpoint
	// request and the next request.
	Interval units.Duration
	// Overhead is the cost C of performing one checkpoint.
	Overhead units.Duration
}

// DefaultParams returns the paper's Table 2 checkpoint constants.
func DefaultParams() Params {
	return Params{Interval: units.Hour, Overhead: 12 * units.Minute}
}

// Validate reports an error for non-positive parameters.
func (p Params) Validate() error {
	if p.Interval <= 0 {
		return fmt.Errorf("checkpoint: interval must be positive, got %v", p.Interval)
	}
	if p.Overhead <= 0 {
		return fmt.Errorf("checkpoint: overhead must be positive, got %v", p.Overhead)
	}
	return nil
}

// Request is the decision context the simulator assembles for one
// checkpoint request by one job.
type Request struct {
	// Now is the request instant b_i.
	Now units.Time
	// PFail is the predicted probability that the job's partition fails
	// before the next checkpoint would complete (f_{i+1}).
	PFail float64
	// Params are the system checkpoint constants.
	Params Params
	// AtRiskIntervals is d: the number of whole intervals of progress that
	// would be lost if the partition failed now, i.e. requests since the
	// last performed checkpoint, counting this one (d = 1 right after a
	// performed checkpoint).
	AtRiskIntervals int
	// Deadline is the job's negotiated deadline.
	Deadline units.Time
	// EstFinishIfPerform and EstFinishIfSkip are the job's estimated
	// completion times if this checkpoint is performed or skipped,
	// assuming no failures.
	EstFinishIfPerform units.Time
	EstFinishIfSkip    units.Time
}

// Policy decides whether to perform a requested checkpoint.
type Policy interface {
	// ShouldCheckpoint reports whether the request should be performed.
	ShouldCheckpoint(req Request) bool
	// Name identifies the policy in reports.
	Name() string
}

// Periodic performs every requested checkpoint: classic periodic
// checkpointing, the non-cooperative baseline.
type Periodic struct{}

// ShouldCheckpoint implements Policy.
func (Periodic) ShouldCheckpoint(Request) bool { return true }

// Name implements Policy.
func (Periodic) Name() string { return "periodic" }

// Never skips every checkpoint. With it, any failure rolls a job back to
// its start; it bounds the value of checkpointing from below.
type Never struct{}

// ShouldCheckpoint implements Policy.
func (Never) ShouldCheckpoint(Request) bool { return false }

// Name implements Policy.
func (Never) Name() string { return "never" }

// policies names the policies ParsePolicy selects, in the order its error
// lists them.
var policies = []struct {
	name   string
	policy Policy
}{
	{"risk", RiskBased{}},
	{"periodic", Periodic{}},
	{"never", Never{}},
}

// ParsePolicy returns the policy a short name selects: "risk" (the
// paper's Equation 1), "periodic", or "never".
func ParsePolicy(name string) (Policy, error) {
	names := make([]string, len(policies))
	for i, p := range policies {
		if p.name == name {
			return p.policy, nil
		}
		names[i] = p.name
	}
	return nil, fmt.Errorf("unknown policy %q (one of %s)", name, strings.Join(names, ", "))
}

// RiskBased is the paper's risk-based cooperative policy (Equation 1):
// perform the checkpoint iff the expected loss from skipping exceeds its
// cost, pf·d·I >= C.
type RiskBased struct{}

// ShouldCheckpoint implements Policy.
func (RiskBased) ShouldCheckpoint(req Request) bool {
	d := req.AtRiskIntervals
	if d < 1 {
		d = 1
	}
	return req.PFail*float64(d)*req.Params.Interval.Seconds() >= req.Params.Overhead.Seconds()
}

// Name implements Policy.
func (RiskBased) Name() string { return "risk-based" }

// DeadlineOverride wraps a policy with the paper's deadline rule: even if
// the base policy would perform the checkpoint, skip it when skipping might
// let the job meet a deadline that performing would miss.
type DeadlineOverride struct {
	// Base is the wrapped policy.
	Base Policy
}

// ShouldCheckpoint implements Policy.
func (p DeadlineOverride) ShouldCheckpoint(req Request) bool {
	if !p.Base.ShouldCheckpoint(req) {
		return false
	}
	if req.EstFinishIfPerform.After(req.Deadline) && !req.EstFinishIfSkip.After(req.Deadline) {
		return false
	}
	return true
}

// Name implements Policy.
func (p DeadlineOverride) Name() string { return p.Base.Name() + "+deadline-skip" }
