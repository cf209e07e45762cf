// Package sim is the event-driven simulator of §4.1: a 128-node cluster
// processes a job log under a failure trace, with negotiation-driven
// deadlines, fault-aware conservative backfilling, and cooperative
// checkpointing. The simulator is single-threaded and fully deterministic.
package sim

import (
	"fmt"
	"math"

	"probqos/internal/checkpoint"
	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Config assembles one simulation run. The zero value is not runnable; use
// DefaultConfig and override fields, then pass to Run.
type Config struct {
	// Workload is the job log to replay.
	Workload *workload.Log
	// Failures is the filtered failure trace driving node failures.
	Failures *failure.Trace
	// Nodes is the cluster size N. Defaults to 128 (Table 2).
	Nodes int
	// Accuracy is the event-prediction accuracy a in [0, 1].
	Accuracy float64
	// UserRisk is the user strategy U in [0, 1] (Equation 3).
	UserRisk float64
	// Checkpoint holds I and C. Defaults to Table 2 (I=3600s, C=720s).
	Checkpoint checkpoint.Params
	// Downtime is the per-failure node restart time. Defaults to 120 s.
	Downtime units.Duration
	// Policy decides checkpoint requests. Defaults to the paper's
	// risk-based rule (Equation 1).
	Policy checkpoint.Policy
	// DeadlineSkip enables the rule that skips an otherwise-performed
	// checkpoint when skipping might save the job's deadline. Default on.
	DeadlineSkip bool
	// FaultAware enables prediction-driven node selection. Default on;
	// turning it off gives the non-fault-aware scheduling baseline.
	FaultAware bool
	// Negotiate enables the user dialog. Default on; off means every user
	// takes the first quote regardless of UserRisk (negotiation ablation).
	Negotiate bool
	// Predictor, when non-nil, replaces the idealized trace predictor for
	// quoting, node selection, and checkpoint decisions — e.g. the working
	// health.Monitor. If it is also a predict.Locator, the negotiator steps
	// past the failures it locates; otherwise deadline extension falls back
	// to exponential deferral. Accuracy and PredictionHalfLife are ignored
	// when a Predictor is supplied.
	Predictor predict.Predictor
	// PredictionHalfLife, when positive, degrades prediction accuracy for
	// failures further in the future (a_eff = a * 2^(-distance/halfLife)),
	// modelling §3.3's remark that real predictions lose accuracy with
	// horizon. Zero keeps the paper's idealized static predictor.
	PredictionHalfLife units.Duration
	// BaseRateFloor blends the trace predictor with the MTBF hazard for
	// checkpoint decisions (pf = max(prediction, base rate)), giving jobs a
	// periodic-like safety net when nothing specific is forecast. Default
	// on: reading Equation 1 with pf = forecast alone would skip every
	// checkpoint whenever no failure is predicted, and long jobs would
	// thrash at low accuracy far beyond the paper's reported lost-work
	// regime (see DESIGN.md §3); the floor restores the paper's baseline
	// behaviour. Turning it off gives the pure-forecast ablation.
	BaseRateFloor bool
	// Probe, when non-nil, receives the run's instrumentation callbacks:
	// every engine event as a Decision (the journal is rendered from
	// these), per-event cluster-state samples, and wall-clock phase
	// timings. internal/obs and internal/eventlog provide the standard
	// implementations; MultiProbe attaches several. A nil Probe costs the
	// run nothing.
	Probe Probe
}

// DefaultConfig returns the paper's Table 2 operating point for the given
// workload and failure trace, with a and U to be chosen by the caller.
func DefaultConfig(w *workload.Log, f *failure.Trace) Config {
	return Config{
		Workload:      w,
		Failures:      f,
		Nodes:         128,
		Checkpoint:    checkpoint.DefaultParams(),
		Downtime:      2 * units.Minute,
		Policy:        checkpoint.RiskBased{},
		DeadlineSkip:  true,
		FaultAware:    true,
		Negotiate:     true,
		BaseRateFloor: true,
	}
}

// validate checks the configuration. A nil or empty Workload passes: the
// online service starts with an empty cluster and admits jobs through the
// API instead of replaying a log, and Run checks for jobs itself.
func (c Config) validate() error {
	switch {
	case c.Failures == nil:
		return fmt.Errorf("sim: config needs a failure trace (it may be empty)")
	case c.Nodes <= 0:
		return fmt.Errorf("sim: cluster size must be positive, got %d", c.Nodes)
	case c.Failures.Nodes() != c.Nodes:
		return fmt.Errorf("sim: failure trace covers %d nodes but the cluster has %d", c.Failures.Nodes(), c.Nodes)
	case c.Accuracy < 0 || c.Accuracy > 1 || math.IsNaN(c.Accuracy):
		return fmt.Errorf("sim: accuracy %v outside [0,1]", c.Accuracy)
	case c.UserRisk < 0 || c.UserRisk > 1 || math.IsNaN(c.UserRisk):
		return fmt.Errorf("sim: user risk %v outside [0,1]", c.UserRisk)
	case c.Downtime < 0:
		return fmt.Errorf("sim: downtime must be non-negative, got %v", c.Downtime)
	case c.PredictionHalfLife < 0:
		return fmt.Errorf("sim: prediction half-life must be non-negative, got %v", c.PredictionHalfLife)
	case c.Policy == nil:
		return fmt.Errorf("sim: config needs a checkpoint policy")
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	if c.Workload == nil {
		return nil
	}
	return c.Workload.Validate(c.Nodes)
}

// plannedDuration returns E_j for the remaining execution time rem: the
// wall time the job needs if every checkpoint request is performed
// (rem + C per request, with requests after each full interval of progress
// that still leaves work to do).
func plannedDuration(rem units.Duration, p checkpoint.Params) units.Duration {
	if rem <= 0 {
		return 0
	}
	requests := (rem - 1) / p.Interval // requests at I, 2I, ... < rem
	return rem + units.Duration(requests)*p.Overhead
}
