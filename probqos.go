// Package probqos reproduces "Probabilistic QoS Guarantees for
// Supercomputing Systems" (Oliner, Rudolph, Sahoo, Moreira, Gupta; DSN
// 2005): a supercomputing control system that makes promises of the form
// "job j can be completed by deadline d with probability p" and keeps them
// using event prediction, fault-aware scheduling, and cooperative
// checkpointing.
//
// The package is the public face of the library. It exposes:
//
//   - synthetic workload and failure-trace generators calibrated to the
//     paper's NASA/SDSC logs and AIX failure data (plus an SWF parser for
//     real archive logs);
//   - the live control system (System, the simulator's engine driven one
//     request at a time) that quotes and admits deadlines against a
//     failure forecast;
//   - the trace-driven simulator (Run) that replays a whole job log and
//     measures QoS, utilization, and lost work;
//   - the experiment harness that regenerates every table and figure of
//     the paper (see cmd/qossweep and bench_test.go).
//
// Quick start:
//
//	log := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 1000})
//	trace, _ := probqos.GenerateFailureTrace(probqos.RawLogConfig{}, probqos.FilterConfig{})
//	cfg := probqos.NewSimConfig(log, trace)
//	cfg.Accuracy, cfg.UserRisk = 0.7, 0.5
//	result, _ := probqos.Run(cfg)
//	report := probqos.Metrics(result)
//	fmt.Printf("QoS %.3f, utilization %.3f\n", report.QoS, report.Utilization)
package probqos

import (
	"io"

	"probqos/internal/checkpoint"
	"probqos/internal/eventlog"
	"probqos/internal/failure"
	"probqos/internal/health"
	"probqos/internal/metrics"
	"probqos/internal/negotiate"
	"probqos/internal/obs"
	"probqos/internal/predict"
	"probqos/internal/scenario"
	"probqos/internal/service"
	"probqos/internal/sim"
	"probqos/internal/trace"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Primitive quantities. Times are integer seconds since trace start; work
// is node-seconds.
type (
	Time     = units.Time
	Duration = units.Duration
	Work     = units.Work
)

// Time constants re-exported for convenience.
const (
	Second = units.Second
	Minute = units.Minute
	Hour   = units.Hour
	Day    = units.Day
	Week   = units.Week
	Year   = units.Year
)

// Workload types.
type (
	// Job is one parallel job: arrival, size in nodes, and execution time.
	Job = workload.Job
	// JobLog is an arrival-ordered job log.
	JobLog = workload.Log
	// WorkloadConfig parameterizes the synthetic workload generators.
	WorkloadConfig = workload.GenConfig
	// LogCharacteristics are the Table 1 aggregates of a job log.
	LogCharacteristics = workload.Characteristics
)

// Failure-substrate types.
type (
	// FailureEvent is one filtered failure with its static detectability.
	FailureEvent = failure.Event
	// FailureTrace is a filtered failure trace over a cluster.
	FailureTrace = failure.Trace
	// RawEvent is one unfiltered RAS log event.
	RawEvent = failure.RawEvent
	// RawLogConfig parameterizes the raw RAS log generator.
	RawLogConfig = failure.RawConfig
	// FilterConfig parameterizes the failure-filtering pipeline.
	FilterConfig = failure.FilterConfig
)

// Control-system and simulation types.
type (
	// Predictor forecasts partition failures.
	Predictor = predict.Predictor
	// CheckpointParams holds the interval I and overhead C.
	CheckpointParams = checkpoint.Params
	// CheckpointPolicy decides whether to perform a requested checkpoint.
	CheckpointPolicy = checkpoint.Policy
	// User is the simulated user risk strategy U.
	User = negotiate.User
	// Quote is one (deadline, probability of success) offer.
	Quote = negotiate.Quote
	// System is the live control system — the simulator's engine driven
	// one request at a time: quotes, admission, and a virtual clock.
	System = sim.Engine
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Result is everything a simulation run produces.
	Result = sim.Result
	// JobRecord is the per-job outcome of a run.
	JobRecord = sim.JobRecord
	// FailureRecord is one failure as it played out in a run.
	FailureRecord = sim.FailureRecord
	// Report holds the paper's metrics (QoS, utilization, lost work, ...).
	Report = metrics.Report
	// Note is one line of the simulation journal.
	Note = sim.Note
)

// Checkpoint policies.
var (
	// PolicyRiskBased is the paper's Equation 1 rule.
	PolicyRiskBased CheckpointPolicy = checkpoint.RiskBased{}
	// PolicyPeriodic always performs checkpoints.
	PolicyPeriodic CheckpointPolicy = checkpoint.Periodic{}
	// PolicyNever never checkpoints.
	PolicyNever CheckpointPolicy = checkpoint.Never{}
)

// ParsePolicy returns the checkpoint policy a short name selects: "risk",
// "periodic", or "never".
func ParsePolicy(name string) (CheckpointPolicy, error) { return checkpoint.ParsePolicy(name) }

// GenerateNASAWorkload returns a synthetic job log in the NASA iPSC/860
// regime of Table 1 (power-of-two sizes, short runtimes, lighter load).
func GenerateNASAWorkload(cfg WorkloadConfig) *JobLog { return workload.GenerateNASA(cfg) }

// GenerateSDSCWorkload returns a synthetic job log in the SDSC SP regime of
// Table 1 (arbitrary sizes, long heavy-tailed runtimes, heavier load).
func GenerateSDSCWorkload(cfg WorkloadConfig) *JobLog { return workload.GenerateSDSC(cfg) }

// GenerateWorkload returns the named synthetic log ("NASA" or "SDSC").
func GenerateWorkload(name string, cfg WorkloadConfig) (*JobLog, error) {
	return workload.Generate(name, cfg)
}

// ParseSWF reads a Standard Workload Format job log (real archive logs
// drop in unchanged).
func ParseSWF(name string, r io.Reader) (*JobLog, error) { return workload.ParseSWF(name, r) }

// WorkloadProfile is a distributional summary of a job log.
type WorkloadProfile = workload.Profile

// ProfileWorkload computes size/runtime/work-concentration statistics of a
// log, beyond the Table 1 aggregates.
func ProfileWorkload(l *JobLog) WorkloadProfile { return workload.BuildProfile(l) }

// MergeWorkloads interleaves several logs by arrival time.
func MergeWorkloads(name string, logs ...*JobLog) *JobLog { return workload.Merge(name, logs...) }

// StochasticConfig parameterizes the statistical failure models
// (exponential/Poisson and Weibull) the paper suggests studying.
type StochasticConfig = failure.StochasticConfig

// Stochastic failure model kinds.
const (
	FailuresExponential = failure.Exponential
	FailuresWeibull     = failure.WeibullDecreasing
)

// GenerateStochasticFailures draws a failure trace from a purely
// statistical model at a chosen mean rate — the contrast case for the
// trace-driven substrate.
func GenerateStochasticFailures(cfg StochasticConfig) (*FailureTrace, error) {
	return failure.GenerateStochastic(cfg)
}

// Health-monitoring types (§3.1): telemetry and the working predictor.
type (
	// Telemetry holds sampled per-node signals (temperature, load).
	Telemetry = health.Telemetry
	// TelemetryConfig parameterizes the telemetry generator.
	TelemetryConfig = health.TelemetryConfig
	// HealthMonitor is the working (non-oracle) failure predictor built
	// from telemetry and precursor events.
	HealthMonitor = health.Monitor
	// MonitorConfig tunes the monitoring model.
	MonitorConfig = health.MonitorConfig
)

// GenerateTelemetry synthesizes per-node telemetry consistent with a raw
// RAS log: failures announce themselves as thermal ramps.
func GenerateTelemetry(cfg TelemetryConfig, raw []RawEvent) (*Telemetry, error) {
	return health.Generate(cfg, raw)
}

// NewHealthMonitor builds the §3.2-style monitoring predictor (time-series
// slope + event correlation) over telemetry and the raw log's non-critical
// events. Assign it to SimConfig.Predictor to run the system on realistic
// forecasts instead of the idealized oracle.
func NewHealthMonitor(t *Telemetry, raw []RawEvent, cfg MonitorConfig) (*HealthMonitor, error) {
	return health.NewMonitor(t, raw, cfg)
}

// NewDecayingPredictor builds a horizon-limited trace predictor whose
// effective accuracy halves every halfLife of forecast distance, modelling
// §3.3's remark that predictions degrade with horizon.
func NewDecayingPredictor(tr *FailureTrace, a float64, halfLife Duration) (Predictor, error) {
	return predict.NewDecaying(tr, a, halfLife)
}

// GenerateRawRASLog produces an unfiltered RAS event log with bursty fault
// episodes, precursor warnings, and redundant same-root-cause events.
func GenerateRawRASLog(cfg RawLogConfig) []RawEvent { return failure.GenerateRawLog(cfg) }

// WriteRawRASLog writes an unfiltered RAS log in the textual format
// cmd/tracefilter consumes.
func WriteRawRASLog(w io.Writer, events []RawEvent) error { return failure.WriteRawLog(w, events) }

// ParseRawRASLog reads a log written by WriteRawRASLog.
func ParseRawRASLog(r io.Reader) ([]RawEvent, error) { return failure.ParseRawLog(r) }

// FilterRawLog runs the §4.3 filtering pipeline: isolate FATAL/FAILURE
// events, coalesce shared root causes, and assign detectabilities.
func FilterRawLog(raw []RawEvent, nodes int, cfg FilterConfig) (*FailureTrace, error) {
	return failure.Filter(raw, nodes, cfg)
}

// GenerateFailureTrace generates a raw RAS log and filters it: the
// convenience path to a simulator-ready failure trace.
func GenerateFailureTrace(cfg RawLogConfig, fcfg FilterConfig) (*FailureTrace, error) {
	return failure.GenerateTrace(cfg, fcfg)
}

// NewFailureTrace builds a trace directly from failure events.
func NewFailureTrace(nodes int, events []FailureEvent) (*FailureTrace, error) {
	return failure.NewTrace(nodes, events)
}

// ParseFailureTrace reads a trace written by FailureTrace.WriteCSV.
func ParseFailureTrace(nodes int, r io.Reader) (*FailureTrace, error) {
	return failure.ParseCSV(nodes, r)
}

// NewTracePredictor builds the paper's deterministic trace predictor with
// accuracy a: zero false positives, false-negative rate 1-a, never
// reporting a probability above a.
func NewTracePredictor(tr *FailureTrace, a float64) (Predictor, error) {
	return predict.NewTrace(tr, a)
}

// NewSystem builds a live control system from a simulation config whose
// Workload may be nil: jobs then arrive only through Admit. Drive it with
// AdvanceTo, Quotes, and Admit.
func NewSystem(cfg SimConfig) (*System, error) { return sim.NewEngine(cfg) }

// NewUser validates a user risk strategy U in [0, 1].
func NewUser(u float64) (User, error) { return negotiate.NewUser(u) }

// NewSimConfig returns the paper's Table 2 operating point for the given
// workload and failure trace; set Accuracy and UserRisk before Run.
func NewSimConfig(w *JobLog, f *FailureTrace) SimConfig { return sim.DefaultConfig(w, f) }

// Run executes one simulation to completion. Runs are deterministic.
func Run(cfg SimConfig) (*Result, error) { return sim.Run(cfg) }

// Metrics computes the paper's evaluation metrics from a run.
func Metrics(res *Result) Report { return metrics.Compute(res) }

// ClassReport summarizes one job-size class of a run.
type ClassReport = metrics.ClassReport

// MetricsBySize breaks a run's metrics down by job-size class, showing
// where the work-weighted QoS is won and lost.
func MetricsBySize(res *Result) []ClassReport { return metrics.BySize(res) }

// DefaultCheckpointParams returns the Table 2 checkpoint constants
// (I = 3600 s, C = 720 s).
func DefaultCheckpointParams() CheckpointParams { return checkpoint.DefaultParams() }

// NewJournalWriter returns a SimProbe that records the simulation journal
// as JSON lines on w; call Close when the run finishes.
func NewJournalWriter(w io.Writer) *eventlog.Writer { return eventlog.NewWriter(w) }

// Observability types: the internal/obs instrumentation layer.
type (
	// MetricsRegistry is a concurrency-safe registry of counters, gauges,
	// and fixed-bucket histograms with Prometheus/JSON exposition.
	MetricsRegistry = obs.Registry
	// MetricLabels attach dimensions to one instrument of a metric family.
	MetricLabels = obs.Labels
	// Instrument samples cluster state, meters decisions and journal
	// notes, and profiles the simulator's hot phases; assign to
	// SimConfig.Probe.
	Instrument = obs.Instrument
	// MetricsServer serves /metrics, /healthz, and /snapshot over HTTP.
	MetricsServer = obs.Server
	// PhaseStat is one hot phase's wall-clock bill.
	PhaseStat = obs.PhaseStat
	// SeriesPoint is one sampled cluster state on the simulation clock.
	SeriesPoint = obs.Point
	// SimProbe receives the simulator's instrumentation callbacks: every
	// engine event as a decision, state samples, and phase timings.
	SimProbe = sim.Probe
	// SimState is the cluster-level snapshot handed to a probe.
	SimState = sim.State
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewInstrument builds the standard simulation instrumentation over a
// registry: live metrics plus a cluster-state time series sampled every
// cadence of simulation time (<= 0 means the 15-minute default).
func NewInstrument(reg *MetricsRegistry, cadence Duration) *Instrument {
	return obs.NewInstrument(reg, cadence)
}

// NewMetricsServer builds the live observation endpoint over a registry;
// with a non-nil instrument, /snapshot also carries the sampled series and
// the phase profile. Call Start to bind and Close to stop.
func NewMetricsServer(reg *MetricsRegistry, ins *Instrument) *MetricsServer {
	return obs.NewServer(reg, ins)
}

// MultiProbe fans the simulation's instrumentation out to several probes,
// e.g. a journal writer and an instrument; nil entries are skipped.
func MultiProbe(p ...SimProbe) SimProbe { return sim.MultiProbe(p...) }

// Online negotiation service (qosd): the §5 quote/accept dialog as a
// long-running daemon over a live cluster state on a virtual clock.
type (
	// QoSService is one running qosd instance; see cmd/qosd.
	QoSService = service.Service
	// QoSServiceConfig assembles a qosd instance.
	QoSServiceConfig = service.Config
	// JobStatus is the externally visible state of one admitted job.
	JobStatus = sim.JobStatus
	// ClusterStats is a cluster-level snapshot of the live engine.
	ClusterStats = sim.Stats
)

// NewQoSServiceConfig returns a service at the paper's Table 2 operating
// point over the given failure trace, with a manual virtual clock.
func NewQoSServiceConfig(tr *FailureTrace) QoSServiceConfig {
	return service.DefaultConfig(tr)
}

// Request tracing and promise conformance: request-scoped spans with Chrome
// trace_event export (internal/trace), and the live ledger that scores
// every admitted promise against its outcome (internal/metrics).
type (
	// Tracer records request-scoped spans into per-shard ring buffers;
	// assign one to QoSServiceConfig.Tracer (nil disables tracing).
	Tracer = trace.Tracer
	// TraceSpan is one recorded interval of a traced request.
	TraceSpan = trace.Span
	// PromiseLedger scores admitted promises against their outcomes.
	PromiseLedger = metrics.Ledger
	// PromiseEntry is one promise row of the ledger.
	PromiseEntry = metrics.Promise
	// ConformanceStats are the ledger's streaming honesty statistics:
	// keeping rate, Brier score, and reliability bins; Worst is the
	// single-number honesty check.
	ConformanceStats = metrics.ConformanceStats
	// ConformanceBin is one reliability-diagram bin of settled promises.
	ConformanceBin = metrics.ConformanceBin
)

// PromiseLedgerOf settles a finished run's promises through the same
// ledger qosd keeps live: the reliability diagram behind the paper's "a
// system that makes unqualified performance guarantees is lying".
func PromiseLedgerOf(res *Result, bins int) *PromiseLedger { return metrics.LedgerOf(res, bins) }

// NewTracer returns a tracer holding up to capacity completed spans
// (<= 0 means the 8192-span default).
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// NewTraceID returns a fresh random request trace ID, as carried by the
// X-Qos-Trace header.
func NewTraceID() string { return trace.NewTraceID() }

// NewQoSService builds and starts the service's state machine; callers
// must Close it. Start binds the HTTP API.
func NewQoSService(cfg QoSServiceConfig) (*QoSService, error) { return service.New(cfg) }

// Declarative scenario harness (internal/scenario): fleet + timeline +
// assertions compiled deterministically onto the engine; see
// internal/scenario/zoo for the golden regression corpus.
type (
	// Scenario is one parsed scenario file: fleet, events, assertions.
	Scenario = scenario.Scenario
	// ScenarioRunner executes a scenario step by step on a sim engine.
	ScenarioRunner = scenario.Runner
	// ScenarioReport is the stable machine-readable outcome of one run.
	ScenarioReport = scenario.Report
	// ScenarioState is a mid-run snapshot for export/resume.
	ScenarioState = scenario.State
)

// DecodeScenario parses and validates a scenario file written in the YAML
// subset, reporting malformed input with file:line:col positions; name is
// used only to label them.
func DecodeScenario(name string, data []byte) (*Scenario, error) {
	return scenario.Decode(name, data)
}

// NewScenarioRunner validates a scenario and assembles its engine.
func NewScenarioRunner(s *Scenario) (*ScenarioRunner, error) { return scenario.NewRunner(s) }

// ResumeScenario reconstructs a runner from an exported ScenarioState.
func ResumeScenario(st ScenarioState) (*ScenarioRunner, error) { return scenario.Resume(st) }

// RunScenario decodes, runs, and reports one scenario in a single call.
func RunScenario(name string, data []byte) (*ScenarioReport, error) {
	s, err := scenario.Decode(name, data)
	if err != nil {
		return nil, err
	}
	r, err := scenario.NewRunner(s)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
