// Command qossim runs a single probabilistic-QoS simulation and prints its
// metrics: one (workload, failure trace, a, U) point of the paper's
// evaluation. It also executes declarative scenario files (see
// internal/scenario) through two subcommands.
//
// Usage:
//
//	qossim [-log NASA|SDSC|file.swf] [-failures trace.csv] [-jobs N]
//	       [-a accuracy] [-u risk] [-seed S] [-policy risk|periodic|never]
//	       [-no-deadline-skip] [-no-fault-aware] [-no-negotiate]
//	       [-pure-forecast] [-journal out.jsonl] [-json]
//	       [-serve addr] [-hold] [-profile] [-series out.csv] [-sample-mins M]
//	qossim run <scenario.yaml|dir>...
//	qossim validate <scenario.yaml|dir>...
//
// run executes each scenario deterministically and prints its report as
// JSON, exiting non-zero if any declared assertion fails; validate checks
// scenario files and reports malformed input with file:line:col positions.
// Scenario files use a YAML subset; a directory argument expands to its
// *.yaml and *.yml entries.
//
// Without -failures a synthetic trace matching the paper's AIX failure
// data (1021 failures/year on 128 nodes, MTBF 8.5 h) is generated.
//
// Observability: -serve exposes /metrics (Prometheus text), /healthz, and
// /snapshot while the run executes (-hold keeps serving after it finishes);
// -profile prints the per-phase wall-clock breakdown; -series writes the
// sampled cluster time series (queue depth, nodes busy, lost work, mean
// promise) as CSV, one point per -sample-mins of simulated time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"probqos"
	"probqos/internal/metrics"
	"probqos/internal/stats"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarios(out, args[1:])
		case "validate":
			return validateScenarios(out, args[1:])
		}
	}
	fs := flag.NewFlagSet("qossim", flag.ContinueOnError)
	var (
		logName      = fs.String("log", "SDSC", "workload: NASA, SDSC, or a path to an SWF file")
		failureFile  = fs.String("failures", "", "failure trace CSV (default: synthetic AIX-like trace)")
		jobs         = fs.Int("jobs", 10000, "job count for synthetic workloads")
		accuracy     = fs.Float64("a", 0.5, "event prediction accuracy in [0,1]")
		userRisk     = fs.Float64("u", 0.5, "user risk strategy U in [0,1]")
		seed         = fs.Int64("seed", 0, "seed for synthetic traces")
		nodes        = fs.Int("nodes", 128, "cluster size")
		policyName   = fs.String("policy", "risk", "checkpoint policy: risk, periodic, never")
		noSkip       = fs.Bool("no-deadline-skip", false, "disable deadline-driven checkpoint skipping")
		noFaultAware = fs.Bool("no-fault-aware", false, "disable prediction-driven node selection")
		noNegotiate  = fs.Bool("no-negotiate", false, "users take the first quote regardless of U")
		pureForecast = fs.Bool("pure-forecast", false, "disable the MTBF floor in checkpoint risk")
		horizonHours = fs.Float64("horizon-hours", 0, "prediction accuracy half-life in hours (0 = static predictor)")
		useMonitor   = fs.Bool("monitor", false, "predict with the working health monitor instead of the idealized oracle (synthetic failures only)")
		journalPath  = fs.String("journal", "", "write the event journal (JSON lines) to this file")
		perJobPath   = fs.String("perjob", "", "write per-job records as CSV to this file")
		failRecPath  = fs.String("failrec", "", "write per-failure records as CSV to this file")
		calibration  = fs.Bool("calibration", false, "print the promise reliability diagram")
		breakdown    = fs.Bool("breakdown", false, "print per-size-class metrics")
		asJSON       = fs.Bool("json", false, "emit the metrics report as JSON")
		serveAddr    = fs.String("serve", "", "serve live /metrics, /healthz, /snapshot on this address during the run")
		hold         = fs.Bool("hold", false, "with -serve: keep serving after the run until interrupted")
		profile      = fs.Bool("profile", false, "report the per-phase wall-clock breakdown")
		seriesPath   = fs.String("series", "", "write the sampled cluster time series as CSV to this file")
		sampleMins   = fs.Float64("sample-mins", 15, "cluster-state sampling cadence in simulated minutes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	log, err := loadWorkload(*logName, *jobs, *seed, *nodes)
	if err != nil {
		return err
	}
	trace, err := loadFailures(*failureFile, *nodes, *seed)
	if err != nil {
		return err
	}

	cfg := probqos.NewSimConfig(log, trace)
	if *useMonitor {
		if *failureFile != "" {
			return fmt.Errorf("-monitor needs the synthetic failure pipeline (raw log + telemetry); it cannot be used with -failures")
		}
		raw := probqos.GenerateRawRASLog(probqos.RawLogConfig{Nodes: *nodes, Seed: *seed})
		telemetry, err := probqos.GenerateTelemetry(probqos.TelemetryConfig{Nodes: *nodes, Seed: *seed}, raw)
		if err != nil {
			return err
		}
		monitor, err := probqos.NewHealthMonitor(telemetry, raw, probqos.MonitorConfig{})
		if err != nil {
			return err
		}
		cfg.Predictor = monitor
	}
	cfg.Nodes = *nodes
	cfg.Accuracy = *accuracy
	cfg.UserRisk = *userRisk
	cfg.DeadlineSkip = !*noSkip
	cfg.FaultAware = !*noFaultAware
	cfg.Negotiate = !*noNegotiate
	cfg.BaseRateFloor = !*pureForecast
	cfg.PredictionHalfLife = probqos.Duration(*horizonHours * 3600)
	if cfg.Policy, err = probqos.ParsePolicy(*policyName); err != nil {
		return err
	}

	var journal interface {
		probqos.SimProbe
		Close() error
	}
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jw := probqos.NewJournalWriter(f)
		cfg.Probe = jw
		journal = jw
	}

	var instrument *probqos.Instrument
	if *serveAddr != "" || *profile || *seriesPath != "" {
		if *sampleMins <= 0 {
			return fmt.Errorf("-sample-mins must be positive, got %v", *sampleMins)
		}
		reg := probqos.NewMetricsRegistry()
		instrument = probqos.NewInstrument(reg, probqos.Duration(*sampleMins*60))
		cfg.Probe = probqos.MultiProbe(cfg.Probe, instrument)
		if *serveAddr != "" {
			srv := probqos.NewMetricsServer(reg, instrument)
			addr, err := srv.Start(*serveAddr)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", addr)
		}
	}

	res, err := probqos.Run(cfg)
	if err != nil {
		return err
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return err
		}
	}
	if instrument != nil {
		instrument.Flush()
	}
	report := probqos.Metrics(res)
	if err := writeFile(*perJobPath, res.WriteJobsCSV); err != nil {
		return err
	}
	if err := writeFile(*failRecPath, res.WriteFailuresCSV); err != nil {
		return err
	}
	// Without -series the instrument may be nil; writeFile then never
	// calls the method value.
	if err := writeFile(*seriesPath, instrument.WriteSeriesCSV); err != nil {
		return err
	}

	if *asJSON {
		// Fold the optional sections in as nested objects so -breakdown,
		// -calibration, and -profile compose with -json.
		payload := struct {
			probqos.Report
			Breakdown   []probqos.ClassReport `json:"breakdown,omitempty"`
			Calibration *reliabilityReport    `json:"calibration,omitempty"`
			Profile     []probqos.PhaseStat   `json:"profile,omitempty"`
		}{Report: report}
		if *breakdown {
			payload.Breakdown = probqos.MetricsBySize(res)
		}
		if *calibration {
			payload.Calibration = reliability(res)
		}
		if *profile {
			payload.Profile = instrument.Report()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			return err
		}
		return holdOpen(out, *hold, *serveAddr)
	}
	fmt.Fprintf(out, "workload           %s (%d jobs)\n", log.Name, len(log.Jobs))
	fmt.Fprintf(out, "failure trace      %d failures\n", trace.Len())
	fmt.Fprintf(out, "accuracy a         %.2f\n", *accuracy)
	fmt.Fprintf(out, "user risk U        %.2f\n", *userRisk)
	fmt.Fprintf(out, "QoS                %.4f\n", report.QoS)
	fmt.Fprintf(out, "utilization        %.4f (raw occupancy %.4f)\n",
		report.Utilization, report.OccupiedFraction)
	fmt.Fprintf(out, "lost work          %.3e node-s\n", report.LostWork.NodeSeconds())
	fmt.Fprintf(out, "job failures       %d\n", report.JobFailures)
	fmt.Fprintf(out, "deadline misses    %.2f%% of jobs (%.2f%% of work)\n",
		100*report.DeadlineMissRate, 100*report.WorkMissRate)
	fmt.Fprintf(out, "mean promise       %.4f (observed success %.4f)\n",
		report.MeanPromise, report.ObservedSuccess)
	fmt.Fprintf(out, "mean wait          %.1f s\n", report.MeanWaitSeconds)
	fmt.Fprintf(out, "bounded slowdown   %.2f\n", report.MeanBoundedSlowdown)
	fmt.Fprintf(out, "checkpoints        %d performed, %d skipped\n", report.CheckpointsDone, report.CheckpointsSkipped)
	fmt.Fprintf(out, "span               %.1f days\n", report.Span.Hours()/24)
	if *breakdown {
		fmt.Fprintln(out, "\nby job size:")
		for _, c := range probqos.MetricsBySize(res) {
			if c.Jobs == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-12s %6d jobs  %4.1f%% of work  QoS %.4f  miss %.3f  fail %.3f  lost %.2e\n",
				c.Label, c.Jobs, 100*c.WorkShare, c.QoS, c.MissRate, c.FailureRate, c.LostWork.NodeSeconds())
		}
	}
	if *calibration {
		rel := reliability(res)
		fmt.Fprintln(out, "\npromise reliability (promised -> observed):")
		for _, b := range rel.Bins {
			if b.Settled == 0 {
				continue
			}
			fmt.Fprintf(out, "  %s  %6d jobs  promised %.3f  observed %.3f  work share %.1f%%\n",
				b.Label(), b.Settled, b.PromisedMean, b.Observed, 100*b.WorkShare)
		}
		fmt.Fprintf(out, "  worst overconfidence: %.4f\n", rel.Overconfidence)
	}
	if *profile {
		fmt.Fprintln(out, "\nphase profile (wall-clock):")
		if err := instrument.WriteReport(out); err != nil {
			return err
		}
	}
	return holdOpen(out, *hold, *serveAddr)
}

// reliabilityReport is the promise reliability diagram: the promise
// ledger's bins and its worst overconfidence.
type reliabilityReport struct {
	Bins           []reliabilityBin `json:"bins"`
	Overconfidence float64          `json:"overconfidence"`
}

// reliabilityBin is one ledger bin with its share of the run's useful work
// (node-seconds).
type reliabilityBin struct {
	probqos.ConformanceBin
	WorkShare float64 `json:"work_share"`
}

// reliability settles the run's promises through the promise ledger into
// ten bins.
func reliability(res *probqos.Result) *reliabilityReport {
	const bins = 10
	st := probqos.PromiseLedgerOf(res, bins).Stats()
	shares := metrics.WorkShares(res, bins, func(j *probqos.JobRecord) int { return stats.BinIndex(j.Promised, bins) })
	rel := &reliabilityReport{Bins: make([]reliabilityBin, bins)}
	for i, b := range st.Bins {
		rel.Bins[i] = reliabilityBin{b, shares[i]}
	}
	_, rel.Overconfidence = st.Worst()
	return rel
}

// writeFile creates path and writes it with write; an empty path writes
// nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// holdOpen blocks forever when -serve -hold asked the endpoint to outlive
// the run, so operators can inspect a finished simulation's metrics.
func holdOpen(out io.Writer, hold bool, serveAddr string) error {
	if !hold || serveAddr == "" {
		return nil
	}
	fmt.Fprintln(out, "run complete; serving until interrupted")
	select {}
}

func loadWorkload(name string, jobs int, seed int64, nodes int) (*probqos.JobLog, error) {
	switch strings.ToUpper(name) {
	case "NASA", "SDSC":
		return probqos.GenerateWorkload(strings.ToUpper(name),
			probqos.WorkloadConfig{Jobs: jobs, Seed: seed, ClusterNodes: nodes})
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return probqos.ParseSWF(name, f)
}

func loadFailures(path string, nodes int, seed int64) (*probqos.FailureTrace, error) {
	if path == "" {
		return probqos.GenerateFailureTrace(
			probqos.RawLogConfig{Nodes: nodes, Seed: seed}, probqos.FilterConfig{Seed: seed})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return probqos.ParseFailureTrace(nodes, f)
}
