// Quickstart: generate a workload and a failure trace, run one simulation,
// and print the paper's metrics. This is the smallest end-to-end use of the
// probqos public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"probqos"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 2,000-job NASA-regime workload on a 128-node cluster, and a
	// synthetic failure trace matching the paper's AIX data (cluster MTBF
	// ~8.5 h, bursty).
	workload := probqos.GenerateNASAWorkload(probqos.WorkloadConfig{Jobs: 2000})
	trace, err := probqos.GenerateFailureTrace(probqos.RawLogConfig{}, probqos.FilterConfig{})
	if err != nil {
		return err
	}
	c := workload.Characteristics()
	fmt.Fprintf(w, "workload: %d jobs, avg %.1f nodes, avg %.0f s, max %.1f h\n",
		c.Jobs, c.AvgNodes, c.AvgExec, c.MaxExec.Hours())
	fmt.Fprintf(w, "failures: %d over %.0f days\n\n", trace.Len(), trace.Stats().Span.Hours()/24)

	// Run the full system at a moderate prediction accuracy with users who
	// want at least even odds, then with no forecasting at all.
	for _, point := range []struct {
		label string
		a, u  float64
	}{
		{label: "no forecasting (a=0)   ", a: 0, u: 0.5},
		{label: "moderate accuracy      ", a: 0.7, u: 0.5},
		{label: "perfect, careful users ", a: 1, u: 0.9},
	} {
		cfg := probqos.NewSimConfig(workload, trace)
		cfg.Accuracy = point.a
		cfg.UserRisk = point.u
		res, err := probqos.Run(cfg)
		if err != nil {
			return err
		}
		r := probqos.Metrics(res)
		fmt.Fprintf(w, "%s QoS %.4f  utilization %.4f  lost %.3e node-s  job failures %d\n",
			point.label, r.QoS, r.Utilization, r.LostWork.NodeSeconds(), r.JobFailures)
	}
	return nil
}
