// Riskstrategies: the user-behavior sensitivity study of §5.2 in miniature.
// The same SDSC-regime workload runs under user populations with different
// risk strategies U; stricter users (higher U) trade later deadlines for
// fewer broken promises, and the system-wide metrics improve with them.
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
	workload := probqos.GenerateSDSCWorkload(probqos.WorkloadConfig{Jobs: 2000})
	trace, err := probqos.GenerateFailureTrace(probqos.RawLogConfig{}, probqos.FilterConfig{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "SDSC-regime workload, prediction accuracy a = 1.0")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s  %-8s  %-12s  %-14s  %-12s  %s\n",
		"U", "QoS", "utilization", "lost (node-s)", "job failures", "mean promise")
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		cfg := probqos.NewSimConfig(workload, trace)
		cfg.Accuracy = 1
		cfg.UserRisk = u
		res, err := probqos.Run(cfg)
		if err != nil {
			return err
		}
		r := probqos.Metrics(res)
		fmt.Fprintf(w, "%-6.2f  %-8.4f  %-12.4f  %-14.3e  %-12d  %.4f\n",
			u, r.QoS, r.Utilization, r.LostWork.NodeSeconds(), r.JobFailures, r.MeanPromise)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "users who give the probability of success priority over the deadline")
	fmt.Fprintln(w, "(high U) avoid predicted failures, so less work is lost and more")
	fmt.Fprintln(w, "promises are kept — the coordinated risk strategy of the paper.")
	return nil
}
