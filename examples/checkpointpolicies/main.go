// Checkpointpolicies: the cooperative checkpointing ablation. The same
// workload runs under the paper's risk-based policy (Equation 1), classic
// periodic checkpointing, and no checkpointing at all, at two prediction
// accuracies. Risk-based checkpointing pays for checkpoints only where the
// forecast (or the hazard floor) says they are worth it.
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

	policies := []struct {
		name   string
		policy probqos.CheckpointPolicy
	}{
		{name: "risk-based", policy: probqos.PolicyRiskBased},
		{name: "periodic", policy: probqos.PolicyPeriodic},
		{name: "never", policy: probqos.PolicyNever},
	}

	for _, a := range []float64{0.3, 0.9} {
		fmt.Fprintf(w, "prediction accuracy a = %.1f (U = 0.5)\n", a)
		fmt.Fprintf(w, "  %-11s  %-8s  %-12s  %-14s  %-18s\n",
			"policy", "QoS", "utilization", "lost (node-s)", "ckpts done/skipped")
		for _, p := range policies {
			cfg := probqos.NewSimConfig(workload, trace)
			cfg.Accuracy = a
			cfg.UserRisk = 0.5
			cfg.Policy = p.policy
			res, err := probqos.Run(cfg)
			if err != nil {
				return err
			}
			r := probqos.Metrics(res)
			fmt.Fprintf(w, "  %-11s  %-8.4f  %-12.4f  %-14.3e  %d/%d\n",
				p.name, r.QoS, r.Utilization, r.LostWork.NodeSeconds(),
				r.CheckpointsDone, r.CheckpointsSkipped)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "risk-based checkpointing approaches periodic's protection at a")
	fmt.Fprintln(w, "fraction of its overhead, and prediction makes the savings safe.")
	return nil
}
