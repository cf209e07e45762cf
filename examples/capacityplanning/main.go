// Capacityplanning: a what-if study built from the library's workload
// transforms. Starting from one SDSC-regime log, the arrival stream is
// compressed and stretched to sweep the offered load, answering the
// operator's question: how much load can this 128-node machine carry
// before the probabilistic QoS guarantees start to slip?
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
	base := probqos.GenerateSDSCWorkload(probqos.WorkloadConfig{Jobs: 2000})
	trace, err := probqos.GenerateFailureTrace(probqos.RawLogConfig{}, probqos.FilterConfig{})
	if err != nil {
		return err
	}
	baseLoad := base.OfferedLoad(128)
	fmt.Fprintf(w, "base workload: %d jobs, offered load %.2f\n", len(base.Jobs), baseLoad)
	fmt.Fprintln(w, "sweeping offered load by compressing/stretching arrivals (a=0.7, U=0.5):")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s  %-8s  %-8s  %-11s  %-10s  %s\n",
		"load", "QoS", "util", "occupancy", "mean wait", "verdict")

	for _, target := range []float64{0.4, 0.55, 0.7, 0.8, 0.9} {
		scaled, err := base.ScaleArrivals(baseLoad / target)
		if err != nil {
			return err
		}
		cfg := probqos.NewSimConfig(scaled, trace)
		cfg.Accuracy = 0.7
		cfg.UserRisk = 0.5
		res, err := probqos.Run(cfg)
		if err != nil {
			return err
		}
		r := probqos.Metrics(res)
		verdict := "comfortable"
		switch {
		case r.MeanWaitSeconds > 6*3600:
			verdict = "queue runaway"
		case r.MeanWaitSeconds > 3600:
			verdict = "queues building"
		}
		fmt.Fprintf(w, "%-8.2f  %-8.4f  %-8.4f  %-11.4f  %-10.0f  %s\n",
			target, r.QoS, r.Utilization, r.OccupiedFraction, r.MeanWaitSeconds, verdict)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "utilization tracks offered load until queueing takes over; the QoS")
	fmt.Fprintln(w, "promise machinery keeps deadline integrity even as waits grow, because")
	fmt.Fprintln(w, "quoted deadlines are reservation-backed rather than aspirational.")
	return nil
}
