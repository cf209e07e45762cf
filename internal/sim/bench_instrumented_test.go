// Instrumented benchmarks live in an external test package: obs implements
// sim's Probe interface, so importing it from package sim would cycle.
package sim_test

import (
	"testing"

	"probqos/internal/failure"
	"probqos/internal/obs"
	"probqos/internal/sim"
	"probqos/internal/workload"
)

// BenchmarkRunSDSCInstrumented is BenchmarkRunSDSC with the full instrument
// attached once, as the run's Probe; the delta against the uninstrumented
// run is the observability overhead.
func BenchmarkRunSDSCInstrumented(b *testing.B) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 1000, Seed: 1})
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 1}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(log, tr)
		cfg.Accuracy = 0.7
		cfg.UserRisk = 0.5
		ins := obs.NewInstrument(obs.NewRegistry(), 0)
		cfg.Probe = ins
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
		ins.Flush()
	}
}
