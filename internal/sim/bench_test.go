package sim

import (
	"testing"

	"probqos/internal/failure"
	"probqos/internal/workload"
)

// BenchmarkRunSDSC measures a complete simulation of a 1000-job SDSC-regime
// log at the paper's operating point. An untimed run first fills the
// engine pool, as the first point of a sweep does for the rest.
func BenchmarkRunSDSC(b *testing.B) {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 1000, Seed: 1})
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 1}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(log, tr)
	cfg.Accuracy = 0.7
	cfg.UserRisk = 0.5
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNASA measures the denser short-job regime.
func BenchmarkRunNASA(b *testing.B) {
	log := workload.GenerateNASA(workload.GenConfig{Jobs: 1000, Seed: 1})
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 1}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(log, tr)
		cfg.Accuracy = 0.7
		cfg.UserRisk = 0.5
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
