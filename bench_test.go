// The benchmark harness regenerates every table and figure of the paper's
// evaluation: one benchmark per artifact, each running the corresponding
// experiment definition end to end (workload generation, failure trace,
// all simulation points of the sweep) and logging the same rows/series the
// paper reports.
//
// Benchmarks run at a reduced workload scale (default 4000 jobs) so the
// whole harness finishes in minutes; `go run ./cmd/qossweep` regenerates
// everything at the paper's full 10,000-job scale with identical shapes.
// Set PROBQOS_BENCH_JOBS to override the scale.
package probqos_test

import (
	"os"
	"strconv"
	"testing"

	"probqos/internal/experiment"
)

const defaultBenchJobs = 4000

func benchJobs() int {
	if v := os.Getenv("PROBQOS_BENCH_JOBS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return defaultBenchJobs
}

// benchExperiment runs one experiment per iteration through RunAll on a
// fresh environment (no memoized points), logging its tables once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not found", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := experiment.NewEnv()
		env.JobCount = benchJobs()
		res := experiment.RunAll(env, []experiment.Experiment{exp})[0]
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if i == 0 {
			b.Logf("%s — paper: %s", exp.Title, exp.Paper)
			for _, t := range res.Tables {
				b.Logf("\n%s", t.String())
			}
		}
	}
}

// Tables.

func BenchmarkTable1JobLogCharacteristics(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2SimulationParameters(b *testing.B)  { benchExperiment(b, "table2") }

// Accuracy-sweep figures (Figures 1-6).

func BenchmarkFig1QoSvsAccuracySDSC(b *testing.B)         { benchExperiment(b, "fig1") }
func BenchmarkFig2QoSvsAccuracyNASA(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3UtilizationVsAccuracySDSC(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4UtilizationVsAccuracyNASA(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5LostWorkVsAccuracySDSC(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6LostWorkVsAccuracyNASA(b *testing.B)    { benchExperiment(b, "fig6") }

// User-behavior figures (Figures 7-12).

func BenchmarkFig7QoSvsUserA05SDSC(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8QoSvsUserA1(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9UtilizationVsUserSDSC(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10UtilizationVsUserNASA(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11LostWorkVsUserSDSC(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12LostWorkVsUserNASA(b *testing.B)    { benchExperiment(b, "fig12") }

// Headline numbers (§1/§6).

func BenchmarkHeadlineImprovements(b *testing.B) { benchExperiment(b, "headline") }

// Ablations (DESIGN.md §6).

func BenchmarkAblationNodeSelection(b *testing.B)    { benchExperiment(b, "ablation-nodesel") }
func BenchmarkAblationCheckpointPolicy(b *testing.B) { benchExperiment(b, "ablation-checkpoint") }
func BenchmarkAblationDeadlineSkip(b *testing.B)     { benchExperiment(b, "ablation-deadlineskip") }
func BenchmarkAblationNegotiation(b *testing.B)      { benchExperiment(b, "ablation-negotiation") }
func BenchmarkAblationBaseRate(b *testing.B)         { benchExperiment(b, "ablation-baserate") }
func BenchmarkAblationFailureModel(b *testing.B)     { benchExperiment(b, "ablation-failuremodel") }
func BenchmarkAblationHorizon(b *testing.B)          { benchExperiment(b, "ablation-horizon") }
func BenchmarkSweepCheckpointParams(b *testing.B)    { benchExperiment(b, "sweep-checkpoint") }
func BenchmarkSweepClusterSize(b *testing.B)         { benchExperiment(b, "sweep-clustersize") }
func BenchmarkAblationEstimates(b *testing.B)        { benchExperiment(b, "ablation-estimates") }
func BenchmarkAblationMonitor(b *testing.B)          { benchExperiment(b, "ablation-monitor") }
