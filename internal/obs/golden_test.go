package obs

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the instrument goldens under testdata")

// TestInstrumentGolden pins what an instrumented seeded run exposes: the
// Prometheus text, less the wall-clock probqos_sim_phase_* families, and
// the sampled series CSV.
func TestInstrumentGolden(t *testing.T) {
	// 32 nodes and a=0.3 make the run busy enough for start slips,
	// job-killing failures, and backfills.
	const nodes = 32
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: 120, Seed: 1, ClusterNodes: nodes})
	tr, err := failure.GenerateTrace(failure.RawConfig{Nodes: nodes, Seed: 1}, failure.FilterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(log, tr)
	cfg.Nodes = nodes
	cfg.Accuracy, cfg.UserRisk = 0.3, 0.5
	reg := NewRegistry()
	ins := NewInstrument(reg, units.Day)
	cfg.Probe = ins
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	ins.Flush()

	var prom, metrics, series bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(&prom)
	for lines.Scan() {
		line := lines.Text()
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "probqos_sim_phase_") {
			metrics.WriteString(line + "\n")
		}
	}
	if err := ins.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"instrument.golden.prom", metrics.Bytes()},
		{"series.golden.csv", series.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden; rerun with -update only for an intended change:\n%s", path, g.got)
		}
	}
}
