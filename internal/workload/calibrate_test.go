package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// Table 1 of the paper. The synthetic generators must land near these
// aggregates; tolerances are moderate because the point is reproducing the
// regime, not the exact archive bytes.
func TestGenerateNASAMatchesTable1(t *testing.T) {
	log := GenerateNASA(GenConfig{})
	c := log.Characteristics()
	t.Logf("NASA: jobs=%d avgNodes=%.2f avgExec=%.0f maxExec=%.1fh span=%.1fd load=%.3f",
		c.Jobs, c.AvgNodes, c.AvgExec, c.MaxExec.Hours(), c.Span.Hours()/24, log.OfferedLoad(128))
	if c.Jobs != 10000 {
		t.Fatalf("jobs = %d, want 10000", c.Jobs)
	}
	if math.Abs(c.AvgNodes-6.3) > 0.7 {
		t.Errorf("avg nodes = %.2f, want 6.3 +/- 0.7", c.AvgNodes)
	}
	if math.Abs(c.AvgExec-381)/381 > 0.15 {
		t.Errorf("avg exec = %.0f, want 381 +/- 15%%", c.AvgExec)
	}
	if c.MaxExec.Hours() > 12.01 {
		t.Errorf("max exec = %.1fh, want <= 12h", c.MaxExec.Hours())
	}
	if c.MaxExec.Hours() < 6 {
		t.Errorf("max exec = %.1fh; the 12h cap should nearly bind", c.MaxExec.Hours())
	}
	for _, j := range log.Jobs {
		if j.Nodes&(j.Nodes-1) != 0 {
			t.Fatalf("NASA job %d has non-power-of-two size %d", j.ID, j.Nodes)
		}
	}
	if err := log.Validate(128); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateSDSCMatchesTable1(t *testing.T) {
	log := GenerateSDSC(GenConfig{})
	c := log.Characteristics()
	t.Logf("SDSC: jobs=%d avgNodes=%.2f avgExec=%.0f maxExec=%.1fh span=%.1fd load=%.3f",
		c.Jobs, c.AvgNodes, c.AvgExec, c.MaxExec.Hours(), c.Span.Hours()/24, log.OfferedLoad(128))
	if c.Jobs != 10000 {
		t.Fatalf("jobs = %d, want 10000", c.Jobs)
	}
	if math.Abs(c.AvgNodes-9.7) > 1.0 {
		t.Errorf("avg nodes = %.2f, want 9.7 +/- 1.0", c.AvgNodes)
	}
	if math.Abs(c.AvgExec-7722)/7722 > 0.15 {
		t.Errorf("avg exec = %.0f, want 7722 +/- 15%%", c.AvgExec)
	}
	if c.MaxExec.Hours() > 132.01 {
		t.Errorf("max exec = %.1fh, want <= 132h", c.MaxExec.Hours())
	}
	if c.MaxExec.Hours() < 80 {
		t.Errorf("max exec = %.1fh; the 132h cap should nearly bind", c.MaxExec.Hours())
	}
	odd := 0
	for _, j := range log.Jobs {
		if j.Nodes&(j.Nodes-1) != 0 {
			odd++
		}
	}
	if odd < 1000 {
		t.Errorf("SDSC log has only %d non-power-of-two jobs; fragmentation regime needs many", odd)
	}
	if err := log.Validate(128); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := GenerateSDSC(GenConfig{Jobs: 500, Seed: 3})
	b := GenerateSDSC(GenConfig{Jobs: 500, Seed: 3})
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := GenerateSDSC(GenConfig{Jobs: 500, Seed: 4})
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].Exec == c.Jobs[i].Exec {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d/500 identical runtimes", same)
	}
}

func TestGenerateLoadTarget(t *testing.T) {
	for _, load := range []float64{0.4, 0.8} {
		log := GenerateNASA(GenConfig{Jobs: 2000, Load: load})
		got := log.OfferedLoad(128)
		if math.Abs(got-load)/load > 0.05 {
			t.Errorf("offered load = %.3f, want %.3f", got, load)
		}
	}
}

func TestGenerateByName(t *testing.T) {
	for _, name := range []string{"NASA", "nasa", "SDSC", "sdsc"} {
		log, err := Generate(name, GenConfig{Jobs: 10})
		if err != nil {
			t.Fatalf("Generate(%q): %v", name, err)
		}
		if len(log.Jobs) != 10 {
			t.Errorf("Generate(%q) produced %d jobs", name, len(log.Jobs))
		}
	}
	if _, err := Generate("LLNL", GenConfig{}); err == nil {
		t.Error("expected error for unknown log name")
	}
}

// TestResolveIsTheFullInput pins what the experiment harness keys its log
// cache by: a spelled-out default resolves like the omitted one, and the
// resolved input generates the same log as the original.
func TestResolveIsTheFullInput(t *testing.T) {
	name, short, err := Resolve("sdsc", GenConfig{Jobs: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, long, err := Resolve("SDSC", GenConfig{Jobs: 50, Seed: 3, ClusterNodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if name != "SDSC" || short != long {
		t.Errorf("Resolve: %q %+v and %+v, want SDSC and equal configs", name, short, long)
	}
	a, b := GenerateSDSC(GenConfig{Jobs: 50, Seed: 3}), GenerateSDSC(short)
	if !reflect.DeepEqual(a, b) {
		t.Error("the resolved input generates a different log")
	}
	if _, _, err := Resolve("LLNL", GenConfig{}); err == nil {
		t.Error("expected error for unknown log name")
	}
}

func TestDiurnalArrivals(t *testing.T) {
	flat := GenerateSDSC(GenConfig{Jobs: 5000, Seed: 6})
	cyclic := GenerateSDSC(GenConfig{Jobs: 5000, Seed: 6, Diurnal: 0.9})

	// The cycle must not break the load calibration.
	if got, want := cyclic.OfferedLoad(128), flat.OfferedLoad(128); math.Abs(got-want)/want > 0.02 {
		t.Errorf("diurnal load = %.3f, want ~%.3f", got, want)
	}

	// Hour-of-day concentration: compare the busiest vs quietest 6-hour
	// phase of the day; the cyclic log must be far more lopsided.
	phaseSpread := func(l *Log) float64 {
		counts := make([]int, 4)
		for _, j := range l.Jobs {
			secOfDay := int64(j.Arrival) % 86400
			counts[secOfDay/21600]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(min+1)
	}
	if phaseSpread(cyclic) < 1.5*phaseSpread(flat) {
		t.Errorf("diurnal concentration too weak: cyclic %.2f vs flat %.2f",
			phaseSpread(cyclic), phaseSpread(flat))
	}
}

func TestEstimateInflation(t *testing.T) {
	exact := GenerateSDSC(GenConfig{Jobs: 1000, Seed: 12})
	for _, j := range exact.Jobs {
		if j.Estimate != 0 {
			t.Fatalf("default generation must keep exact estimates: %+v", j)
		}
	}
	inflated := GenerateSDSC(GenConfig{Jobs: 1000, Seed: 12, EstimateInflation: 0.8})
	var sumFactor float64
	for _, j := range inflated.Jobs {
		if j.Estimate != 0 && j.Estimate <= j.Exec {
			t.Fatalf("non-exact estimate at or below runtime: %+v", j)
		}
		if j.Estimate > 8*j.Exec+1 {
			t.Fatalf("estimate beyond cap: %+v", j)
		}
		sumFactor += float64(j.PlanExec()) / float64(j.Exec)
	}
	mean := sumFactor / float64(len(inflated.Jobs))
	if mean < 1.5 || mean > 2.2 {
		t.Errorf("mean inflation factor = %.2f, want ~1.8", mean)
	}
	if err := inflated.Validate(128); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSWFRoundTrip(t *testing.T) {
	orig := GenerateNASA(GenConfig{Jobs: 200, Seed: 13, EstimateInflation: 1.0})
	var buf bytes.Buffer
	if err := orig.WriteSWF(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSWF("NASA", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Jobs {
		if parsed.Jobs[i] != orig.Jobs[i] {
			t.Fatalf("job %d: %+v != %+v", i, parsed.Jobs[i], orig.Jobs[i])
		}
	}
}

func TestUnderestimateRejected(t *testing.T) {
	j := Job{ID: 1, Nodes: 2, Exec: 100, Estimate: 50}
	if err := j.Validate(128); err == nil {
		t.Error("underestimate must be rejected")
	}
	exactish := Job{ID: 1, Nodes: 2, Exec: 100, Estimate: 100}
	if err := exactish.Validate(128); err != nil {
		t.Errorf("estimate == runtime should be fine: %v", err)
	}
}
