package failure

import (
	"math"
	"testing"

	"probqos/internal/units"
)

func TestGenerateTraceCalibration(t *testing.T) {
	tr, err := GenerateTrace(RawConfig{}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	t.Logf("trace: failures=%d span=%.1fd clusterMTBF=%.2fh nodeMTBF=%.1fw perDay=%.2f maxPerNode=%d",
		s.Failures, s.Span.Hours()/24, s.ClusterMTBF.Hours(), s.NodeMTBF.Hours()/(24*7), s.PerDay, s.MaxPerNode)

	// Paper §4.3: 1,021 failures over a year on 128 machines, ~2.8/day,
	// cluster MTBF 8.5 h, average node MTBF ~6.5 weeks.
	if math.Abs(float64(s.Failures)-1021) > 110 {
		t.Errorf("failures = %d, want ~1021", s.Failures)
	}
	if math.Abs(s.ClusterMTBF.Hours()-8.5) > 1.5 {
		t.Errorf("cluster MTBF = %.2fh, want ~8.5h", s.ClusterMTBF.Hours())
	}
	if math.Abs(s.PerDay-2.8) > 0.5 {
		t.Errorf("failures/day = %.2f, want ~2.8", s.PerDay)
	}
	nodeMTBFWeeks := s.NodeMTBF.Hours() / (24 * 7)
	if math.Abs(nodeMTBFWeeks-6.5) > 1.3 {
		t.Errorf("node MTBF = %.1f weeks, want ~6.5", nodeMTBFWeeks)
	}
}

func TestGenerateTraceBurstiness(t *testing.T) {
	tr, err := GenerateTrace(RawConfig{}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	var gaps []float64
	for i := 1; i < len(events); i++ {
		gaps = append(gaps, events[i].Time.Sub(events[i-1].Time).Seconds())
	}
	var mean, sq float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps)-1)) / mean
	// A Poisson process has CV=1; the paper's trace is bursty, so the
	// coefficient of variation must be clearly above 1.
	if cv < 1.2 {
		t.Errorf("inter-failure CV = %.2f, want > 1.2 (bursty)", cv)
	}
	t.Logf("inter-failure gap CV = %.2f", cv)
}

func TestGenerateTraceNodeSkew(t *testing.T) {
	tr, err := GenerateTrace(RawConfig{}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tr.Nodes())
	for _, e := range tr.Events() {
		counts[e.Node]++
	}
	max, nonzero := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c > 0 {
			nonzero++
		}
	}
	avg := float64(tr.Len()) / float64(tr.Nodes())
	if float64(max) < 2.5*avg {
		t.Errorf("max per-node failures %d vs avg %.1f: per-node skew too weak", max, avg)
	}
	if nonzero < tr.Nodes()/2 {
		t.Errorf("only %d/%d nodes ever fail; skew too strong", nonzero, tr.Nodes())
	}
}

func TestGenerateRawLogHasPrecursorsAndNoise(t *testing.T) {
	raw := GenerateRawLog(RawConfig{Episodes: 200, Span: 30 * units.Day})
	bySeverity := make(map[Severity]int)
	for _, e := range raw {
		bySeverity[e.Severity]++
	}
	if bySeverity[Info] == 0 || bySeverity[Warning] == 0 || bySeverity[Error] == 0 {
		t.Errorf("raw log missing benign/precursor severities: %v", bySeverity)
	}
	critical := bySeverity[Fatal] + bySeverity[Failure]
	if critical < 200 {
		t.Errorf("raw log has %d critical events, want >= 200 (episodes + duplicates)", critical)
	}
	for i := 1; i < len(raw); i++ {
		if raw[i].Time < raw[i-1].Time {
			t.Fatal("raw log not sorted by time")
		}
	}
}

func TestFilterCoalescesRootCauses(t *testing.T) {
	// Three critical events sharing one root cause (same subsystem, within
	// the window) plus one independent later failure.
	raw := []RawEvent{
		{Time: 100, Node: 1, Severity: Fatal, Subsystem: SubsystemDisk},
		{Time: 130, Node: 1, Severity: Fatal, Subsystem: SubsystemDisk},   // repeat
		{Time: 150, Node: 7, Severity: Failure, Subsystem: SubsystemDisk}, // sympathetic
		{Time: 120, Node: 3, Severity: Warning, Subsystem: SubsystemDisk}, // not critical
		{Time: 100000, Node: 2, Severity: Fatal, Subsystem: SubsystemDisk},
		{Time: 140, Node: 4, Severity: Fatal, Subsystem: SubsystemCPU}, // different subsystem
	}
	tr, err := Filter(raw, 8, FilterConfig{Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("filtered %d failures, want 3: %+v", tr.Len(), tr.Events())
	}
	events := tr.Events()
	if events[0].Node != 1 || events[0].Time != 100 {
		t.Errorf("first kept failure = %+v, want node 1 at t=100", events[0])
	}
	if events[1].Node != 4 {
		t.Errorf("second kept failure = %+v, want the CPU failure on node 4", events[1])
	}
	if events[2].Time != 100000 {
		t.Errorf("third kept failure = %+v, want the independent one", events[2])
	}
}

func TestFilterDetectabilitiesValidAndDeterministic(t *testing.T) {
	raw := GenerateRawLog(RawConfig{Episodes: 300, Seed: 9})
	a, err := Filter(raw, 128, FilterConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Filter(raw, 128, FilterConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range a.Events() {
		if e.Detectability < 0 || e.Detectability >= 1 {
			t.Fatalf("detectability out of range: %v", e.Detectability)
		}
		if b.At(i) != e {
			t.Fatal("Filter is not deterministic for a fixed seed")
		}
	}
	c, err := Filter(raw, 128, FilterConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0).Detectability == a.At(0).Detectability {
		t.Error("different detectability seeds produced identical assignments")
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	t1, err := GenerateTrace(RawConfig{Seed: 42}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GenerateTrace(RawConfig{Seed: 42}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t2.Len() {
		t.Fatalf("lengths differ: %d vs %d", t1.Len(), t2.Len())
	}
	for i := 0; i < t1.Len(); i++ {
		if t1.At(i) != t2.At(i) {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestGenerateTraceMatchesFilteredRawLog is GenerateTrace's differential
// test: building the trace without the raw log's noise must give, event by
// event, the trace Filter makes of the full raw log.
func TestGenerateTraceMatchesFilteredRawLog(t *testing.T) {
	configs := []struct {
		name  string
		raw   RawConfig
		fcfg  FilterConfig
		seeds int
	}{
		{"default", RawConfig{}, FilterConfig{}, 40},
		{"custom", RawConfig{Nodes: 24, Episodes: 150, Span: 60 * units.Day, NoisePerNodePerDay: 9, BurstShape: 0.7},
			FilterConfig{Window: 2 * units.Minute, Seed: 77}, 40},
	}
	for _, c := range configs {
		for seed := int64(0); seed < int64(c.seeds); seed++ {
			rc := c.raw
			rc.Seed = seed
			got, err := GenerateTrace(rc, c.fcfg)
			if err != nil {
				t.Fatal(err)
			}
			// GenerateTrace's own defaults: the cluster size, and the
			// detectability stream seeded from the raw seed.
			fc := c.fcfg
			if fc.Seed == 0 {
				fc.Seed = seed
			}
			want, err := Filter(GenerateRawLog(rc), rc.withDefaults().Nodes, fc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Nodes() != want.Nodes() || got.Len() != want.Len() {
				t.Fatalf("%s seed %d: %d nodes/%d failures, want %d/%d",
					c.name, seed, got.Nodes(), got.Len(), want.Nodes(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.At(i) != want.At(i) {
					t.Fatalf("%s seed %d: failure %d = %+v, want %+v", c.name, seed, i, got.At(i), want.At(i))
				}
			}
		}
	}
}
