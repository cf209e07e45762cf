package predict

import (
	"testing"

	"probqos/internal/failure"
	"probqos/internal/trace"
	"probqos/internal/units"
)

func benchTrace(b *testing.B) *failure.Trace {
	b.Helper()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 1}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTracePFail measures the hot predictor query the scheduler makes
// for every candidate node set.
func BenchmarkTracePFail(b *testing.B) {
	tr := benchTrace(b)
	p, err := NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 16)
	for i := range nodes {
		nodes[i] = i * 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := units.Time(i%1000) * 3600
		p.PFail(nodes, from, from.Add(6*units.Hour))
	}
}

// BenchmarkTracePFailSingleNode measures the per-node scoring query used
// by fault-aware node selection.
func BenchmarkTracePFailSingleNode(b *testing.B) {
	tr := benchTrace(b)
	p, err := NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := units.Time(i%1000) * 3600
		p.PFail([]int{i % 128}, from, from.Add(6*units.Hour))
	}
}

// BenchmarkTraceAppendPFailNodes measures the scoring query fault-aware
// node selection makes at every candidate start: all 128 nodes priced in
// one call, appended into a reused scratch slice.
func BenchmarkTraceAppendPFailNodes(b *testing.B) {
	tr := benchTrace(b)
	p, err := NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 128)
	for i := range nodes {
		nodes[i] = i
	}
	scratch := make([]float64, 0, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := units.Time(i%1000) * 3600
		scratch = p.AppendPFailNodes(scratch[:0], nodes, from, from.Add(6*units.Hour))
	}
}

// BenchmarkTraceFirstDetectable measures the partition query behind PFail
// and the negotiator's Locator: the first detectable failure on a 32-node
// partition over a quote-sized window.
func BenchmarkTraceFirstDetectable(b *testing.B) {
	tr := benchTrace(b)
	p, err := NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 32)
	for i := range nodes {
		nodes[i] = 3 * i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := units.Time(i%1000) * 3600
		p.FirstDetectable(nodes, from, from.Add(12*units.Hour))
	}
}

// BenchmarkTracePFailSingleNodeTracingDisabled is the single-node quote
// query with the tracing layer compiled into the binary but disabled at
// runtime: the nil-tracer scope/span calls around the hot loop must cost
// nothing — bench-smoke asserts this stays at 0 allocs/op alongside the
// plain benchmark above.
func BenchmarkTracePFailSingleNodeTracingDisabled(b *testing.B) {
	tr := benchTrace(b)
	p, err := NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	var tracer *trace.Tracer // nil: tracing disabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := tracer.StartScope("bench")
		sp := sc.Start("quote")
		from := units.Time(i%1000) * 3600
		p.PFail([]int{i % 128}, from, from.Add(6*units.Hour))
		sp.End()
		sc.Flush()
	}
}

// BenchmarkBaseRatePFail measures the MTBF-hazard floor computation.
func BenchmarkBaseRatePFail(b *testing.B) {
	p, err := NewBaseRate(45 * units.Day)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PFail(nodes, 0, units.Time(2*units.Hour))
	}
}
