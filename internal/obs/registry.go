// Package obs is the simulator's instrumentation layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms), an
// Instrument that turns the simulator's probe stream into live metrics, a
// cluster-state time series, and a per-phase wall-clock report, and
// exposition as Prometheus text, JSON snapshots, CSV series, and an opt-in
// HTTP endpoint.
//
// Everything is stdlib-only and safe for concurrent use. Instrumentation is
// strictly opt-in: a simulation with no Probe attached pays nothing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimension values to one instrument of a metric family, e.g.
// Labels{"kind": "arrival"}. Instruments of one family must share a name and
// kind; their label sets tell them apart.
type Labels map[string]string

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families and hands out their instruments.
// Registration is idempotent: asking twice for the same name and labels
// returns the same instrument, so call sites need no global wiring. A nil
// *Registry is unusable; instruments themselves tolerate concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram upper bounds, strictly increasing

	mu       sync.Mutex
	children map[string]any // keyed by rendered label string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it on first use; the name and
// any histogram bounds are validated, and the bounds copied, only then.
// Re-registering a name under a different kind is a programming error and
// panics.
func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		mustValidName(name)
		if kind == histogramKind {
			for i, b := range bounds {
				if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= bounds[i-1]) {
					panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly increasing: %v", name, bounds))
				}
			}
			bounds = append([]float64(nil), bounds...)
		}
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			children: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter with the given name and labels, registering it
// on first use. Counters only go up.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, counterKind, nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{labels: copyLabels(labels), labelKey: key}
	f.children[key] = c
	return c
}

// Gauge returns the gauge with the given name and labels, registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.family(name, help, gaugeKind, nil)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.children[key]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{labels: copyLabels(labels), labelKey: key}
	f.children[key] = g
	return g
}

// Histogram returns the fixed-bucket histogram with the given name and
// labels, registering it on first use. Bounds are the bucket upper limits,
// strictly increasing and finite; a +Inf overflow bucket is implicit. The
// bounds of the first registration win for the whole family: they are
// validated and copied then, and ignored on later calls.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	f := r.family(name, help, histogramKind, bounds)
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.children[key]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{
		labels: copyLabels(labels), labelKey: key,
		bounds: f.bounds,
		counts: make([]atomic.Uint64, len(f.bounds)+1),
	}
	f.children[key] = h
	return h
}

// Counter is a monotonically increasing value.
type Counter struct {
	labels   Labels
	labelKey string
	bits     atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("obs: counter add of invalid value %v", v))
	}
	addFloatBits(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	labels   Labels
	labelKey string
	bits     atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloatBits(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets.
type Histogram struct {
	labels   Labels
	labelKey string
	bounds   []float64
	counts   []atomic.Uint64 // per-bucket, non-cumulative; last is overflow
	sumBits  atomic.Uint64
	count    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	addFloatBits(&h.sumBits, v)
	h.count.Add(1)
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// addFloatBits atomically adds v to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// renderLabels produces the canonical `{k="v",...}` form with sorted keys,
// or "" for no labels. The rendered form doubles as the child map key.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		mustValidLabelName(k)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func mustValidName(name string) {
	if !validIdent(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func mustValidLabelName(name string) {
	if !validIdent(name, false) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

// validIdent reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]* (metric
// names) or [a-zA-Z_][a-zA-Z0-9_]* (label names, colons=false).
func validIdent(s string, colons bool) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && colons:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
