// Package trace is qosd's request-scoped tracing layer. A Tracer records
// named wall-clock spans — HTTP handling, session-book operations, WAL
// appends, snapshots, engine advances — attributed to a trace ID that
// travels with the request (the X-Qos-Trace header), into sharded ring
// buffers exportable as Chrome trace_event JSON. The promise-conformance
// ledger, which lives on the virtual clock, is metrics.Ledger.
//
// Like sim.Probe, the whole layer is strictly opt-in: a nil *Tracer hands
// out nil *Scopes, every method is nil-receiver safe, and the disabled
// path never reads the wall clock or allocates.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed timed operation attributed to a trace.
type Span struct {
	TraceID string
	Name    string
	Start   time.Time
	Dur     time.Duration
	Args    map[string]string
}

// numShards spreads flushing scopes over independent locks so concurrent
// request goroutines do not serialize on one ring.
const numShards = 8

// defaultCapacity is the total span capacity when New is given none.
const defaultCapacity = 8192

// Tracer retains the most recent spans in per-shard ring buffers. All
// methods are safe for concurrent use; a nil *Tracer is a valid disabled
// tracer.
type Tracer struct {
	epoch   time.Time
	perRing int
	shards  [numShards]ring
	dropped atomic.Uint64
}

type ring struct {
	mu   sync.Mutex
	buf  []Span
	next int
}

// New returns a tracer retaining roughly the given number of most recent
// spans (0 means a default of 8192).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	per := (capacity + numShards - 1) / numShards
	//qoslint:allow detwallclock tracing epoch; observability only, never feeds replayed state
	return &Tracer{epoch: time.Now(), perRing: per}
}

// Enabled reports whether spans are being recorded. A nil tracer is
// disabled.
func (t *Tracer) Enabled() bool { return t != nil }

// Dropped counts spans overwritten before export because a ring wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// NewTraceID mints a 16-hex-digit random trace ID. IDs are wall-random by
// design and must never enter replayed state; they exist only to correlate
// spans across client retries and server logs.
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// hashID is FNV-1a over the trace ID, inlined to keep the hot path
// dependency-free.
func hashID(traceID string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(traceID); i++ {
		h ^= uint32(traceID[i])
		h *= 16777619
	}
	return h
}

// shardFor picks the ring all spans of one trace land in.
func shardFor(traceID string) int { return int(hashID(traceID) % numShards) }

// StartScope opens a per-request span collector for the given trace ID.
// On a nil (disabled) tracer it returns a nil scope whose methods are all
// no-ops, so call sites need no enabled-checks of their own.
//
// A Scope is NOT safe for concurrent use: qosd hands it from the handler
// goroutine to the state-machine goroutine and back through channel
// operations, which order all accesses.
func (t *Tracer) StartScope(traceID string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, traceID: traceID}
}

// Scope accumulates the spans of one request before they are flushed into
// the tracer's rings.
type Scope struct {
	t       *Tracer
	traceID string
	spans   []Span
}

// SpanHandle refers to one in-flight span of a scope. The zero handle
// (from a nil scope) is inert.
type SpanHandle struct {
	sc  *Scope
	idx int
}

// Start opens a span. End closes it; an unclosed span exports with zero
// duration rather than being lost.
func (sc *Scope) Start(name string) SpanHandle {
	if sc == nil {
		return SpanHandle{}
	}
	//qoslint:allow detwallclock span timing; observability only, never feeds replayed state
	sc.spans = append(sc.spans, Span{TraceID: sc.traceID, Name: name, Start: time.Now()})
	return SpanHandle{sc: sc, idx: len(sc.spans) - 1}
}

// End closes the span.
func (h SpanHandle) End() {
	if h.sc == nil {
		return
	}
	sp := &h.sc.spans[h.idx]
	//qoslint:allow detwallclock span timing; observability only, never feeds replayed state
	sp.Dur = time.Since(sp.Start)
}

// Recording reports whether the span records, so a caller formats an
// annotation's value only when it will be kept.
func (h SpanHandle) Recording() bool { return h.sc != nil }

// Annotate attaches one key=value argument to the span, shown in the
// Chrome trace viewer's detail pane.
func (h SpanHandle) Annotate(key, value string) {
	if h.sc == nil {
		return
	}
	sp := &h.sc.spans[h.idx]
	if sp.Args == nil {
		sp.Args = make(map[string]string, 2)
	}
	sp.Args[key] = value
}

// Spans returns the spans recorded so far, oldest first. The slice shares
// the scope's backing array; callers must not mutate it.
func (sc *Scope) Spans() []Span {
	if sc == nil {
		return nil
	}
	return sc.spans
}

// Flush commits the scope's spans into the tracer's ring. Call once, after
// the request finishes; the scope must not be reused.
func (sc *Scope) Flush() {
	if sc == nil || len(sc.spans) == 0 {
		return
	}
	r := &sc.t.shards[shardFor(sc.traceID)]
	r.mu.Lock()
	overwritten := 0
	for _, sp := range sc.spans {
		if len(r.buf) < sc.t.perRing {
			r.buf = append(r.buf, sp)
			continue
		}
		if r.next >= len(r.buf) {
			r.next = 0
		}
		r.buf[r.next] = sp
		r.next++
		overwritten++
	}
	r.mu.Unlock()
	if overwritten > 0 {
		sc.t.dropped.Add(uint64(overwritten))
	}
}

// Snapshot copies every retained span, sorted by start time.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		r := &t.shards[i]
		r.mu.Lock()
		out = append(out, r.buf...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
