package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestScopeRecordsSpans(t *testing.T) {
	tr := New(64)
	sc := tr.StartScope("abc123")
	h := sc.Start("http.quote")
	inner := sc.Start("wal.append")
	if !inner.Recording() {
		t.Fatal("a span of an enabled tracer does not record")
	}
	inner.Annotate("bytes", "17")
	inner.End()
	h.End()
	sc.Flush()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		if sp.TraceID != "abc123" {
			t.Errorf("span %q has trace %q", sp.Name, sp.TraceID)
		}
		byName[sp.Name] = sp
	}
	if byName["wal.append"].Args["bytes"] != "17" {
		t.Errorf("annotation lost: %+v", byName["wal.append"])
	}
	if byName["http.quote"].Dur < byName["wal.append"].Dur {
		t.Errorf("outer span shorter than nested span: %+v", byName)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	sc := tr.StartScope("x")
	if sc != nil {
		t.Fatalf("nil tracer handed out a scope: %v", sc)
	}
	// Every method must be a no-op on the nil scope, and the disabled path
	// must not allocate: that is the quote fast path's overhead budget.
	allocs := testing.AllocsPerRun(100, func() {
		h := sc.Start("op")
		if h.Recording() {
			t.Error("a span of a nil scope records")
		}
		h.Annotate("k", "v")
		h.End()
		_ = sc.Spans()
		sc.Flush()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f times per op, want 0", allocs)
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot: %v", got)
	}
	if err := tr.Export(&bytes.Buffer{}, ""); err == nil {
		t.Fatal("nil tracer export did not error")
	}
}

func TestRingWrapsAndCountsDrops(t *testing.T) {
	tr := New(numShards) // one span per shard
	for i := 0; i < 100; i++ {
		sc := tr.StartScope(NewTraceID())
		sc.Start("op").End()
		sc.Flush()
	}
	if n := len(tr.Snapshot()); n > numShards {
		t.Fatalf("ring retained %d spans, capacity %d", n, numShards)
	}
	if tr.Dropped() == 0 {
		t.Fatal("overwriting flushes reported no drops")
	}
}

func TestTraceIDsAreUniqueAndWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("malformed trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestConcurrentFlushes(t *testing.T) {
	tr := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sc := tr.StartScope(NewTraceID())
				sc.Start("op").End()
				sc.Flush()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Snapshot()); n != 400 {
		t.Fatalf("retained %d spans, want 400", n)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(64)
	keep := NewTraceID()
	sc := tr.StartScope(keep)
	sc.Start("quote").End()
	h := sc.Start("admit")
	h.Annotate("job", "7")
	h.End()
	sc.Flush()
	other := tr.StartScope(NewTraceID())
	other.Start("advance").End()
	other.Flush()

	var buf bytes.Buffer
	if err := tr.Export(&buf, ""); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID < 1 || ev.TS < 0 {
			t.Errorf("malformed event %+v", ev)
		}
		if ev.Args["trace"] == "" {
			t.Errorf("event %q lacks its trace argument", ev.Name)
		}
	}

	// Filtered export returns only the sampled trace's spans.
	buf.Reset()
	if err := tr.Export(&buf, keep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("filtered export has %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Args["trace"] != keep {
			t.Errorf("filtered export leaked trace %q", ev.Args["trace"])
		}
	}
	if doc.TraceEvents[1].Args["job"] != "7" {
		t.Errorf("annotation lost in export: %+v", doc.TraceEvents[1])
	}
}

func TestSnapshotSortedByStart(t *testing.T) {
	tr := New(64)
	for i := 0; i < 5; i++ {
		sc := tr.StartScope(NewTraceID())
		sc.Start("op").End()
		sc.Flush()
		time.Sleep(time.Millisecond)
	}
	spans := tr.Snapshot()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
}
