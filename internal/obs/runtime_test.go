package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCaptureRuntime(t *testing.T) {
	r := NewRegistry()
	CaptureRuntime(r)
	if v := r.Gauge("go_goroutines", "", nil).Value(); v < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", v)
	}
	if v := r.Gauge("go_memstats_heap_alloc_bytes", "", nil).Value(); v <= 0 {
		t.Errorf("heap alloc gauge = %v, want > 0", v)
	}
	if v := r.Gauge("go_memstats_sys_bytes", "", nil).Value(); v <= 0 {
		t.Errorf("sys bytes gauge = %v, want > 0", v)
	}
}

func TestServerOnScrapeRefreshesMetrics(t *testing.T) {
	r := NewRegistry()
	srv := NewServer(r, nil)
	srv.SetOnScrape(func() { CaptureRuntime(r) })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %s after scrape hook", want)
		}
	}

	// The hook also runs for /snapshot.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "go_goroutines") {
		t.Fatalf("/snapshot: code %d, runtime gauges present: %v",
			rec.Code, strings.Contains(rec.Body.String(), "go_goroutines"))
	}
}
