package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"probqos/internal/failure"
	"probqos/internal/obs"
	"probqos/internal/units"
)

// newTestService builds a service over an empty failure trace with a
// manual clock.
func newTestService(t *testing.T, nodes int) *Service {
	t.Helper()
	tr, err := failure.NewTrace(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// call sends one request through the full handler stack and decodes the
// JSON response into out (when out is non-nil).
func call(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestQuoteAcceptLifecycle(t *testing.T) {
	s := newTestService(t, 8)
	h := s.Handler()

	var quote quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 4, "exec_seconds": 3600}, &quote); code != http.StatusOK {
		t.Fatalf("quote: code %d", code)
	}
	if quote.SessionID == "" || len(quote.Quotes) == 0 {
		t.Fatalf("no offers on an empty cluster: %+v", quote)
	}
	if quote.Quotes[0].Success <= 0 || quote.Quotes[0].Success > 1 {
		t.Fatalf("offer success %v outside (0,1]", quote.Quotes[0].Success)
	}

	var acc acceptResponse
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, &acc); code != http.StatusOK {
		t.Fatalf("accept: code %d", code)
	}
	if acc.JobID == 0 || acc.Deadline != quote.Quotes[0].Deadline {
		t.Fatalf("accept response %+v does not match offer %+v", acc, quote.Quotes[0])
	}

	// A second accept of the same session must fail: the dialog is settled.
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("re-accept: code %d, want 404", code)
	}

	var st map[string]any
	if code := call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st); code != http.StatusOK {
		t.Fatalf("job status: code %d", code)
	}
	if st["state"] != "queued" {
		t.Fatalf("state %v before the clock moves, want queued", st["state"])
	}

	// Run the virtual clock past the deadline: the empty trace has no
	// failures, so the job must complete and the promise hold.
	if code := call(t, h, "POST", "/v1/advance",
		map[string]any{"to": acc.Deadline.Add(units.Hour)}, nil); code != http.StatusOK {
		t.Fatalf("advance: code %d", code)
	}
	if code := call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st); code != http.StatusOK {
		t.Fatalf("job status: code %d", code)
	}
	if st["state"] != "completed" || st["met_deadline"] != true {
		t.Fatalf("job did not complete on time: %+v", st)
	}
}

func TestAcceptStaleQuoteConflicts(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()

	var quote quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 4, "exec_seconds": 600}, &quote)
	// Move the clock beyond the offer's start while the client dithers
	// (but within the session TTL): the slot is gone.
	call(t, h, "POST", "/v1/advance",
		map[string]any{"to": quote.Quotes[0].Start.Add(30 * units.Minute)}, nil)
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, nil); code != http.StatusConflict {
		t.Fatalf("stale accept: code %d, want 409", code)
	}
}

// TestAdvanceAndFaultReplyBytes pins the advance and fault replies to the
// bytes their map-typed forms encoded to: {"now":N}, and {"at":T,"node":K}
// with the keys in sorted order.
func TestAdvanceAndFaultReplyBytes(t *testing.T) {
	h := newTestService(t, 8).Handler()
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/advance", `{"by_seconds":600}`, `{"now":600}`},
		{"/v1/faults", `{"node":3,"after_seconds":120}`, `{"at":720,"node":3}`},
		{"/v1/advance", `{"to":86400}`, `{"now":86400}`},
	} {
		rec := callRec(t, h, "POST", tc.path, nil, tc.body)
		if rec.Code >= 300 {
			t.Fatalf("POST %s %s: code %d", tc.path, tc.body, rec.Code)
		}
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Errorf("POST %s %s: body %q, want %q", tc.path, tc.body, got, tc.want+"\n")
		}
	}
}

// TestReplyBytes pins the exact bytes (trailing newline included) and the
// Content-Type of a negotiation's replies, success and error alike, and of
// /debug/trace with tracing off.
func TestReplyBytes(t *testing.T) {
	h := newTestService(t, 4).Handler()
	for _, tc := range []struct {
		name, method, path, body string
		code                     int
		want                     string
	}{
		{"quote", "POST", "/v1/quote", `{"nodes":2,"exec_seconds":600}`, http.StatusOK,
			`{"session_id":"q-1","now":0,"expires":3600,"quotes":[{"offer":1,"start":0,"deadline":600,"success":1}]}`},
		{"accept", "POST", "/v1/accept", `{"session_id":"q-1","offer":1}`, http.StatusOK,
			`{"job_id":1,"start":0,"deadline":600,"promised":1}`},
		{"unknown field", "POST", "/v1/quote", `{"nodes":2,"exec_seconds":600,"bogus":1}`, http.StatusBadRequest,
			`{"error":"json: unknown field \"bogus\""}`},
		// q-2 offers the whole cluster from t=600, after job 1; q-3 is
		// left to lapse.
		{"stale quote: open", "POST", "/v1/quote", `{"nodes":4,"exec_seconds":600,"max_quotes":1}`, http.StatusOK,
			`{"session_id":"q-2","now":0,"expires":3600,"quotes":[{"offer":1,"start":600,"deadline":1200,"success":1}]}`},
		{"expiring: open", "POST", "/v1/quote", `{"nodes":1,"exec_seconds":60,"max_quotes":1}`, http.StatusOK,
			`{"session_id":"q-3","now":0,"expires":3600,"quotes":[{"offer":1,"start":0,"deadline":60,"success":1}]}`},
		{"stale quote: advance", "POST", "/v1/advance", `{"to":1000}`, http.StatusOK, `{"now":1000}`},
		{"stale quote", "POST", "/v1/accept", `{"session_id":"q-2","offer":1}`, http.StatusConflict,
			`{"error":"quote no longer holds: sim: quote start is in the past: start d0+00:10:00, now d0+00:16:40"}`},
		{"expired: advance", "POST", "/v1/advance", `{"to":7200}`, http.StatusOK, `{"now":7200}`},
		{"expired session", "POST", "/v1/accept", `{"session_id":"q-3","offer":1}`, http.StatusNotFound,
			`{"error":"session \"q-3\" unknown or expired; request a fresh quote"}`},
		{"trace off", "GET", "/debug/trace", ``, http.StatusNotFound,
			`{"error":"tracing disabled; start qosd with a span budget (-trace-spans)"}`},
	} {
		rec := callRec(t, h, tc.method, tc.path, nil, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, rec.Code, tc.code)
		}
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Errorf("%s: body\n%q, want\n%q", tc.name, got, tc.want+"\n")
		}
		if got := rec.Header()["Content-Type"]; len(got) != 1 || got[0] != "application/json" {
			t.Errorf("%s: Content-Type %q, want [application/json]", tc.name, got)
		}
	}
}

// TestLoopHopAllocatesNothing: running a prebuilt function (s.do) or a
// request's prebuilt section (s.onLoop) on the state-machine goroutine
// takes a pooled call value, not a fresh channel or closure.
func TestLoopHopAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled call values at random")
	}
	s := newTestService(t, 4)
	ran := 0
	fn := func() { ran++ }
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.do(fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("s.do allocates %v times per call, want 0", allocs)
	}
	if ran != 101 {
		t.Errorf("fn ran %d times, want 101", ran)
	}
	// A request's section takes the same hop, after a tick of the clock.
	handler := func() (int, any, error) { ran++; return http.StatusOK, nil, nil }
	allocs = testing.AllocsPerRun(100, func() {
		if code, _, err := s.onLoop(nil, handler); code != http.StatusOK || err != nil {
			t.Fatalf("onLoop: %d %v", code, err)
		}
	})
	if allocs != 0 {
		t.Errorf("s.onLoop allocates %v times per call, want 0", allocs)
	}
	if ran != 202 {
		t.Errorf("fn and handler ran %d times, want 202", ran)
	}
}

func TestQuoteRejectsOversizeJob(t *testing.T) {
	s := newTestService(t, 4)
	if code := call(t, s.Handler(), "POST", "/v1/quote",
		map[string]any{"nodes": 5, "exec_seconds": 60}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("oversize quote: code %d, want 422", code)
	}
}

func TestFaultInjectionBreaksPromise(t *testing.T) {
	s := newTestService(t, 2)
	h := s.Handler()

	var quote quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 2, "exec_seconds": 7200}, &quote)
	var acc acceptResponse
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": quote.SessionID, "offer": 1}, &acc); code != http.StatusOK {
		t.Fatalf("accept: code %d", code)
	}

	// Kill a node mid-run, repeatedly enough that the two-node job cannot
	// recover before its deadline (the trace predictor never saw these, so
	// no quote priced them in).
	at := acc.Start.Add(1800)
	for i := 0; i < 40; i++ {
		if code := call(t, h, "POST", "/v1/faults",
			map[string]any{"node": 0, "at": at}, nil); code != http.StatusAccepted {
			t.Fatalf("fault injection: code %d", code)
		}
		at = at.Add(1800)
	}
	call(t, h, "POST", "/v1/advance", map[string]any{"to": acc.Deadline.Add(units.Hour)}, nil)

	var st map[string]any
	call(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", acc.JobID), nil, &st)
	if st["state"] != "missed" {
		t.Fatalf("state %v after saturating faults, want missed", st["state"])
	}
	if n := st["failures_suffered"].(float64); n == 0 {
		t.Fatal("job records no suffered failures")
	}
}

func TestAdmissionControl(t *testing.T) {
	tr, _ := failure.NewTrace(16, nil)
	cfg := DefaultConfig(tr)
	cfg.MaxOutstanding = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	var q1, q2 quoteResponse
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 3600}, &q1)
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 3600}, &q2)
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q1.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("first accept: code %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q2.SessionID, "offer": 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit accept: code %d, want 503", code)
	}
}

func TestStrictDecoding(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	for _, body := range []string{
		``, `{`, `{"nodes": 1}`, `{"nodes": 1, "exec_seconds": 0}`,
		`{"nodes": -1, "exec_seconds": 60}`,
		`{"nodes": 1, "exec_seconds": 60, "bogus": true}`,
		`{"nodes": 1, "exec_seconds": 60} trailing`,
	} {
		req := httptest.NewRequest("POST", "/v1/quote", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, rec.Code)
		}
	}
}

func TestMetricsExposed(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	call(t, h, "POST", "/v1/quote", map[string]any{"nodes": 1, "exec_seconds": 60}, nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"qosd_requests_total", "qosd_request_seconds", "qosd_sessions_opened_total",
		"qosd_virtual_time_seconds", "qosd_jobs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: code %d", rec.Code)
	}

	// After Close the scrape hook cannot reach the state machine; the
	// scrape must still answer promptly with the counters.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	scraped := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		scraped <- rec
	}()
	select {
	case rec = <-scraped:
	case <-time.After(5 * time.Second):
		t.Fatal("/metrics after Close did not answer within 5s")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics after Close: code %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "qosd_requests_total") {
		t.Error("/metrics after Close lacks qosd_requests_total")
	}
}

// TestInstrumentsAppearOnFirstUse pins the cached instruments to the
// series /metrics showed when every call looked them up by name: a fresh
// durable service exposes no accept, session, fsync or request series
// until one has counted something, and a cached counter keeps counting.
func TestInstrumentsAppearOnFirstUse(t *testing.T) {
	s, err := New(durableConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	scrape := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: code %d", rec.Code)
		}
		return rec.Body.String()
	}
	text := scrape()
	for _, absent := range []string{
		"qosd_accepts_total", "qosd_sessions_opened_total", "qosd_quotes_issued_total",
		"qosd_wal_fsync_seconds", "qosd_wal_records_total", "qosd_requests_total",
		"qosd_request_seconds",
	} {
		if strings.Contains(text, absent) {
			t.Errorf("fresh service exposes %s before first use", absent)
		}
	}

	const n = 3
	for i := 0; i < n; i++ {
		var q quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 1, "exec_seconds": 60}, &q); code != http.StatusOK {
			t.Fatalf("quote: code %d", code)
		}
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("accept: code %d", code)
		}
	}
	text = scrape()
	for _, want := range []string{
		`qosd_accepts_total{outcome="accepted"} 3`,
		"qosd_sessions_opened_total 3",
		"qosd_wal_records_total 6",
		"qosd_wal_fsync_seconds_count 6",
		`qosd_requests_total{code="200",endpoint="accept"} 3`,
		`qosd_request_seconds_count{endpoint="quote"} 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	// Only the outcome and code that happened have series.
	for _, absent := range []string{`outcome="conflict"`, `code="404"`, `endpoint="advance"`} {
		if strings.Contains(text, absent) {
			t.Errorf("/metrics shows %s, which never happened", absent)
		}
	}
}

// TestObserveRequestConcurrent races handler goroutines on the request
// instrument cache, first resolutions included: every observation lands
// in the one series its (endpoint, code) names.
func TestObserveRequestConcurrent(t *testing.T) {
	s := newTestService(t, 4)
	endpoints := []string{"quote", "accept", "advance"}
	codes := []int{http.StatusOK, http.StatusNotFound}
	const workers, each = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.observeRequest(endpoints[(w+i)%len(endpoints)], codes[i%len(codes)], time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, ep := range endpoints {
		var byCode float64
		for _, code := range codes {
			byCode += s.reg.Counter("qosd_requests_total", "",
				obs.Labels{"endpoint": ep, "code": strconv.Itoa(code)}).Value()
		}
		h := s.reg.Histogram("qosd_request_seconds", "", latencyBounds, obs.Labels{"endpoint": ep})
		if float64(h.Count()) != byCode {
			t.Errorf("%s: histogram counted %d, counters %v", ep, h.Count(), byCode)
		}
		total += byCode
	}
	if total != workers*each {
		t.Errorf("counted %v requests, want %d", total, workers*each)
	}
}

func TestCloseRefusesNewWork(t *testing.T) {
	s := newTestService(t, 4)
	h := s.Handler()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close quote: code %d, want 503", code)
	}
}
