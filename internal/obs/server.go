package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// defaultSnapshotTail bounds the /snapshot series length unless ?n= asks
// for more (n=0 means everything).
const defaultSnapshotTail = 720

// Server exposes a registry (and optionally an instrument's series and
// phase report) over HTTP:
//
//	/metrics   Prometheus text exposition
//	/healthz   liveness JSON (status, uptime)
//	/snapshot  JSON: registry snapshot + recent series points + phase report
//
// Start binds and serves in the background; Close shuts the listener down.
type Server struct {
	reg      *Registry
	ins      *Instrument
	health   func() (status string, detail map[string]any)
	onScrape func()

	started time.Time
	srv     *http.Server
	ln      net.Listener
}

// NewServer builds a server over reg; ins may be nil.
func NewServer(reg *Registry, ins *Instrument) *Server {
	return &Server{reg: reg, ins: ins, started: time.Now()}
}

// SetHealth installs a hook /healthz consults on every request. A non-empty
// status replaces "ok" (e.g. "degraded") and detail entries are merged into
// the response. The hook runs on handler goroutines, so it must be
// concurrency-safe. Call before the server starts serving.
func (s *Server) SetHealth(fn func() (status string, detail map[string]any)) {
	s.health = fn
}

// SetOnScrape installs a hook that runs before every /metrics and
// /snapshot render, for gauges that are refreshed on demand rather than
// maintained continuously (e.g. CaptureRuntime). The hook runs on handler
// goroutines, so it must be concurrency-safe. Call before the server
// starts serving.
func (s *Server) SetOnScrape(fn func()) {
	s.onScrape = fn
}

// Handler returns the endpoint mux, for embedding or tests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	return mux
}

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler: s.Handler(),
		// Scrapers come and go; stalled ones must not pin goroutines.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server, if started.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.onScrape != nil {
		s.onScrape()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	if s.health != nil {
		status, detail := s.health()
		if status != "" {
			body["status"] = status
		}
		for k, v := range detail {
			body[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.onScrape != nil {
		s.onScrape()
	}
	tail := defaultSnapshotTail
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "invalid n", http.StatusBadRequest)
			return
		}
		tail = n
	}
	payload := struct {
		Metrics []MetricSnapshot `json:"metrics"`
		Series  []Point          `json:"series,omitempty"`
		Profile []PhaseStat      `json:"profile,omitempty"`
	}{Metrics: s.reg.Snapshot()}
	if s.ins != nil {
		payload.Series = s.ins.SeriesTail(tail)
		payload.Profile = s.ins.Report()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}
