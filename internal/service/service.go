// Package service implements qosd: the paper's deadline-negotiation dialog
// (§3.5) as a long-running HTTP/JSON daemon. Where internal/sim replays the
// dialog against a recorded job log, qosd holds a live cluster state
// advancing on a virtual clock and negotiates with real callers: POST
// /v1/quote asks "when can this job finish?", POST /v1/accept turns one
// quoted (deadline, probability) pair into a reservation, GET /v1/jobs/{id}
// tracks the promise to completion or miss, and POST /v1/faults injects
// failures so robustness is drivable from tests.
//
// Concurrency model: every request is serialized through a single
// state-machine goroutine, so the scheduler core — which is single-threaded
// by design — stays data-race free by construction. A request hops onto it
// with a pooled call value (its state-touching section in, its result out,
// one reused done channel), so the hop allocates nothing. Request bodies are
// decoded strictly before the hop: a canonical flat object by a
// non-allocating scanner, anything else by encoding/json, whose verdict
// stands. The instrumentation registry (internal/obs) and the
// lock-guarded cache of per-endpoint request instruments in front of it are
// the only state touched from handler goroutines.
// The cluster and promise gauges are computed when /metrics or /snapshot
// is scraped: the scrape hook hops onto the state-machine goroutine to read
// them, and does not tick, so a scrape never moves the clock or journals.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probqos/internal/checkpoint"
	"probqos/internal/durability"
	"probqos/internal/failure"
	"probqos/internal/journal"
	"probqos/internal/negotiate"
	"probqos/internal/obs"
	"probqos/internal/trace"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Config assembles one qosd instance.
type Config struct {
	// Nodes is the cluster size N.
	Nodes int
	// Failures is the failure trace the predictor forecasts from and the
	// engine replays; it may be empty (faults then come only from
	// injection). Required.
	Failures *failure.Trace
	// Accuracy is the event-prediction accuracy a in [0,1].
	Accuracy float64
	// Checkpoint, Downtime, Policy, DeadlineSkip, FaultAware and
	// BaseRateFloor configure the engine exactly as in sim.Config.
	Checkpoint    checkpoint.Params
	Downtime      units.Duration
	Policy        checkpoint.Policy
	DeadlineSkip  bool
	FaultAware    bool
	BaseRateFloor bool
	// SessionTTL bounds how long a quoted session stands on the virtual
	// clock before accepting it is refused.
	SessionTTL units.Duration
	// MaxQuotes caps the offers returned per quote request.
	MaxQuotes int
	// MaxOutstanding, when positive, is the admission-control limit on
	// jobs with open promises (queued or running): accepts beyond it get
	// 503 until load drains.
	MaxOutstanding int
	// Speedup maps wall time onto the virtual clock: one wall second
	// advances the clock by Speedup virtual seconds before each request.
	// Zero leaves the clock fully manual (POST /v1/advance).
	Speedup float64
	// Registry receives the per-endpoint counters and latency histograms
	// plus the cluster gauges. A nil Registry gets a private one.
	Registry *obs.Registry
	// Tracer, when non-nil, records request-scoped spans (HTTP handling,
	// book operations, WAL appends, snapshots, engine advances) retained
	// in ring buffers and exported on /debug/trace. Nil disables tracing
	// entirely — the nil-guarded span calls cost the request path nothing,
	// mirroring sim.Probe.
	Tracer *trace.Tracer
	// DataDir, when non-empty, makes the service crash-safe: every
	// state-mutating operation is appended to a write-ahead log under this
	// directory before it is applied, and a periodic snapshot compacts the
	// log. On startup the snapshot is restored and the log replayed. Empty
	// means in-memory only, exactly the pre-durability behaviour.
	DataDir string
	// FS overrides the filesystem the durability layer writes through; nil
	// means the real one. Tests inject fault-carrying filesystems here.
	FS durability.FS
	// SnapshotEvery caps how many WAL records may accumulate before a
	// snapshot regardless of the risk rule; 0 means the default (1024).
	SnapshotEvery int
	// CrashHazard is pf in the risk-based snapshot rule (the assumed
	// probability of crashing per unsnapshotted record); 0 means the
	// default (0.01).
	CrashHazard float64
}

// DefaultConfig returns a service at the paper's Table 2 operating point
// over the given failure trace, with a manual virtual clock.
func DefaultConfig(tr *failure.Trace) Config {
	nodes := 0
	if tr != nil {
		nodes = tr.Nodes()
	}
	return Config{
		Nodes:         nodes,
		Failures:      tr,
		Accuracy:      0.5,
		Checkpoint:    checkpoint.DefaultParams(),
		Downtime:      2 * units.Minute,
		Policy:        checkpoint.RiskBased{},
		DeadlineSkip:  true,
		FaultAware:    true,
		BaseRateFloor: true,
		SessionTTL:    units.Hour,
		MaxQuotes:     8,
	}
}

// errClosed is returned to requests that arrive after shutdown began.
var errClosed = errors.New("service: shutting down")

// Service is one running qosd instance.
type Service struct {
	cfg Config
	machine
	reg    *obs.Registry
	obsSrv *obs.Server

	// tracer records request spans (nil when tracing is disabled).
	// curScope is the scope of the request currently executing on the
	// state-machine goroutine, so loop-side operations (WAL appends,
	// snapshots, engine advances) attribute their spans to the right
	// trace. Touched only on the loop goroutine.
	tracer   *trace.Tracer
	curScope *trace.Scope

	// Durability (nil store when no DataDir is configured). digest
	// fingerprints the config for the snapshot; info records what startup
	// recovered.
	store  *durability.Store
	digest string
	info   RecoveryInfo

	// The state-machine goroutine's encoding scratch: WAL payloads and the
	// snapshot's session book are encoded through enc into encBuf (encOp
	// holds the op being encoded, encJob and encQuote the job and quote an
	// admit op points at), and snapParts lists a snapshot's parts.
	enc       *json.Encoder
	encBuf    bytes.Buffer
	encOp     journal.Op
	encJob    workload.Job
	encQuote  negotiate.Quote
	snapParts [][]byte

	reqs chan *loopCall
	quit chan struct{}
	done chan struct{}
	stop atomic.Bool

	// The virtual clock: virtual instant clockBase corresponds to wall
	// instant clockMark; with Speedup > 0 the clock advances between
	// requests by elapsed wall time times Speedup. Touched only on the
	// state-machine goroutine.
	clockBase units.Time
	clockMark time.Time

	// broken records an engine invariant violation; once set, every
	// state-touching request fails with it (500) rather than corrupting
	// state further.
	broken error

	// degraded records a WAL write failure: mutations answer 503 until a
	// heal probe succeeds, reads and quotes keep working. degradedMsg
	// mirrors it atomically for /healthz, which runs off the loop.
	degraded    error
	degradedMsg atomic.Value

	srv *http.Server
	ln  net.Listener

	// Cached instruments, each registered on first use. reqMetrics is
	// shared by the handler goroutines; the rest belong to the
	// state-machine goroutine.
	reqMetrics                               requestMetrics
	walRecords, sessionsOpened, quotesIssued *obs.Counter
	accepts                                  map[string]*obs.Counter // by outcome
	fsyncHist                                *obs.Histogram
}

// New validates cfg, builds the engine, and starts the state-machine
// goroutine. Callers must Close the service to stop it.
func New(cfg Config) (*Service, error) {
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = units.Hour
	}
	if cfg.MaxQuotes <= 0 {
		cfg.MaxQuotes = 8
	}
	if cfg.MaxQuotes > maxQuotesCap {
		cfg.MaxQuotes = maxQuotesCap
	}
	if cfg.Speedup < 0 {
		return nil, fmt.Errorf("service: speedup must be non-negative, got %v", cfg.Speedup)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		machine: m,
		reg:     cfg.Registry,
		tracer:  cfg.Tracer,
		reqs:    make(chan *loopCall),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		reqMetrics: requestMetrics{
			latency: make(map[string]*obs.Histogram),
			count:   make(map[endpointCode]*obs.Counter),
		},
		accepts: make(map[string]*obs.Counter),
	}
	s.degradedMsg.Store("")
	if cfg.DataDir != "" {
		s.digest = configDigest(cfg)
		s.enc = json.NewEncoder(&s.encBuf)
		if err := s.recoverState(); err != nil {
			return nil, err
		}
	}
	s.clockBase = s.Engine().Now()
	s.clockMark = time.Now()
	s.obsSrv = obs.NewServer(s.reg, nil)
	s.obsSrv.SetOnScrape(func() {
		obs.CaptureRuntime(s.reg)
		// After Close the loop is gone; the scrape still answers with the
		// counters, and the gauges keep their last values.
		s.do(s.publishGauges)
	})
	s.obsSrv.SetHealth(func() (string, map[string]any) {
		if msg, _ := s.degradedMsg.Load().(string); msg != "" {
			return "degraded", map[string]any{"wal_error": msg}
		}
		return "", nil
	})
	go s.loop()
	return s, nil
}

// loopCall is one hop onto the state-machine goroutine: either a plain
// fn, or a request's state-touching section (handler, run under the
// request's trace scope sc) and the result it produced. Calls are drawn
// from loopCalls and reused, done included, so a hop allocates nothing.
type loopCall struct {
	fn      func()
	handler func() (int, any, error)
	sc      *trace.Scope
	code    int
	body    any
	err     error
	// done is signalled (buffer 1) once the loop has run the call.
	done chan struct{}
}

var loopCalls = sync.Pool{New: func() any {
	return &loopCall{done: make(chan struct{}, 1)}
}}

// loop is the state-machine goroutine: it owns the engine, the session
// book, and the virtual clock, running calls one at a time. After quit it
// drains already-queued calls, then exits.
func (s *Service) loop() {
	defer close(s.done)
	for {
		select {
		case c := <-s.reqs:
			s.run(c)
		case <-s.quit:
			for {
				select {
				case c := <-s.reqs:
					s.run(c)
				default:
					return
				}
			}
		}
	}
}

// run executes one call on the loop goroutine and signals its done. A
// request's section runs with its trace scope installed as curScope, so
// loop-side spans (WAL appends, snapshots, engine advances) land in the
// request's trace, after a tick of the clock; a tick failure answers with
// errCode.
func (s *Service) run(c *loopCall) {
	if c.fn != nil {
		c.fn()
	} else {
		s.curScope = c.sc
		if c.err = s.tick(); c.err != nil {
			c.code = errCode(c.err)
		} else {
			c.code, c.body, c.err = c.handler()
		}
		s.curScope = nil
	}
	c.done <- struct{}{}
}

// hop hands c to the state-machine goroutine and waits until it has run.
// It returns errClosed, with c not run, once shutdown has begun. The
// channel operations order every access to c between the caller and the
// loop goroutine.
func (s *Service) hop(c *loopCall) error {
	select {
	case s.reqs <- c:
	case <-s.quit:
		return errClosed
	}
	<-c.done
	return nil
}

// do runs fn on the state-machine goroutine and waits for it. It returns
// errClosed once shutdown has begun.
func (s *Service) do(fn func()) error {
	c := loopCalls.Get().(*loopCall)
	c.fn = fn
	err := s.hop(c)
	c.fn = nil
	loopCalls.Put(c)
	return err
}

// tick advances the virtual clock for one request: in speedup mode the
// clock follows wall time; in manual mode it only moves via /v1/advance.
// Expired sessions are swept either way. While degraded it first probes
// whether the log healed; while it has not, the speedup clock freezes
// rather than advancing unjournaled. Runs on the loop goroutine.
func (s *Service) tick() error {
	if s.broken != nil {
		return s.broken
	}
	s.probeHeal()
	s.maybeCompact()
	if s.cfg.Speedup > 0 {
		elapsed := time.Since(s.clockMark).Seconds()
		target := s.clockBase.Add(units.Duration(elapsed * s.cfg.Speedup))
		if target > s.Engine().Now() {
			if err := s.advanceTo(target); err != nil && !errors.Is(err, errDegraded) {
				return err
			}
		}
	}
	s.book.Sweep(s.Engine().Now())
	return nil
}

// advanceTo journals and applies one clock advance, recording any engine
// invariant violation as a permanent fault. Non-forward targets are a
// no-op: pending events always sit at time >= now, so only a strictly
// forward advance can process anything — which keeps every state change
// journaled and snapshot replay exact. Runs on the loop goroutine.
func (s *Service) advanceTo(t units.Time) error {
	if t <= s.Engine().Now() {
		return nil
	}
	raw, err := s.logOp(journal.Op{Kind: journal.Advance, To: t})
	if err != nil {
		return err
	}
	sp := s.curScope.Start("engine.advance")
	if sp.Recording() {
		sp.Annotate("to", t.String())
	}
	err = s.advance(t, raw)
	sp.End()
	if err != nil {
		s.broken = fmt.Errorf("service: engine failed: %w", err)
		return s.broken
	}
	s.clockBase = s.Engine().Now()
	s.clockMark = time.Now()
	return nil
}

// onLoop runs one request's state-touching section fn on the
// state-machine goroutine (see run) and returns its response. Shutdown
// answers with errCode.
func (s *Service) onLoop(sc *trace.Scope, fn func() (int, any, error)) (int, any, error) {
	c := loopCalls.Get().(*loopCall)
	c.handler, c.sc = fn, sc
	if err := s.hop(c); err != nil {
		c.code, c.err = errCode(err), err
	}
	code, body, err := c.code, c.body, c.err
	*c = loopCall{done: c.done}
	loopCalls.Put(c)
	return code, body, err
}

// Start binds addr (e.g. "127.0.0.1:0") and serves the API in a background
// goroutine, returning the bound address.
func (s *Service) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler: s.Handler(),
		// Slow or stalled clients must not pin handler goroutines (each of
		// which serializes through the state machine) forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close shuts the service down gracefully: the listener stops accepting,
// in-flight negotiations drain to completion, then the state machine
// exits. Safe to call more than once.
func (s *Service) Close() error {
	var err error
	if s.srv != nil {
		// Shutdown waits for in-flight handlers, each of which is waiting
		// on the state machine; the machine keeps serving until every one
		// has its answer.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
		s.srv = nil
	}
	if s.stop.CompareAndSwap(false, true) {
		close(s.quit)
	}
	<-s.done
	// The loop has exited, so its state is safely ours to read. A healthy
	// durable service leaves a clean-shutdown snapshot: drain marker, then
	// a snapshot with the WAL truncated, so the next boot replays nothing.
	if s.store != nil {
		if s.broken == nil && s.degraded == nil {
			if _, lerr := s.logOp(journal.Op{Kind: opDrain}); lerr == nil {
				s.compact(true)
			}
		}
		s.store.Close()
		s.store = nil
	}
	return err
}

// counters and gauges ------------------------------------------------------

// latencyBounds bucket request latency from 100µs to ~1.6s.
var latencyBounds = []float64{0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384}

// requestMetrics caches the per-endpoint request instruments. Handlers run
// concurrently, so the cache sits behind one lock, held only for the map
// lookups.
type requestMetrics struct {
	mu      sync.Mutex
	latency map[string]*obs.Histogram // by endpoint
	count   map[endpointCode]*obs.Counter
}

type endpointCode struct {
	endpoint string
	code     int
}

// observeRequest records one finished request in the registry. Each
// endpoint's histogram and each (endpoint, code) counter is resolved on
// first use, so /metrics shows only series that have counted something.
func (s *Service) observeRequest(endpoint string, code int, elapsed time.Duration) {
	rm := &s.reqMetrics
	rm.mu.Lock()
	c := rm.count[endpointCode{endpoint, code}]
	if c == nil {
		c = s.reg.Counter("qosd_requests_total", "API requests by endpoint and status code",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
		rm.count[endpointCode{endpoint, code}] = c
	}
	h := rm.latency[endpoint]
	if h == nil {
		h = s.reg.Histogram("qosd_request_seconds", "API request latency by endpoint",
			latencyBounds, obs.Labels{"endpoint": endpoint})
		rm.latency[endpoint] = h
	}
	rm.mu.Unlock()
	c.Inc()
	h.Observe(elapsed.Seconds())
}

// loopCounter returns the unlabelled counter cached in *slot, registering
// it on first use. Only the state-machine goroutine calls it.
func (s *Service) loopCounter(slot **obs.Counter, name, help string) *obs.Counter {
	if *slot == nil {
		*slot = s.reg.Counter(name, help, nil)
	}
	return *slot
}

// countAccept tallies one accept outcome: accepted, conflict (the quoted
// slot was claimed first), expired (session lapsed or unknown), rejected
// (admission control), or stale (quote start already in the past). Only
// the state-machine goroutine calls it.
func (s *Service) countAccept(outcome string) {
	c := s.accepts[outcome]
	if c == nil {
		c = s.reg.Counter("qosd_accepts_total", "accept outcomes by kind",
			obs.Labels{"outcome": outcome})
		s.accepts[outcome] = c
	}
	c.Inc()
}

// publishGauges sets the cluster-state and promise-ledger gauges from the
// engine, the session book and the ledger. It is the only writer of those
// gauges and runs only from the scrape hook, on the loop goroutine. It does
// not tick, so the gauges show the state as of the last request.
func (s *Service) publishGauges() {
	st := s.Engine().Stats()
	s.reg.Gauge("qosd_virtual_time_seconds", "virtual clock, seconds since trace start", nil).
		Set(float64(st.Now))
	s.reg.Gauge("qosd_busy_nodes", "nodes occupied by running jobs", nil).Set(float64(st.BusyNodes))
	s.reg.Gauge("qosd_open_sessions", "negotiation sessions awaiting accept", nil).
		Set(float64(s.book.Len()))
	s.reg.Gauge("qosd_sessions_expired", "sessions that lapsed unaccepted", nil).
		Set(float64(s.book.Expired()))
	for state, n := range map[string]int{
		"queued":    st.Queued,
		"running":   st.Running,
		"completed": st.Completed,
		"missed":    st.Missed,
	} {
		s.reg.Gauge("qosd_jobs", "admitted jobs by lifecycle state",
			obs.Labels{"state": state}).Set(float64(n))
	}
	if s.tracer.Enabled() {
		s.reg.Gauge("qosd_trace_spans_dropped_total",
			"spans overwritten in the trace ring before export", nil).
			Set(float64(s.tracer.Dropped()))
	}
	cs := s.Ledger().Stats()
	for outcome, n := range map[string]int{
		"pending": cs.Open,
		"kept":    cs.Kept,
		"broken":  cs.Broken,
	} {
		s.reg.Gauge("qosd_promises", "admitted promises by outcome",
			obs.Labels{"outcome": outcome}).Set(float64(n))
	}
	s.reg.Gauge("qosd_promise_keeping_rate",
		"fraction of settled promises that were kept", nil).Set(cs.KeepingRate)
	s.reg.Gauge("qosd_promise_brier_score",
		"mean squared error of quoted probabilities against outcomes", nil).Set(cs.Brier)
	for _, b := range cs.Bins {
		if b.Settled == 0 {
			continue
		}
		bin := fmt.Sprintf("%.1f", b.Lo)
		s.reg.Gauge("qosd_conformance_bin_settled",
			"settled promises per reliability-diagram bin (labelled by bin lower bound)",
			obs.Labels{"lo": bin}).Set(float64(b.Settled))
		s.reg.Gauge("qosd_conformance_bin_observed",
			"kept fraction per reliability-diagram bin (labelled by bin lower bound)",
			obs.Labels{"lo": bin}).Set(b.Observed)
		s.reg.Gauge("qosd_conformance_bin_promised",
			"mean quoted probability per reliability-diagram bin (labelled by bin lower bound)",
			obs.Labels{"lo": bin}).Set(b.PromisedMean)
	}
}
