package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/trace"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// traceHeader carries the request's trace ID: echoed back on every
// response, and accepted inbound so qosctl (and retried attempts of one
// logical call) correlate with server-side spans.
const traceHeader = "X-Qos-Trace"

// Wire limits. Request bodies are tiny JSON objects; anything bigger is a
// client bug or abuse.
const (
	maxBodyBytes = 1 << 16
	maxQuotesCap = 32
)

// quoteRequest asks for offers: "when could a job of this shape finish,
// and with what probability?" (§3.5, the user's opening move).
type quoteRequest struct {
	// Nodes is the job size n_j.
	Nodes int `json:"nodes"`
	// ExecSeconds is the checkpoint-free execution time e_j.
	ExecSeconds int64 `json:"exec_seconds"`
	// MaxQuotes optionally caps the offers returned (default and ceiling
	// come from the service config).
	MaxQuotes int `json:"max_quotes,omitempty"`
}

// validate applies the wire-level sanity checks shared by the handler and
// the fuzz target.
func (q quoteRequest) validate() error {
	switch {
	case q.Nodes <= 0:
		return fmt.Errorf("nodes must be positive, got %d", q.Nodes)
	case q.ExecSeconds <= 0:
		return fmt.Errorf("exec_seconds must be positive, got %d", q.ExecSeconds)
	case q.MaxQuotes < 0:
		return fmt.Errorf("max_quotes must be non-negative, got %d", q.MaxQuotes)
	}
	return nil
}

// decodeQuoteRequest strictly parses a quote request body: unknown fields,
// trailing data, and out-of-range values are all errors. It is a standalone
// function so the fuzz target can drive it directly.
func decodeQuoteRequest(data []byte) (quoteRequest, error) {
	var q quoteRequest
	if err := decodeStrict(data, &q); err != nil {
		return quoteRequest{}, err
	}
	if err := q.validate(); err != nil {
		return quoteRequest{}, err
	}
	return q, nil
}

// decodeStrict unmarshals one JSON value into v, rejecting unknown fields
// and trailing content.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// wireQuote is one offer as it appears on the wire. The candidate node set
// stays server-side: it is scheduler internals, and echoing it would invite
// clients to depend on placement.
type wireQuote struct {
	// Offer is the 1-based rank to pass back in an accept request.
	Offer    int        `json:"offer"`
	Start    units.Time `json:"start"`
	Deadline units.Time `json:"deadline"`
	Success  float64    `json:"success"`
}

type quoteResponse struct {
	SessionID string      `json:"session_id,omitempty"`
	Now       units.Time  `json:"now"`
	Expires   units.Time  `json:"expires,omitempty"`
	Quotes    []wireQuote `json:"quotes"`
}

type acceptRequest struct {
	SessionID string `json:"session_id"`
	// Offer is the 1-based rank of the accepted quote.
	Offer int `json:"offer"`
}

type acceptResponse struct {
	JobID    int        `json:"job_id"`
	Start    units.Time `json:"start"`
	Deadline units.Time `json:"deadline"`
	Promised float64    `json:"promised"`
}

type faultRequest struct {
	Node int `json:"node"`
	// At schedules the failure at an absolute virtual instant; AfterSeconds
	// offsets from now. Zero values mean "fail now".
	At           units.Time `json:"at,omitempty"`
	AfterSeconds int64      `json:"after_seconds,omitempty"`
}

// faultResponse confirms an injected failure: the node and the instant it
// fails. The field order fixes the reply's bytes, {"at":…,"node":…}.
type faultResponse struct {
	At   units.Time `json:"at"`
	Node int        `json:"node"`
}

type advanceRequest struct {
	// To is an absolute virtual instant; BySeconds offsets from now.
	// Exactly one must be set.
	To        units.Time `json:"to,omitempty"`
	BySeconds int64      `json:"by_seconds,omitempty"`
}

// advanceResponse reports the clock after an advance.
type advanceResponse struct {
	Now units.Time `json:"now"`
}

type stateResponse struct {
	sim.Stats
	OpenSessions    int `json:"open_sessions"`
	ExpiredSessions int `json:"expired_sessions"`
}

// conformanceResponse is the live promise ledger: streaming stats plus a
// tail of individual ledger rows.
type conformanceResponse struct {
	metrics.ConformanceStats
	Entries []metrics.Promise `json:"entries,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the full qosd API mux, with the obs endpoints
// (/metrics, /healthz, /snapshot) mounted alongside /v1, the live promise
// ledger on /qos/conformance, and the span-trace export on /debug/trace.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.obsSrv.Handler())
	mux.HandleFunc("POST /v1/quote", s.instrumented("quote", s.handleQuote))
	mux.HandleFunc("POST /v1/accept", s.instrumented("accept", s.handleAccept))
	mux.HandleFunc("GET /v1/jobs", s.instrumented("jobs", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrumented("job", s.handleJob))
	mux.HandleFunc("POST /v1/faults", s.instrumented("faults", s.handleFault))
	mux.HandleFunc("POST /v1/advance", s.instrumented("advance", s.handleAdvance))
	mux.HandleFunc("GET /v1/state", s.instrumented("state", s.handleState))
	mux.HandleFunc("GET /qos/conformance", s.instrumented("conformance", s.handleConformance))
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// apiHandler produces a status code and a response body (or an error).
// The scope is the request's trace collector — nil when tracing is
// disabled, and every trace.Scope method is nil-safe, so handlers use it
// unconditionally.
type apiHandler func(r *http.Request, sc *trace.Scope) (int, any, error)

// instrumented adapts an apiHandler to http.HandlerFunc: it assigns (or
// propagates) the request's trace ID, records the per-endpoint counter
// and latency histogram, echoes span timings in a Server-Timing header,
// and renders JSON. When tracing is disabled the only extra work is one
// header lookup.
func (s *Service) instrumented(endpoint string, h apiHandler) http.HandlerFunc {
	span := "http." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		var sc *trace.Scope
		traceID := r.Header.Get(traceHeader)
		if s.tracer.Enabled() {
			if traceID == "" {
				traceID = trace.NewTraceID()
			}
			sc = s.tracer.StartScope(traceID)
		}
		if traceID != "" {
			// Echo even with tracing off, so clients correlate retries.
			w.Header().Set(traceHeader, traceID)
		}
		hs := sc.Start(span)
		code, body, err := h(r, sc)
		hs.End()
		if err != nil {
			body = errorResponse{Error: err.Error()}
		}
		if st := trace.ServerTiming(sc.Spans()); st != "" {
			w.Header().Set("Server-Timing", st)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
		sc.Flush()
		s.observeRequest(endpoint, code, time.Since(begin))
	}
}

// readBody slurps a bounded request body. A body that declares its length
// below the bound is read into one buffer of that size; one of unknown or
// excessive length goes through io.ReadAll behind http.MaxBytesReader.
// Either way a body that ends early yields what arrived, as io.ReadAll
// would.
func readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n < maxBodyBytes {
		data := make([]byte, n)
		read := 0
		for read < len(data) {
			m, err := r.Body.Read(data[read:])
			read += m
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("reading body: %w", err)
			}
		}
		return data[:read], nil
	}
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return data, nil
}

// errCode maps a state-machine error to its HTTP status.
func errCode(err error) int {
	switch {
	case errors.Is(err, errClosed), errors.Is(err, errDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleQuote(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	req, err := decodeQuoteRequest(data)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	if req.Nodes > s.cfg.Nodes {
		return http.StatusUnprocessableEntity, nil,
			fmt.Errorf("job needs %d nodes but the cluster has %d", req.Nodes, s.cfg.Nodes)
	}
	max := s.cfg.MaxQuotes
	if req.MaxQuotes > 0 && req.MaxQuotes < max {
		max = req.MaxQuotes
	}

	return s.onLoop(sc, func() (int, any, error) {
		qs := sc.Start("quote")
		quotes := s.eng.Quotes(req.Nodes, units.Duration(req.ExecSeconds), max)
		if qs.Recording() {
			qs.Annotate("nodes", strconv.Itoa(req.Nodes))
			qs.Annotate("offers", strconv.Itoa(len(quotes)))
		}
		qs.End()
		resp := quoteResponse{Now: s.eng.Now(), Quotes: make([]wireQuote, len(quotes))}
		for i, q := range quotes {
			resp.Quotes[i] = wireQuote{
				Offer:    i + 1,
				Start:    q.Candidate.Start,
				Deadline: q.Deadline,
				Success:  q.Success,
			}
		}
		if len(quotes) > 0 {
			bs := sc.Start("book.open")
			sess := s.book.Open(s.eng.Now(), req.Nodes, units.Duration(req.ExecSeconds), quotes)
			bs.Annotate("session", sess.ID)
			bs.End()
			// Journaled after the fact, deliberately: losing a session
			// record (crash here, or a degraded log) costs the client a 404
			// on accept — renegotiate — never a broken promise. A degraded
			// log thus still quotes; the session is just memory-only.
			s.logOp(walOp{Kind: opSession, Session: sess})
			resp.SessionID = sess.ID
			resp.Expires = sess.Expires
			s.loopCounter(&s.sessionsOpened, "qosd_sessions_opened_total",
				"negotiation sessions opened").Inc()
			s.loopCounter(&s.quotesIssued, "qosd_quotes_issued_total",
				"individual offers extended").Add(float64(len(quotes)))
		}
		return http.StatusOK, resp, nil
	})
}

func (s *Service) handleAccept(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	var req acceptRequest
	if err := decodeStrict(data, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if req.SessionID == "" {
		return http.StatusBadRequest, nil, errors.New("session_id is required")
	}

	return s.onLoop(sc, func() (int, any, error) {
		// An accept creates a promise, which must hit stable storage before
		// it is made. While the log is down, refuse up front.
		if s.degraded != nil {
			s.countAccept("degraded")
			return http.StatusServiceUnavailable, nil, errDegraded
		}
		expiredBefore := s.book.Expired()
		ts := sc.Start("book.take")
		ts.Annotate("session", req.SessionID)
		sess, ok := s.book.Take(req.SessionID, s.eng.Now())
		ts.End()
		if !ok {
			if s.book.Expired() != expiredBefore {
				// The take lapsed a real session (not a bogus ID): journal
				// the state change. If the log just failed, replay converges
				// anyway — the next advance sweeps the lapsed session.
				s.logOp(walOp{Kind: opTake, SessionID: req.SessionID})
			}
			s.countAccept("expired")
			return http.StatusNotFound, nil,
				fmt.Errorf("session %q unknown or expired; request a fresh quote", req.SessionID)
		}
		// From here on the session is consumed, a state change that must be
		// journaled; on a log failure put it back and refuse, as if the
		// request never happened.
		if req.Offer < 1 || req.Offer > len(sess.Quotes) {
			if _, lerr := s.logOp(walOp{Kind: opTake, SessionID: sess.ID}); lerr != nil {
				s.book.Insert(sess)
				return http.StatusServiceUnavailable, nil, lerr
			}
			s.countAccept("rejected")
			return http.StatusBadRequest, nil,
				fmt.Errorf("offer %d outside 1..%d", req.Offer, len(sess.Quotes))
		}
		// Every clock move settles the ledger, so its open promises are
		// exactly the queued and running jobs, counted without a walk over
		// every job ever admitted.
		if s.cfg.MaxOutstanding > 0 && s.ledger.Open() >= s.cfg.MaxOutstanding {
			if _, lerr := s.logOp(walOp{Kind: opTake, SessionID: sess.ID}); lerr != nil {
				s.book.Insert(sess)
				return http.StatusServiceUnavailable, nil, lerr
			}
			s.countAccept("rejected")
			return http.StatusServiceUnavailable, nil,
				fmt.Errorf("admission limit reached (%d outstanding jobs); retry later", s.cfg.MaxOutstanding)
		}
		quote := sess.Quotes[req.Offer-1]
		job := workload.Job{
			ID:      s.nextJobID + 1,
			Arrival: s.eng.Now(),
			Nodes:   sess.Size,
			Exec:    sess.Exec,
		}
		// The admit record carries the full job and quote, so replay never
		// depends on a session record existing (memory-only sessions from a
		// degraded window stay admittable after healing).
		op := walOp{Kind: opAdmit, SessionID: sess.ID, Job: &job, Quote: &quote, Offers: req.Offer}
		raw, lerr := s.logOp(op)
		if lerr != nil {
			s.book.Insert(sess)
			return http.StatusServiceUnavailable, nil, lerr
		}
		as := sc.Start("admit")
		if as.Recording() {
			as.Annotate("job", strconv.Itoa(job.ID))
		}
		admitErr := s.applyAdmit(op, raw)
		as.End()
		if admitErr != nil {
			// The quoted slot is gone: the clock moved past its start, or a
			// competing accept claimed the nodes first. Renegotiation is the
			// protocol's answer, so this is a conflict, not a server error.
			// Replay re-enacts the same rejection from the journaled record.
			s.countAccept("conflict")
			return http.StatusConflict, nil, fmt.Errorf("quote no longer holds: %w", admitErr)
		}
		s.countAccept("accepted")
		return http.StatusOK, acceptResponse{
			JobID:    job.ID,
			Start:    quote.Candidate.Start,
			Deadline: quote.Deadline,
			Promised: quote.Success,
		}, nil
	})
}

func (s *Service) handleJob(r *http.Request, sc *trace.Scope) (int, any, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return http.StatusBadRequest, nil, fmt.Errorf("job id %q is not an integer", r.PathValue("id"))
	}
	return s.onLoop(sc, func() (int, any, error) {
		status, ok := s.eng.Job(id)
		if !ok {
			return http.StatusNotFound, nil, fmt.Errorf("no job %d", id)
		}
		return http.StatusOK, status, nil
	})
}

func (s *Service) handleJobs(r *http.Request, sc *trace.Scope) (int, any, error) {
	return s.onLoop(sc, func() (int, any, error) {
		ids := s.eng.JobIDs()
		list := make([]sim.JobStatus, 0, len(ids))
		for _, id := range ids {
			if st, ok := s.eng.Job(id); ok {
				list = append(list, st)
			}
		}
		return http.StatusOK, list, nil
	})
}

func (s *Service) handleFault(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	var req faultRequest
	if err := decodeStrict(data, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if req.At != 0 && req.AfterSeconds != 0 {
		return http.StatusBadRequest, nil, errors.New("set at most one of at and after_seconds")
	}
	if req.At < 0 || req.AfterSeconds < 0 {
		return http.StatusBadRequest, nil, errors.New("fault instant must be non-negative")
	}

	return s.onLoop(sc, func() (int, any, error) {
		// Validate before journaling so the log holds no junk records; the
		// at-clamp below makes the engine's own checks unreachable.
		if req.Node < 0 || req.Node >= s.cfg.Nodes {
			return http.StatusBadRequest, nil,
				fmt.Errorf("node %d outside [0,%d)", req.Node, s.cfg.Nodes)
		}
		at := req.At
		if req.AfterSeconds > 0 {
			at = s.eng.Now().Add(units.Duration(req.AfterSeconds))
		}
		if at < s.eng.Now() {
			at = s.eng.Now()
		}
		op := walOp{Kind: opFault, Node: req.Node, At: at}
		raw, lerr := s.logOp(op)
		if lerr != nil {
			return http.StatusServiceUnavailable, nil, lerr
		}
		if injErr := s.applyFault(op, raw); injErr != nil {
			return http.StatusBadRequest, nil, injErr
		}
		s.reg.Counter("qosd_faults_injected_total", "failures injected via the API", nil).Inc()
		return http.StatusAccepted, faultResponse{At: at, Node: req.Node}, nil
	})
}

func (s *Service) handleAdvance(r *http.Request, sc *trace.Scope) (int, any, error) {
	data, err := readBody(r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	var req advanceRequest
	if err := decodeStrict(data, &req); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if (req.To != 0) == (req.BySeconds != 0) {
		return http.StatusBadRequest, nil, errors.New("set exactly one of to and by_seconds")
	}
	if req.To < 0 || req.BySeconds < 0 {
		return http.StatusBadRequest, nil, errors.New("cannot advance the clock backwards")
	}

	return s.onLoop(sc, func() (int, any, error) {
		target := req.To
		if req.BySeconds > 0 {
			target = s.eng.Now().Add(units.Duration(req.BySeconds))
		}
		if err := s.advanceTo(target); err != nil {
			return errCode(err), nil, err
		}
		return http.StatusOK, advanceResponse{Now: s.eng.Now()}, nil
	})
}

func (s *Service) handleState(r *http.Request, sc *trace.Scope) (int, any, error) {
	return s.onLoop(sc, func() (int, any, error) {
		return http.StatusOK, stateResponse{
			Stats:           s.eng.Stats(),
			OpenSessions:    s.book.Len(),
			ExpiredSessions: s.book.Expired(),
		}, nil
	})
}

// defaultConformanceTail bounds the ledger rows echoed by /qos/conformance
// unless ?n= asks for more (n=0 means every row).
const defaultConformanceTail = 1000

func (s *Service) handleConformance(r *http.Request, sc *trace.Scope) (int, any, error) {
	tail := defaultConformanceTail
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return http.StatusBadRequest, nil, errors.New("invalid n")
		}
		tail = n
	}
	return s.onLoop(sc, func() (int, any, error) {
		return http.StatusOK, conformanceResponse{
			ConformanceStats: s.ledger.Stats(),
			Entries:          s.ledger.Entries(tail),
		}, nil
	})
}

// handleTrace streams the retained spans as Chrome trace_event JSON. It
// bypasses the instrumented wrapper because its body is the export itself,
// not an API object — but it still counts in the request metrics.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	if !s.tracer.Enabled() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(errorResponse{
			Error: "tracing disabled; start qosd with a span budget (-trace-spans)"})
		s.observeRequest("trace", http.StatusNotFound, time.Since(begin))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.Export(w, r.URL.Query().Get("trace"))
	s.observeRequest("trace", http.StatusOK, time.Since(begin))
}
