package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"probqos/internal/journal"
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

// wireRequest is the set of request bodies qosd decodes.
type wireRequest interface {
	quoteRequest | acceptRequest | advanceRequest | faultRequest
}

// decodeStrict unmarshals one JSON object into a T, rejecting unknown
// fields and trailing content. A body in canonical form (see decodeFlat)
// is decoded without allocating; anything else goes through the reference
// decoder, whose value, verdict and error text stand.
func decodeStrict[T wireRequest](data []byte) (T, error) {
	var v T
	if decodeFast(data, &v) {
		return v, nil
	}
	ref := new(T)
	err := decodeReference(data, ref)
	return *ref, err
}

// decodeReference is the strict decode by encoding/json: unknown fields
// are errors, and so is anything but whitespace after the value.
func decodeReference(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if skipSpace(data, int(dec.InputOffset())) < len(data) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// decodeFast decodes a canonical body into v through T's field table.
func decodeFast[T wireRequest](data []byte, v *T) bool {
	return decodeFlat(data, reflect.ValueOf(v).Elem(), wireFields[reflect.TypeFor[T]()])
}

// wireField is one json name of a request type and the struct field it
// fills: an int of the given bit size, or a string.
type wireField struct {
	name  string
	index int
	bits  int // 0 for a string
}

// wireFields holds each request type's field table, read from its json
// tags, so the tags stay the one place the wire names are written.
var wireFields = map[reflect.Type][]wireField{
	reflect.TypeFor[quoteRequest]():   wireFieldsOf(reflect.TypeFor[quoteRequest]()),
	reflect.TypeFor[acceptRequest]():  wireFieldsOf(reflect.TypeFor[acceptRequest]()),
	reflect.TypeFor[advanceRequest](): wireFieldsOf(reflect.TypeFor[advanceRequest]()),
	reflect.TypeFor[faultRequest]():   wireFieldsOf(reflect.TypeFor[faultRequest]()),
}

// wireFieldsOf reads t's field table from its json tags. It panics on a
// field decodeFlat cannot decode as encoding/json would (an embedded or
// untagged field, a tag option other than omitempty, a kind other than
// int, int64 and string), so such a field fails at start-up instead of
// splitting the two decoders.
func wireFieldsOf(t reflect.Type) []wireField {
	var fields []wireField
	for i := range t.NumField() {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous || !f.IsExported() || name == "" || name == "-" || (opts != "" && opts != "omitempty") {
			panic(fmt.Sprintf("service: %s.%s: json tag %q has no canonical form", t, f.Name, f.Tag.Get("json")))
		}
		wf := wireField{name: name, index: i}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			wf.bits = f.Type.Bits()
		case reflect.String:
		default:
			panic(fmt.Sprintf("service: %s.%s: kind %s has no canonical form", t, f.Name, f.Type.Kind()))
		}
		fields = append(fields, wf)
	}
	if len(fields) > bits.UintSize {
		panic(fmt.Sprintf("service: %s has more fields than decodeFlat tracks", t))
	}
	return fields
}

// decodeFlat decodes data into the fields of the struct v if it is in
// canonical form, and reports whether it was: one flat JSON object with optional whitespace,
// whose keys are each byte-exactly one of the fields' names (no escapes,
// no repeats), whose integers match -?(0|[1-9][0-9]*) and fit their field,
// whose strings hold no backslash, no control byte and only valid UTF-8,
// and after which comes nothing but whitespace. On such input
// encoding/json decodes the same values and no error; on any other input
// decodeFlat may have written some fields and returns false. It allocates
// only the strings it keeps.
func decodeFlat(data []byte, v reflect.Value, fields []wireField) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	var seen uint
	for {
		key, next, ok := scanString(data, i)
		if !ok {
			return false
		}
		f := -1
		for j := range fields {
			if string(key) == fields[j].name {
				f = j
				break
			}
		}
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		i = skipSpace(data, next)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		if fd := &fields[f]; fd.bits == 0 {
			str, next, ok := scanString(data, i)
			if !ok || !utf8.Valid(str) {
				return false
			}
			v.Field(fd.index).SetString(string(str))
			i = next
		} else {
			n, next, ok := scanInt(data, i, fd.bits)
			if !ok {
				return false
			}
			v.Field(fd.index).SetInt(n)
			i = next
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// scanString reads a string token at data[i] that has no backslash and
// no control byte, returning its contents and the index past its closing
// quote.
func scanString(data []byte, i int) (str []byte, next int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// scanInt reads an integer token -?(0|[1-9][0-9]*) at data[i] that fits
// in a signed integer of the given bit size, returning it and the index
// past it.
func scanInt(data []byte, i, bits int) (n int64, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if i > start && data[start] == '0' {
			return 0, 0, false
		}
		if u > limit/10 {
			return 0, 0, false
		}
		u = u*10 + uint64(data[i]-'0')
		if u > limit {
			return 0, 0, false
		}
	}
	if i == start || (!neg && u == limit) {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
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
// ledger on /qos/conformance, the paper's metrics as of the clock on
// /qos/report, and the span-trace export on /debug/trace.
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
	mux.HandleFunc("GET /qos/report", s.instrumented("report", s.handleReport))
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
		writeJSON(w, code, body)
		sc.Flush()
		s.observeRequest(endpoint, code, time.Since(begin))
	}
}

// jsonContentType is every JSON reply's Content-Type header value. Its
// capacity is 1, so a later Header.Add copies it instead of writing into
// the shared array.
var jsonContentType = []string{"application/json"}

// jsonWriter encodes one reply into a buffer it keeps; writeJSON draws
// them from jsonWriters.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

// maxPooledBuf bounds the buffers taken back to the pools, so one large
// reply (a long job list) or body is not held for good.
const maxPooledBuf = 64 << 10

// writeJSON sends body as a JSON reply with status code: the bytes
// json.NewEncoder(w).Encode(body) would write, trailing newline included,
// in one Write. A body that fails to encode leaves the reply empty.
func writeJSON(w http.ResponseWriter, code int, body any) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	err := jw.enc.Encode(body)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if err == nil {
		// A failed write means the client has gone; there is no one left
		// to tell.
		w.Write(jw.buf.Bytes())
	}
	if jw.buf.Cap() <= maxPooledBuf {
		jsonWriters.Put(jw)
	}
}

// bodyBufs holds the buffers request bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeBody reads r's body into a pooled buffer and strictly decodes it
// into a T. The buffer goes back to the pool before decodeBody returns;
// nothing decoded aliases it, since decoded strings are copies.
func decodeBody[T wireRequest](r *http.Request) (T, error) {
	bp := bodyBufs.Get().(*[]byte)
	data, err := readBody(r, *bp)
	var v T
	if err == nil {
		v, err = decodeStrict[T](data)
	}
	if cap(data) > cap(*bp) && cap(data) <= maxPooledBuf {
		*bp = data
	}
	bodyBufs.Put(bp)
	return v, err
}

// readBody slurps a bounded request body. A body that declares its length
// below the bound is read into buf, grown to that size; one of unknown or
// excessive length goes through io.ReadAll behind http.MaxBytesReader.
// Either way a body that ends early yields what arrived, as io.ReadAll
// would.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n < maxBodyBytes {
		data := slices.Grow(buf[:0], int(n))[:n]
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
	req, err := decodeBody[quoteRequest](r)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	if err := req.validate(); err != nil {
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
		quotes := s.Engine().Quotes(req.Nodes, units.Duration(req.ExecSeconds), max)
		if qs.Recording() {
			qs.Annotate("nodes", strconv.Itoa(req.Nodes))
			qs.Annotate("offers", strconv.Itoa(len(quotes)))
		}
		qs.End()
		resp := quoteResponse{Now: s.Engine().Now(), Quotes: make([]wireQuote, len(quotes))}
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
			sess := s.book.Open(s.Engine().Now(), req.Nodes, units.Duration(req.ExecSeconds), quotes)
			bs.Annotate("session", sess.ID)
			bs.End()
			// Journaled after the fact, deliberately: losing a session
			// record (crash here, or a degraded log) costs the client a 404
			// on accept — renegotiate — never a broken promise. A degraded
			// log thus still quotes; the session is just memory-only.
			s.logOp(journal.Op{Kind: opSession, Session: sess})
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
	req, err := decodeBody[acceptRequest](r)
	if err != nil {
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
		sess, ok := s.book.Take(req.SessionID, s.Engine().Now())
		ts.End()
		if !ok {
			if s.book.Expired() != expiredBefore {
				// The take lapsed a real session (not a bogus ID): journal
				// the state change. If the log just failed, replay converges
				// anyway — the next advance sweeps the lapsed session.
				s.logOp(journal.Op{Kind: opTake, SessionID: req.SessionID})
			}
			s.countAccept("expired")
			return http.StatusNotFound, nil,
				fmt.Errorf("session %q unknown or expired; request a fresh quote", req.SessionID)
		}
		// From here on the session is consumed, a state change that must be
		// journaled; on a log failure put it back and refuse, as if the
		// request never happened.
		if req.Offer < 1 || req.Offer > len(sess.Quotes) {
			if _, lerr := s.logOp(journal.Op{Kind: opTake, SessionID: sess.ID}); lerr != nil {
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
		if s.cfg.MaxOutstanding > 0 && s.Ledger().Open() >= s.cfg.MaxOutstanding {
			if _, lerr := s.logOp(journal.Op{Kind: opTake, SessionID: sess.ID}); lerr != nil {
				s.book.Insert(sess)
				return http.StatusServiceUnavailable, nil, lerr
			}
			s.countAccept("rejected")
			return http.StatusServiceUnavailable, nil,
				fmt.Errorf("admission limit reached (%d outstanding jobs); retry later", s.cfg.MaxOutstanding)
		}
		quote := sess.Quotes[req.Offer-1]
		job := workload.Job{
			ID:      s.NextJobID(),
			Arrival: s.Engine().Now(),
			Nodes:   sess.Size,
			Exec:    sess.Exec,
		}
		// The admit record carries the full job and quote, so replay never
		// depends on a session record existing (memory-only sessions from a
		// degraded window stay admittable after healing). It points at
		// copies in the loop's encode scratch, so job and quote stay local.
		s.encJob, s.encQuote = job, quote
		op := journal.Op{Kind: journal.Admit, SessionID: sess.ID, Job: &s.encJob, Quote: &s.encQuote, Offers: req.Offer}
		raw, lerr := s.logOp(op)
		if lerr != nil {
			s.book.Insert(sess)
			return http.StatusServiceUnavailable, nil, lerr
		}
		as := sc.Start("admit")
		if as.Recording() {
			as.Annotate("job", strconv.Itoa(job.ID))
		}
		admitErr := s.admit(op, raw)
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
		status, ok := s.Engine().Job(id)
		if !ok {
			return http.StatusNotFound, nil, fmt.Errorf("no job %d", id)
		}
		return http.StatusOK, status, nil
	})
}

func (s *Service) handleJobs(r *http.Request, sc *trace.Scope) (int, any, error) {
	return s.onLoop(sc, func() (int, any, error) {
		ids := s.Engine().JobIDs()
		list := make([]sim.JobStatus, 0, len(ids))
		for _, id := range ids {
			if st, ok := s.Engine().Job(id); ok {
				list = append(list, st)
			}
		}
		return http.StatusOK, list, nil
	})
}

func (s *Service) handleFault(r *http.Request, sc *trace.Scope) (int, any, error) {
	req, err := decodeBody[faultRequest](r)
	if err != nil {
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
			at = s.Engine().Now().Add(units.Duration(req.AfterSeconds))
		}
		if at < s.Engine().Now() {
			at = s.Engine().Now()
		}
		op := journal.Op{Kind: journal.Fault, Node: req.Node, At: at}
		raw, lerr := s.logOp(op)
		if lerr != nil {
			return http.StatusServiceUnavailable, nil, lerr
		}
		if injErr := s.Apply(op, raw); injErr != nil {
			return http.StatusBadRequest, nil, injErr
		}
		s.reg.Counter("qosd_faults_injected_total", "failures injected via the API", nil).Inc()
		return http.StatusAccepted, faultResponse{At: at, Node: req.Node}, nil
	})
}

func (s *Service) handleAdvance(r *http.Request, sc *trace.Scope) (int, any, error) {
	req, err := decodeBody[advanceRequest](r)
	if err != nil {
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
			target = s.Engine().Now().Add(units.Duration(req.BySeconds))
		}
		if err := s.advanceTo(target); err != nil {
			return errCode(err), nil, err
		}
		return http.StatusOK, advanceResponse{Now: s.Engine().Now()}, nil
	})
}

func (s *Service) handleState(r *http.Request, sc *trace.Scope) (int, any, error) {
	return s.onLoop(sc, func() (int, any, error) {
		return http.StatusOK, stateResponse{
			Stats:           s.Engine().Stats(),
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
			ConformanceStats: s.Ledger().Stats(),
			Entries:          s.Ledger().Entries(tail),
		}, nil
	})
}

// handleReport serves the paper's metrics over the admitted jobs as of the
// engine's clock: the value a scenario report embeds as "metrics".
func (s *Service) handleReport(r *http.Request, sc *trace.Scope) (int, any, error) {
	return s.onLoop(sc, func() (int, any, error) {
		return http.StatusOK, metrics.AsOf(s.Engine()), nil
	})
}

// handleTrace streams the retained spans as Chrome trace_event JSON. It
// bypasses the instrumented wrapper because its body is the export itself,
// not an API object — but it still counts in the request metrics.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	if !s.tracer.Enabled() {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "tracing disabled; start qosd with a span budget (-trace-spans)"})
		s.observeRequest("trace", http.StatusNotFound, time.Since(begin))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	s.tracer.Export(w, r.URL.Query().Get("trace"))
	s.observeRequest("trace", http.StatusOK, time.Since(begin))
}
