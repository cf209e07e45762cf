package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"probqos/internal/durability"
	"probqos/internal/failure"
	"probqos/internal/service"
	"probqos/internal/trace"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// qosdJobs is the number of promises one replay makes. Round-trip latency
// grows with the daemon's history, so runs are sized by promise count and
// every replay starts from an empty daemon: the latency mix of a run does
// not depend on how many replays fit in it.
const qosdJobs = 2000

// userRisks is the paper's Eq. 3 user, cycled over the jobs of a replay.
var userRisks = []float64{0.1, 0.5, 0.9}

// drainSeconds is the final clock advance after the last job, long enough
// for every admitted job to settle so the digest covers final outcomes.
const drainSeconds = 60 * 24 * 3600

// streamJob is one job of the request stream, with its request bodies
// rendered at set-up time so the timed loop only sends them.
type streamJob struct {
	advance []byte // POST /v1/advance body, nil when the clock is already there
	quote   []byte // POST /v1/quote body
	u       float64
}

// stream is the seeded request stream a replay sends: an SDSC-shaped log
// turned into advance/quote requests plus each job's acceptance threshold.
type stream struct {
	jobs  []streamJob
	drain []byte
}

func newStream(seed int64, jobs int) stream {
	log := workload.GenerateSDSC(workload.GenConfig{Jobs: jobs, Seed: seed})
	st := stream{drain: []byte(fmt.Sprintf(`{"by_seconds":%d}`, drainSeconds))}
	var clock units.Time
	for i, j := range log.Jobs {
		sj := streamJob{
			quote: []byte(fmt.Sprintf(`{"nodes":%d,"exec_seconds":%d}`, j.Nodes, int64(j.Exec))),
			u:     userRisks[i%len(userRisks)],
		}
		if j.Arrival > clock {
			clock = j.Arrival
			sj.advance = []byte(fmt.Sprintf(`{"to":%d}`, int64(clock)))
		}
		st.jobs = append(st.jobs, sj)
	}
	return st
}

// bytes renders the stream exactly as the client will send it, except for
// the accept bodies, which name the session the daemon opened.
func (s stream) bytes() []byte {
	var b bytes.Buffer
	for _, j := range s.jobs {
		if j.advance != nil {
			fmt.Fprintf(&b, "advance %s\n", j.advance)
		}
		fmt.Fprintf(&b, "quote %s accept>=%g\n", j.quote, j.u)
	}
	fmt.Fprintf(&b, "advance %s\n", s.drain)
	return b.Bytes()
}

// reply is one HTTP response as the client saw it.
type reply struct {
	code   int
	body   []byte
	timing string
}

// doer sends one request to a daemon: over loopback HTTP, or straight into
// its handler.
type doer interface {
	do(method, path string, body []byte) (reply, error)
}

// httpDoer is one closed-loop client on one keep-alive connection.
type httpDoer struct {
	base string
	hc   *http.Client
}

func newHTTPDoer(addr string) *httpDoer {
	return &httpDoer{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *httpDoer) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return reply{code: resp.StatusCode, body: data, timing: resp.Header.Get("Server-Timing")}, nil
}

func (c *httpDoer) close() { c.hc.CloseIdleConnections() }

// handlerDoer calls the daemon's handler in-process, without a network.
type handlerDoer struct{ h http.Handler }

func (d handlerDoer) do(method, path string, body []byte) (reply, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return reply{code: rec.Code, body: rec.Body.Bytes(), timing: rec.Header().Get("Server-Timing")}, nil
}

// pageCacheFS is durability.OSFS with Sync and SyncDir counted but not
// forwarded: records and snapshots are written, renamed and truncated as in
// production, and stop at the page cache as they do on a tmpfs data dir.
// Real-disk fsync time does not repeat from run to run; the traced run
// measures it separately (durability.disk_append_us).
type pageCacheFS struct {
	durability.OSFS
	syncs *atomic.Int64
}

func (f pageCacheFS) OpenFile(name string, flag int, perm os.FileMode) (durability.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{file, f.syncs}, nil
}

func (f pageCacheFS) SyncDir(string) error {
	f.syncs.Add(1)
	return nil
}

type pageCacheFile struct {
	durability.File
	syncs *atomic.Int64
}

func (f pageCacheFile) Sync() error {
	f.syncs.Add(1)
	return nil
}

// replayKind says how a replay reaches the daemon.
type replayKind int

const (
	plainHTTP  replayKind = iota // loopback HTTP, tracing off
	tracedHTTP                   // loopback HTTP, span tracing on
	inProcess                    // Handler().ServeHTTP, tracing off
)

func (k replayKind) String() string {
	return [...]string{"replay", "traced replay", "in-process replay"}[k]
}

// daemon is one qosd instance started for one replay.
type daemon struct {
	svc    *service.Service
	client *httpDoer
	tracer *trace.Tracer
	dir    string
	syncs  atomic.Int64
}

func startDaemon(tr *failure.Trace, o options, kind replayKind) (*daemon, doer, time.Duration, error) {
	d := &daemon{}
	cfg := service.DefaultConfig(tr)
	if kind == tracedHTTP {
		d.tracer = trace.New(0)
		cfg.Tracer = d.tracer
	}
	if o.durable() {
		d.dir = filepath.Join(o.buildDir, fmt.Sprintf("qosd-data-%d", os.Getpid()))
		if err := os.RemoveAll(d.dir); err != nil {
			return nil, nil, 0, err
		}
		cfg.DataDir = d.dir
		cfg.FS = pageCacheFS{syncs: &d.syncs}
	}
	t0 := time.Now()
	svc, err := service.New(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service.New: %w", err)
	}
	d.svc = svc
	if kind == inProcess {
		return d, handlerDoer{svc.Handler()}, time.Since(t0), nil
	}
	addr, err := svc.Start("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, nil, 0, err
	}
	elapsed := time.Since(t0)
	d.client = newHTTPDoer(addr)
	return d, d.client, elapsed, nil
}

func (d *daemon) close() error {
	if d.client != nil {
		d.client.close()
	}
	err := d.svc.Close()
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// spanTotals sums Server-Timing spans over a traced replay, in ms.
type spanTotals struct {
	self     [3]float64 // quote, accept, advance handler self time
	requests [3]int
	quote    float64
	admit    float64
	advance  float64
	book     float64
	wal      float64
	snapshot float64
}

const (
	epQuote = iota
	epAccept
	epAdvance
)

var endpointSpans = [3]string{"http.quote", "http.accept", "http.advance"}

func (t *spanTotals) add(ep int, header string) error {
	st, err := parseServerTiming(header)
	if err != nil {
		return err
	}
	if _, ok := st.ms[endpointSpans[ep]]; !ok {
		return fmt.Errorf("server-timing %q lacks %s", header, endpointSpans[ep])
	}
	t.self[ep] += st.selfMs(endpointSpans[ep])
	t.requests[ep]++
	t.quote += st.ms["quote"]
	t.admit += st.ms["admit"]
	t.advance += st.ms["engine.advance"]
	t.book += st.ms["book.open"] + st.ms["book.take"]
	t.wal += st.ms["wal.append"]
	t.snapshot += st.ms["snapshot"]
	return nil
}

// replayOut is what one replay measured.
type replayOut struct {
	kind     replayKind
	rtt      samples // ms per promise: quote plus accept
	wall     time.Duration
	promises int
	accepted int
	failed   int
	alloc    uint64
	mallocs  uint64
	spans    spanTotals
	digest   string
	// From /metrics and the tracer, durable mode only.
	walRecords, snapshots, snapshotBytes float64
	syncs                                int64
	walSizes                             []int
}

type quoteReply struct {
	SessionID string `json:"session_id"`
	Quotes    []struct {
		Offer   int     `json:"offer"`
		Success float64 `json:"success"`
	} `json:"quotes"`
}

// pickOffer is the Eq. 3 user: the earliest offer promising at least u,
// or the most reliable one when none does.
func pickOffer(q quoteReply, u float64) int {
	for _, o := range q.Quotes {
		if o.Success >= u {
			return o.Offer
		}
	}
	return q.Quotes[len(q.Quotes)-1].Offer
}

// replay sends the whole stream through c, one request at a time.
func replay(c doer, st stream, kind replayKind) (replayOut, error) {
	out := replayOut{kind: kind, rtt: make(samples, 0, len(st.jobs))}
	traced := kind == tracedHTTP
	note := func(ep int, r reply) error {
		if !traced || r.code != http.StatusOK {
			return nil
		}
		return out.spans.add(ep, r.timing)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	var accept []byte
	for _, j := range st.jobs {
		out.promises++
		if j.advance != nil {
			r, err := c.do("POST", "/v1/advance", j.advance)
			if err != nil {
				return out, err
			}
			if r.code != http.StatusOK {
				out.failed++
				continue
			}
			if err := note(epAdvance, r); err != nil {
				return out, err
			}
		}
		t0 := time.Now()
		rq, err := c.do("POST", "/v1/quote", j.quote)
		tq := time.Since(t0)
		if err != nil {
			return out, err
		}
		var q quoteReply
		if rq.code != http.StatusOK || json.Unmarshal(rq.body, &q) != nil || len(q.Quotes) == 0 {
			out.failed++
			continue
		}
		if err := note(epQuote, rq); err != nil {
			return out, err
		}
		accept = append(accept[:0], `{"session_id":`...)
		accept = strconv.AppendQuote(accept, q.SessionID)
		accept = append(accept, `,"offer":`...)
		accept = strconv.AppendInt(accept, int64(pickOffer(q, j.u)), 10)
		accept = append(accept, '}')
		t1 := time.Now()
		ra, err := c.do("POST", "/v1/accept", accept)
		ta := time.Since(t1)
		if err != nil {
			return out, err
		}
		if ra.code != http.StatusOK {
			out.failed++
			continue
		}
		if err := note(epAccept, ra); err != nil {
			return out, err
		}
		out.accepted++
		out.rtt = append(out.rtt, ms(tq+ta))
	}
	r, err := c.do("POST", "/v1/advance", st.drain)
	if err != nil {
		return out, err
	}
	if r.code != http.StatusOK {
		out.failed++
	} else if err := note(epAdvance, r); err != nil {
		return out, err
	}
	out.wall = time.Since(begin)
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.digest, err = qosdDigest(c)
	return out, err
}

// qosdDigest fingerprints the daemon's final /v1/state and the full
// /qos/conformance ledger.
func qosdDigest(c doer) (string, error) {
	h := newDigest()
	for _, path := range []string{"/v1/state", "/qos/conformance?n=0"} {
		r, err := c.do("GET", path, nil)
		if err != nil {
			return "", err
		}
		if r.code != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d: %s", path, r.code, r.body)
		}
		fmt.Fprintf(h, "%s\n%s\n", path, r.body)
	}
	return h.sum(), nil
}

// metricValue reads one unlabelled sample from Prometheus text exposition,
// zero when absent.
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v
		}
	}
	return 0
}

// maxDiskProbes bounds the appends the disk probe makes.
const maxDiskProbes = 300

// walSizes returns the payload sizes of the WAL appends the tracer kept.
func walSizes(tr *trace.Tracer) []int {
	var sizes []int
	for _, sp := range tr.Snapshot() {
		if sp.Name != "wal.append" {
			continue
		}
		if n, err := strconv.Atoi(sp.Args["bytes"]); err == nil {
			sizes = append(sizes, n)
		}
		if len(sizes) == maxDiskProbes {
			break
		}
	}
	return sizes
}

// diskAppendUs appends payloads of the given sizes through a real
// durability store (write plus fsync) in a directory under dir and returns
// the median append time in microseconds.
func diskAppendUs(dir string, sizes []int) (float64, error) {
	if len(sizes) == 0 {
		return 0, nil
	}
	dir = filepath.Join(dir, fmt.Sprintf("disk-probe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := durability.Open(durability.OSFS{}, dir, durability.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var us samples
	for _, n := range sizes {
		payload := bytes.Repeat([]byte{'x'}, n)
		t0 := time.Now()
		if _, err := st.Append(payload); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return us.median(), nil
}

// qosdStreams is the number of independent input streams one run cycles
// through, each replayed into its own fresh daemon.
const qosdStreams = 8

// tracedStreams is how many of them a traced run replays, each three ways
// (untraced, traced, in-process), so every comparison is on equal input.
const tracedStreams = 6

// qosdInput is one stream with the trace window its daemon forecasts from.
type qosdInput struct {
	st stream
	tr *failure.Trace
}

// setupQosd generates the seed's failure trace and every stream, then
// starts and stops one daemon on the first input to time service set-up.
func setupQosd(o options) ([]qosdInput, setupTimes, error) {
	var st setupTimes
	tr, d, err := genTrace(o.seed)
	if err != nil {
		return nil, st, err
	}
	st.trace = d
	t0 := time.Now()
	inputs := make([]qosdInput, qosdStreams)
	for k := range inputs {
		sub := subSeed(o.seed, k)
		w, err := window(tr, sub)
		if err != nil {
			return nil, st, err
		}
		inputs[k] = qosdInput{st: newStream(sub, qosdJobs), tr: w}
	}
	st.workload = time.Since(t0)
	dmn, _, d, err := startDaemon(inputs[0].tr, o, plainHTTP)
	if err != nil {
		return nil, st, err
	}
	st.service = d
	return inputs, st, dmn.close()
}

// replayInput starts a fresh daemon on the input's trace window, replays
// its stream and tears the daemon down.
func replayInput(o options, in qosdInput, kind replayKind) (replayOut, error) {
	dmn, c, _, err := startDaemon(in.tr, o, kind)
	if err != nil {
		return replayOut{}, err
	}
	out, err := replay(c, in.st, kind)
	if err == nil && o.durable() {
		var r reply
		if r, err = c.do("GET", "/metrics", nil); err == nil {
			text := string(r.body)
			out.walRecords = metricValue(text, "qosd_wal_records_total")
			out.snapshots = metricValue(text, "qosd_snapshots_total")
			out.snapshotBytes = metricValue(text, "qosd_snapshot_last_bytes")
		}
		out.syncs = dmn.syncs.Load()
		out.walSizes = walSizes(dmn.tracer)
	}
	if cerr := dmn.close(); err == nil {
		err = cerr
	}
	return out, err
}

// benchQosd measures the qosd round trip: one in-process warm-up replay of
// every stream the run uses, then replays cycling through the streams, each
// into a fresh daemon, until the measured time reaches seconds and every
// stream ran, with setupRepeats timed set-ups spread over them. With traced
// set, the first tracedStreams streams are replayed untraced, traced and
// in-process in turn, and the result holds the per-layer metrics.
func benchQosd(o options) (result, error) {
	var (
		res    result
		setups []setupTimes
		inputs []qosdInput
		speed  hostSpeed
		spent  time.Duration
		due    = setupSchedule{total: o.duration()}
	)
	ds, ok := recorded.Qosd[seedKey(o.seed)]
	for i, d := range ds {
		res.expect(streamKey(i), d)
	}
	res.noteRecorded(o.seed, ok)
	// setUp runs the set-ups due after spent measured time. Each replaces
	// the inputs with identical fresh ones, and starts from a collected heap
	// that no longer holds the old ones.
	setUp := func() error {
		for due.due(spent) {
			inputs = nil
			runtime.GC()
			in, st, err := setupQosd(o)
			if err != nil {
				return err
			}
			inputs, setups = in, append(setups, st)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return res, err
	}
	pass := func(o options, stream int, kind replayKind, measured bool) (replayOut, error) {
		// The previous daemon's garbage is collected here, not in this
		// replay. A measured replay is preceded by the reference kernel.
		runtime.GC()
		if measured {
			speed.measure(1)
		}
		out, err := replayInput(o, inputs[stream], kind)
		if err != nil {
			return out, err
		}
		res.attempted += out.promises
		res.failed += out.failed
		res.check(out.kind.String(), streamKey(stream), out.digest)
		return out, nil
	}

	// Every stream is first replayed in-process into an in-memory daemon,
	// so its HTTP replays, durable ones included, must match a different
	// path's outcome.
	streams := qosdStreams
	if o.trace {
		streams = tracedStreams
	}
	memory := o
	memory.workload = "qosd-memory"
	for s := range streams {
		if _, err := pass(memory, s, inProcess, false); err != nil {
			return res, err
		}
	}
	type step struct {
		stream int
		kind   replayKind
	}
	kinds := []replayKind{plainHTTP}
	if o.trace {
		kinds = []replayKind{plainHTTP, tracedHTTP, inProcess}
	}
	var cycle []step
	for s := range streams {
		for _, k := range kinds {
			cycle = append(cycle, step{s, k})
		}
	}
	var byKind [3][]replayOut
	// Only whole cycles run, so every stream weighs the same in a run.
	for i := 0; spent < o.duration() || i%len(cycle) != 0; i++ {
		s := cycle[i%len(cycle)]
		out, err := pass(o, s.stream, s.kind, true)
		if err != nil {
			return res, err
		}
		byKind[s.kind] = append(byKind[s.kind], out)
		spent += out.wall
		if err := setUp(); err != nil {
			return res, err
		}
	}

	if o.trace {
		return res, qosdLayers(o, res.layers(), byKind, setups, &speed)
	}
	var (
		rounds   []round
		alloc    uint64
		promises int
	)
	for _, out := range byKind[plainHTTP] {
		rounds = append(rounds, round{lat: out.rtt, wall: out.wall})
		alloc += out.alloc
		promises += out.promises
	}
	res.endToEnd(rounds, setups, float64(alloc)/1024/float64(promises), &speed)
	return res, nil
}

func streamKey(i int) string { return "qosd stream " + strconv.Itoa(i) }

// qosdLayers sets the per-layer metrics of a traced qosd run.
func qosdLayers(o options, l layerSet, byKind [3][]replayOut, setups []setupTimes, speed *hostSpeed) error {
	var (
		sp                               spanTotals
		promises, tracedPromises         int
		accepted, attempted              int
		mallocs                          uint64
		walRecords, snapshots, snapBytes float64
		syncs                            int64
		sizes                            []int
		lat, handler, first, last        samples
	)
	for _, out := range byKind[plainHTTP] {
		lat = append(lat, out.rtt...)
		promises += out.promises
		mallocs += out.mallocs
		tenth := len(out.rtt) / 10
		first = append(first, out.rtt[:tenth]...)
		last = append(last, out.rtt[len(out.rtt)-tenth:]...)
	}
	for _, out := range byKind[inProcess] {
		handler = append(handler, out.rtt...)
	}
	traced := byKind[tracedHTTP]
	for _, out := range traced {
		for i := range sp.self {
			sp.self[i] += out.spans.self[i]
			sp.requests[i] += out.spans.requests[i]
		}
		sp.quote += out.spans.quote
		sp.admit += out.spans.admit
		sp.advance += out.spans.advance
		sp.book += out.spans.book
		sp.wal += out.spans.wal
		sp.snapshot += out.spans.snapshot
		tracedPromises += out.promises
		walRecords += out.walRecords
		snapshots += out.snapshots
		snapBytes += out.snapshotBytes
		syncs += out.syncs
		sizes = append(sizes, out.walSizes...)
	}
	for _, outs := range byKind {
		for _, out := range outs {
			accepted += out.accepted
			attempted += out.promises
		}
	}
	us := func(totalMs float64, n int) float64 { return 1000 * ratio(totalMs, float64(n)) }

	l.set("service.quote_self_us", us(sp.self[epQuote], sp.requests[epQuote]))
	l.set("service.accept_self_us", us(sp.self[epAccept], sp.requests[epAccept]))
	l.set("service.advance_self_us", us(sp.self[epAdvance], sp.requests[epAdvance]))
	l.set("service.first_tenth_p50_ms", first.median())
	l.set("service.last_tenth_p50_ms", last.median())
	l.set("engine.quote_us", us(sp.quote, sp.requests[epQuote]))
	l.set("engine.admit_us", us(sp.admit, sp.requests[epAccept]))
	l.set("engine.advance_us", us(sp.advance, sp.requests[epAdvance]))
	l.set("negotiate.book_us", us(sp.book, tracedPromises))
	l.set("service.handler_us", 1000*handler.mean())
	l.set("net.overhead_us", 1000*(lat.mean()-handler.mean()))
	l.set("negotiate.accept_ok_ratio", ratio(float64(accepted), float64(attempted)))
	if o.durable() {
		n := float64(len(traced))
		l.set("durability.wal_append_us", us(sp.wal, int(walRecords)))
		l.set("durability.records_per_promise", ratio(walRecords, float64(tracedPromises)))
		l.set("durability.syncs_per_promise", ratio(float64(syncs), float64(tracedPromises)))
		l.set("durability.snapshots", ratio(snapshots, n))
		l.set("durability.snapshot_ms", ratio(sp.snapshot, snapshots))
		l.set("durability.snapshot_kb", ratio(snapBytes, n)/1024)
		disk, err := diskAppendUs(o.buildDir, sizes)
		if err != nil {
			return fmt.Errorf("disk probe: %w", err)
		}
		l.set("durability.disk_append_us", disk)
	}
	l.setSetup(setups)
	l.set("host.ref_kernel_ms", speed.kernelMs.median())
	l.set("mem.allocs_per_op", ratio(float64(mallocs), float64(promises)))
	l.set("trace.overhead_pct", overheadPct(replayWalls(traced), replayWalls(byKind[plainHTTP])))
	return nil
}

func replayWalls(outs []replayOut) samples {
	var s samples
	for _, out := range outs {
		s = append(s, ms(out.wall))
	}
	return s
}
