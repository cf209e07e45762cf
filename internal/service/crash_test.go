package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probqos/internal/durability"
	"probqos/internal/failure"
	"probqos/internal/journal"
	"probqos/internal/negotiate"
	"probqos/internal/sched"
	"probqos/internal/sim"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// durableConfig builds a config over an 8-node empty trace writing to dir,
// with compaction effectively disabled so tests control the WAL contents.
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.DataDir = dir
	cfg.SnapshotEvery = 1 << 20
	cfg.CrashHazard = 1e-12
	return cfg
}

// crash simulates a kill -9 for a service that never called Start: the
// state machine stops without the drain record or shutdown snapshot, so
// the data dir is left exactly as a power loss would.
func crash(s *Service) {
	if s.stop.CompareAndSwap(false, true) {
		close(s.quit)
	}
	<-s.done
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// fingerprint serializes everything a recovered machine must reproduce:
// the machine journal's bytes, the clock, per-job status, aggregate stats,
// the session book, the ID counter, and the promise ledger's rows and
// summary.
func fingerprint(t *testing.T, m *machine) string {
	t.Helper()
	jobs := map[int]sim.JobStatus{}
	for _, id := range m.Engine().JobIDs() {
		js, _ := m.Engine().Job(id)
		jobs[id] = js
	}
	data, err := json.Marshal(map[string]any{
		"journal":     string(bytes.Join(m.Journal(), nil)),
		"now":         m.Engine().Now(),
		"stats":       m.Engine().Stats(),
		"jobs":        jobs,
		"book":        m.book.Export(),
		"next_id":     m.NextJobID(),
		"ledger":      m.Ledger().Entries(0),
		"conformance": m.Ledger().Stats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// driveDialog runs a fixed negotiation script through the handler stack:
// three admitted jobs, one rejected offer, an injected fault, and clock
// advances. Deterministic, so two services driven by it stay identical.
func driveDialog(t *testing.T, h http.Handler) {
	t.Helper()
	step := func(wantCode int, method, path string, body, out any) {
		t.Helper()
		if code := call(t, h, method, path, body, out); code != wantCode {
			t.Fatalf("%s %s: code %d, want %d", method, path, code, wantCode)
		}
	}
	quoteAccept := func(nodes, exec int) {
		t.Helper()
		var q quoteResponse
		step(http.StatusOK, "POST", "/v1/quote",
			map[string]any{"nodes": nodes, "exec_seconds": exec}, &q)
		if q.SessionID == "" || len(q.Quotes) == 0 {
			t.Fatalf("no offers for %d nodes", nodes)
		}
		step(http.StatusOK, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil)
	}

	quoteAccept(2, 3600)
	quoteAccept(4, 1800)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 600}, nil)

	// A quote left to expire, and an accept of a bad offer rank.
	var q quoteResponse
	step(http.StatusOK, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &q)
	step(http.StatusBadRequest, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 99}, nil)

	step(http.StatusAccepted, "POST", "/v1/faults",
		map[string]any{"node": 3, "after_seconds": 120}, nil)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 1800}, nil)
	quoteAccept(3, 900)
	step(http.StatusOK, "POST", "/v1/advance", map[string]any{"by_seconds": 7200}, nil)
}

// frameBoundaries returns the byte offset after each complete WAL frame.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for off+8 <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + length
		if off > len(data) {
			t.Fatalf("torn frame in a crashed-but-unfailed WAL at %d", off)
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// TestKillAtEveryRecordBoundary is the crash-recovery sweep: for a WAL of
// n records left behind by a killed service, recovery from every prefix of
// k complete records (and from torn tails cut mid-record) must reproduce
// exactly the state of a reference machine that applied the first k
// records.
func TestKillAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	crash(s)

	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := durability.DecodeRecords(data)
	if int(valid) != len(data) || len(recs) < 10 {
		t.Fatalf("expected a fully valid WAL of >= 10 records, got %d records, %d/%d bytes valid",
			len(recs), valid, len(data))
	}
	bounds := frameBoundaries(t, data)

	// Cut points: every record boundary (0 = empty log), plus torn tails
	// at random offsets strictly inside a frame.
	type cut struct {
		bytes   int // prefix length written to the new data dir
		records int // complete records that prefix holds
	}
	cuts := []cut{{0, 0}}
	for i, b := range bounds {
		cuts = append(cuts, cut{b, i + 1})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		k := rng.Intn(len(bounds))
		lo := 0
		if k > 0 {
			lo = bounds[k-1]
		}
		if bounds[k]-lo < 2 {
			continue
		}
		torn := lo + 1 + rng.Intn(bounds[k]-lo-1)
		cuts = append(cuts, cut{torn, k})
	}

	for _, c := range cuts {
		t.Run(fmt.Sprintf("bytes=%d records=%d", c.bytes, c.records), func(t *testing.T) {
			// Reference: a fresh machine applying the surviving records,
			// each with its payload, as recovery does.
			ref, err := newMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs[:c.records] {
				if err := ref.replay(rec.Payload); err != nil {
					t.Fatal(err)
				}
			}

			// Recovered: a service booting from the truncated WAL.
			cutDir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), data[:c.bytes], 0o644); err != nil {
				t.Fatal(err)
			}
			cutCfg := durableConfig(t, cutDir)
			rs, err := New(cutCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			info := rs.RecoveryInfo()
			if !info.Enabled || info.Clean || info.RecordsReplayed != c.records {
				t.Errorf("recovery info %+v, want crash recovery of %d records", info, c.records)
			}
			if got, want := fingerprint(t, &rs.machine), fingerprint(t, &ref); got != want {
				t.Errorf("recovered state diverges from reference:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCrashMidWorkloadRecovers kills the service halfway through a
// workload, restarts it from the data dir, finishes the workload, and
// checks the outcome matches an uninterrupted run. The twin is durable
// too: a machine without a data dir keeps no journal to compare.
func TestCrashMidWorkloadRecovers(t *testing.T) {
	firstHalf := func(t *testing.T, h http.Handler) string {
		t.Helper()
		var q quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 4, "exec_seconds": 3600}, &q); code != http.StatusOK {
			t.Fatalf("quote: %d", code)
		}
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("accept: %d", code)
		}
		if code := call(t, h, "POST", "/v1/advance",
			map[string]any{"by_seconds": 300}, nil); code != http.StatusOK {
			t.Fatalf("advance: %d", code)
		}
		// An open session that must survive the crash.
		var open quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 2, "exec_seconds": 600}, &open); code != http.StatusOK {
			t.Fatalf("quote: %d", code)
		}
		return open.SessionID
	}
	secondHalf := func(t *testing.T, h http.Handler, session string) {
		t.Helper()
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": session, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("accept recovered session: %d", code)
		}
		if code := call(t, h, "POST", "/v1/advance",
			map[string]any{"by_seconds": 86400}, nil); code != http.StatusOK {
			t.Fatalf("advance: %d", code)
		}
	}

	// Interrupted run.
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	session := firstHalf(t, s.Handler())
	crash(s)
	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.RecoveryInfo(); info.Clean || info.RecordsReplayed == 0 {
		t.Fatalf("expected crash recovery with records, got %+v", info)
	}
	secondHalf(t, s2.Handler(), session)

	// Uninterrupted reference.
	ref, err := New(durableConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refSession := firstHalf(t, ref.Handler())
	secondHalf(t, ref.Handler(), refSession)

	if got, want := fingerprint(t, &s2.machine), fingerprint(t, &ref.machine); got != want {
		t.Errorf("recovered run diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestCleanRestartReplaysNothing checks the graceful path: Close leaves a
// shutdown snapshot and an empty WAL, and the next boot reports it clean.
func TestCleanRestartReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	want := fingerprint(t, &s.machine)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info := s2.RecoveryInfo()
	if !info.Clean || !info.SnapshotLoaded || info.RecordsReplayed != 0 {
		t.Fatalf("clean restart info %+v", info)
	}
	if got := fingerprint(t, &s2.machine); got != want {
		t.Errorf("clean restart diverges:\n got %s\nwant %s", got, want)
	}
}

// TestRecoveryRefusesForeignConfig checks the config-digest guard: a data
// dir written under one cluster must not silently replay under another.
func TestRecoveryRefusesForeignConfig(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(t, dir)
	cfg.Accuracy = 0.9 // different predictor: replay would diverge
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "refusing to replay") {
		t.Fatalf("foreign config accepted: %v", err)
	}
}

// TestRecoveryRefusesOldSnapshotLayout boots from a data dir whose
// snapshot holds the earlier state layout (engine op journal, ledger rows
// and job-ID counter), written under this test's cluster config. It must
// be refused, not decoded into an empty machine.
func TestRecoveryRefusesOldSnapshotLayout(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1-datadir", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableConfig(t, dir)); err == nil || !strings.Contains(err.Error(), "refusing to replay") {
		t.Fatalf("old snapshot layout accepted: %v", err)
	}
}

// TestDegradedModeServesReadsAndHeals forces WAL append failures and
// checks the contract: mutations 503, quotes and reads still answered,
// /healthz and the gauge report it, and service resumes once the disk
// heals — with the data dir still consistent across a restart.
func TestDegradedModeServesReadsAndHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := durability.NewFaultFS(durability.OSFS{})
	cfg := durableConfig(t, dir)
	cfg.FS = ffs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Healthy: one admitted job.
	var q quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 2, "exec_seconds": 600}, &q); code != http.StatusOK {
		t.Fatalf("quote: %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("accept: %d", code)
	}

	// Break the disk. The first mutation to hit the WAL flips to degraded.
	ffs.FailSync(true)
	if code := call(t, h, "POST", "/v1/advance",
		map[string]any{"by_seconds": 60}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("advance on broken disk: code %d, want 503", code)
	}

	// Degraded: quotes and reads work, admits are refused.
	var dq quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &dq); code != http.StatusOK {
		t.Fatalf("quote while degraded: %d", code)
	}
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": dq.SessionID, "offer": 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("accept while degraded: code %d, want 503", code)
	}
	if code := call(t, h, "GET", "/v1/jobs/1", nil, nil); code != http.StatusOK {
		t.Fatalf("read while degraded: %d", code)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "degraded" || health["wal_error"] == "" {
		t.Errorf("healthz while degraded: %v", health)
	}
	if m := scrapeMetrics(t, srv.URL); m[`qosd_degraded`] != 1 {
		t.Errorf("qosd_degraded = %v, want 1", m[`qosd_degraded`])
	}

	// Heal the disk: the next request's probe restores service, and the
	// degraded-window session (memory-only) is now acceptable.
	ffs.Clear()
	if code := call(t, h, "POST", "/v1/accept",
		map[string]any{"session_id": dq.SessionID, "offer": 1}, nil); code != http.StatusOK {
		t.Fatalf("accept after heal: code %d, want 200", code)
	}
	if m := scrapeMetrics(t, srv.URL); m[`qosd_degraded`] != 0 {
		t.Errorf("qosd_degraded after heal = %v, want 0", m[`qosd_degraded`])
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz after heal: %v", health)
	}

	// The dir is consistent: a restart sees both admitted jobs.
	want := fingerprint(t, &s.machine)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(t, &s2.machine); got != want {
		t.Errorf("post-heal restart diverges:\n got %s\nwant %s", got, want)
	}
	if st := s2.Engine().Stats(); st.Queued+st.Running+st.Completed != 2 {
		t.Errorf("expected 2 live jobs after restart, got %+v", st)
	}
}

// TestPromiseLedgerSurvivesCrash pins the ledger's durability story: the
// ledger is derived state, rebuilt record by record during WAL replay, so
// a kill -9 loses no admitted promise and no settled outcome — and
// settlement after recovery continues exactly where the live run left off.
func TestPromiseLedgerSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	before := s.Ledger().Entries(0)
	if len(before) != 3 {
		t.Fatalf("dialog admitted %d promises, want 3", len(before))
	}
	crash(s)

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(s2.Ledger().Entries(0))
	if string(b1) != string(b2) {
		t.Errorf("recovered ledger diverges:\n got %s\nwant %s", b2, b1)
	}

	// Settlement resumes on the recovered ledger: a week of virtual time
	// drives every open promise to a terminal outcome.
	if code := call(t, s2.Handler(), "POST", "/v1/advance",
		map[string]any{"by_seconds": 7 * 86400}, nil); code != http.StatusOK {
		t.Fatalf("advance after recovery: %d", code)
	}
	st := s2.Ledger().Stats()
	if st.Open != 0 || st.Settled != 3 {
		t.Fatalf("after a week: %+v, want all 3 promises settled", st)
	}
	if st.Kept+st.Broken != st.Settled {
		t.Errorf("kept %d + broken %d != settled %d", st.Kept, st.Broken, st.Settled)
	}
	for _, p := range s2.Ledger().Entries(0) {
		if p.Outcome == "pending" {
			t.Errorf("job %d still pending after a week", p.JobID)
		}
	}
}

// TestPromiseLedgerSurvivesSnapshot pins the clean-shutdown path: the
// snapshot's journal rebuilds the ledger without a single WAL record.
func TestPromiseLedgerSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	driveDialog(t, s.Handler())
	before := s.Ledger().Entries(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info := s2.RecoveryInfo(); !info.Clean || info.RecordsReplayed != 0 {
		t.Fatalf("expected clean snapshot-only restart, got %+v", info)
	}
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(s2.Ledger().Entries(0))
	if string(b1) != string(b2) {
		t.Errorf("snapshot-restored ledger diverges:\n got %s\nwant %s", b2, b1)
	}
}

// forecastConfig builds a config over a 4-node trace whose failures a
// predictor of accuracy 1 sees, each with its own odd detectability, so
// quotes promise less than 1 and jobs of different lengths settle out of
// admit order. An empty dir gives an in-memory service; otherwise a small
// SnapshotEvery makes the service snapshot as it goes, so that a crash
// recovers from a snapshot plus a WAL tail.
func forecastConfig(t *testing.T, dir string) Config {
	t.Helper()
	var events []failure.Event
	for k := 0; k < 40; k++ {
		for n := 0; n < 4; n++ {
			events = append(events, failure.Event{
				Time:          units.Time(1800*(k+1) + 397*n),
				Node:          n,
				Detectability: 0.0131234567 + 0.00731234567*float64((k*5+n*3)%13),
			})
		}
	}
	tr, err := failure.NewTrace(4, events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Accuracy = 1
	cfg.DataDir = dir
	cfg.SnapshotEvery = 8
	return cfg
}

// forecastDialog runs steps [from, to) of a fixed script: each step quotes
// a job of one or two nodes and varied length, accepts the first offer,
// and advances the clock.
func forecastDialog(t *testing.T, h http.Handler, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		var q quoteResponse
		if code := call(t, h, "POST", "/v1/quote",
			map[string]any{"nodes": 1 + i%2, "exec_seconds": 600 + (i*1337)%5400}, &q); code != http.StatusOK {
			t.Fatalf("step %d: quote: code %d", i, code)
		}
		if code := call(t, h, "POST", "/v1/accept",
			map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusOK {
			t.Fatalf("step %d: accept: code %d", i, code)
		}
		if code := call(t, h, "POST", "/v1/advance",
			map[string]any{"by_seconds": 300 + (i*211)%1500}, nil); code != http.StatusOK {
			t.Fatalf("step %d: advance: code %d", i, code)
		}
	}
}

// conformanceBody returns the raw /qos/conformance body with every row.
func conformanceBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := callRec(t, h, "GET", "/qos/conformance?n=0", nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("conformance: code %d", rec.Code)
	}
	return rec.Body.String()
}

// TestConformanceSurvivesRestart pins the promise ledger across both
// recovery paths when promises are below 1 and settle out of admit order:
// a rebuilt ledger must sum each reliability bin in the order the live one
// did, so /qos/conformance reads byte for byte the same right after a
// clean restart or a crash, and again at the end of the dialog, as on an
// uninterrupted twin.
func TestConformanceSurvivesRestart(t *testing.T) {
	const steps, cut = 40, 24
	twin, err := New(forecastConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	forecastDialog(t, twin.Handler(), 0, cut)
	// The dialog must reach the case: promises below 1, settled out of
	// admit order, before the cut.
	rows := twin.Ledger().Entries(0)
	subOne, outOfOrder := 0, false
	for i, p := range rows {
		if p.Outcome != "pending" && p.Promised < 1 {
			subOne++
		}
		for _, q := range rows[i+1:] {
			if p.Outcome != "pending" && q.Outcome != "pending" && q.SettledAt < p.SettledAt {
				outOfOrder = true
			}
		}
	}
	if subOne < 3 || !outOfOrder {
		t.Fatalf("dialog settles %d promises below 1, out of admit order %v; want >= 3 and true", subOne, outOfOrder)
	}
	forecastDialog(t, twin.Handler(), cut, steps)
	want := conformanceBody(t, twin.Handler())

	for _, stop := range []struct {
		name string
		stop func(*Service)
	}{
		{"clean", func(s *Service) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"crash", crash},
	} {
		t.Run(stop.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(forecastConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			forecastDialog(t, s.Handler(), 0, cut)
			before := conformanceBody(t, s.Handler())
			stop.stop(s)

			s2, err := New(forecastConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !s2.RecoveryInfo().SnapshotLoaded {
				t.Fatalf("recovery info %+v, want a snapshot restored", s2.RecoveryInfo())
			}
			if got := conformanceBody(t, s2.Handler()); got != before {
				t.Errorf("conformance after restart diverges:\n got %s\nwant %s", got, before)
			}
			forecastDialog(t, s2.Handler(), cut, steps)
			if got := conformanceBody(t, s2.Handler()); got != want {
				t.Errorf("conformance at the end diverges from the uninterrupted twin:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// snapshotOracle encodes the snapshot s would write now, independently of
// the snapshot writer: it decodes every journal entry and marshals the
// {ops, book, clean} state on its own, then wraps it in the envelope as
// raw JSON. Call it only while the loop is idle.
func snapshotOracle(t *testing.T, s *Service, lsn uint64, clean bool) []byte {
	t.Helper()
	var ops []journal.Op
	if len(s.Journal()) > 0 {
		list := append(append([]byte{'['}, bytes.Join(s.Journal(), nil)...), ']')
		if err := json.Unmarshal(list, &ops); err != nil {
			t.Fatalf("journal does not decode as a list of ops: %v", err)
		}
	}
	state, err := json.Marshal(struct {
		Ops   []journal.Op        `json:"ops"`
		Book  negotiate.BookState `json:"book"`
		Clean bool                `json:"clean"`
	}{ops, s.book.Export(), clean})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(durability.Snapshot{
		Version: durability.SnapshotVersion,
		LSN:     lsn,
		Config:  s.digest,
		State:   state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSnapshotBytesMatchTwoPassEncoding pins the snapshot writer, which
// writes the journal's bytes as they are, to the file the two-pass
// writer produced (snapshotOracle). After a driven dialog, or only an open
// session (an empty journal, which encodes as null), and a clean shutdown
// the file must match byte for byte, and the size gauge must report the
// file's size.
func TestSnapshotBytesMatchTwoPassEncoding(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T, h http.Handler)
	}{
		{"dialog", driveDialog},
		{"session-only", func(t *testing.T, h http.Handler) {
			if code := call(t, h, "POST", "/v1/quote",
				map[string]any{"nodes": 2, "exec_seconds": 600}, nil); code != http.StatusOK {
				t.Fatalf("quote: %d", code)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(durableConfig(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(t, s.Handler())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
			if err != nil {
				t.Fatal(err)
			}
			// The loop has exited, so the machine is safe to read. Every
			// record the service committed, the drain marker included, is
			// in the snapshot.
			want := snapshotOracle(t, s, uint64(s.walRecords.Value()), true)
			if !bytes.Equal(got, want) {
				t.Errorf("snapshot differs from the two-pass encoding:\n got %s\nwant %s", got, want)
			}
			size := s.reg.Gauge("qosd_snapshot_last_bytes", "", nil).Value()
			if size != float64(len(got)) {
				t.Errorf("qosd_snapshot_last_bytes = %v, file holds %d bytes", size, len(got))
			}
		})
	}
}

// TestDegradedQuoteSessionIsMemoryOnly pins the documented relaxation: a
// session quoted while degraded is not journaled, so it does not survive
// a crash — the client renegotiates, no promise is broken.
func TestDegradedQuoteSessionIsMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := durability.NewFaultFS(durability.OSFS{})
	cfg := durableConfig(t, dir)
	cfg.FS = ffs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	ffs.FailSync(true)
	call(t, h, "POST", "/v1/advance", map[string]any{"by_seconds": 1}, nil) // trip degraded
	var q quoteResponse
	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, &q); code != http.StatusOK {
		t.Fatalf("quote while degraded: %d", code)
	}
	ffs.Clear()
	crash(s)

	s2, err := New(durableConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if code := call(t, s2.Handler(), "POST", "/v1/accept",
		map[string]any{"session_id": q.SessionID, "offer": 1}, nil); code != http.StatusNotFound {
		t.Fatalf("memory-only session should 404 after crash, got %d", code)
	}
}

// TestScrapeNeitherTicksNorJournals pins the scrape hook's contract on a
// durable service whose clock follows wall time: /metrics and /snapshot
// read the state as of the last request, so scrapes spread over wall time
// neither advance the virtual clock nor append to the WAL. The next API
// request does both, which shows the clock really was running.
func TestScrapeNeitherTicksNorJournals(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.Speedup = 3600
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()

	if code := call(t, h, "POST", "/v1/quote",
		map[string]any{"nodes": 1, "exec_seconds": 60}, nil); code != http.StatusOK {
		t.Fatalf("quote: %d", code)
	}
	watched := []string{"qosd_wal_records_total", "qosd_virtual_time_seconds"}
	before := scrapeMetrics(t, srv.URL)
	for _, name := range watched {
		if _, ok := before[name]; !ok {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
	time.Sleep(20 * time.Millisecond)
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot: code %d", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond)
	after := scrapeMetrics(t, srv.URL)
	for _, name := range watched {
		if after[name] != before[name] {
			t.Errorf("%s moved from %v to %v across scrapes", name, before[name], after[name])
		}
	}

	var st stateResponse
	if code := call(t, h, "GET", "/v1/state", nil, &st); code != http.StatusOK {
		t.Fatalf("state: %d", code)
	}
	if float64(st.Now) <= before["qosd_virtual_time_seconds"] {
		t.Errorf("request after 40ms at speedup %v left the clock at %v", cfg.Speedup, st.Now)
	}
}

// recordingFS is the non-syncing filesystem that also keeps a copy of
// every snapshot file as it is renamed into place.
type recordingFS struct {
	noSyncFS
	snapshots *[][]byte
}

func (f recordingFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == "snapshot.json" {
		data, err := os.ReadFile(oldpath)
		if err != nil {
			return err
		}
		*f.snapshots = append(*f.snapshots, data)
	}
	return f.noSyncFS.Rename(oldpath, newpath)
}

// TestSnapshotBytesAcrossRestart pins the bytes of every file a durable
// service writes across a crash and a restart, with snapshots taken as
// the log grows. Each WAL payload equals json.Marshal of the op it
// decodes to, and so does each snapshot file of its decoded content,
// including those written after recovery from journal bytes read back
// from a snapshot and a WAL tail. The final, clean snapshot also matches
// snapshotOracle.
func TestSnapshotBytesAcrossRestart(t *testing.T) {
	const steps, cut = 30, 17
	var snaps [][]byte
	dir := t.TempDir()
	cfg := forecastConfig(t, dir)
	cfg.FS = recordingFS{snapshots: &snaps}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forecastDialog(t, s.Handler(), 0, cut)
	crash(s)
	lsn := uint64(s.walRecords.Value())

	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := durability.DecodeRecords(data)
	if len(recs) == 0 {
		t.Fatal("the crash left no WAL tail to recover")
	}
	for _, rec := range recs {
		var op journal.Op
		if err := json.Unmarshal(rec.Payload, &op); err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(op); !bytes.Equal(rec.Payload, want) {
			t.Errorf("WAL record %d:\n got %s\nwant %s", rec.LSN, rec.Payload, want)
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info := s2.RecoveryInfo(); !info.SnapshotLoaded || info.RecordsReplayed != len(recs) {
		t.Fatalf("recovery info %+v, want a snapshot and %d records", info, len(recs))
	}
	forecastDialog(t, s2.Handler(), cut, steps)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 6 {
		t.Fatalf("%d snapshots written, want at least 6", len(snaps))
	}
	for i, got := range snaps {
		var snap struct {
			Version int    `json:"version"`
			LSN     uint64 `json:"lsn"`
			Config  string `json:"config"`
			State   struct {
				Ops   []journal.Op        `json:"ops"`
				Book  negotiate.BookState `json:"book"`
				Clean bool                `json:"clean"`
			} `json:"state"`
		}
		if err := json.Unmarshal(got, &snap); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if want, _ := json.Marshal(snap); !bytes.Equal(got, want) {
			t.Errorf("snapshot %d differs from the encoding of its content:\n got %s\nwant %s", i, got, want)
		}
	}
	last := snaps[len(snaps)-1]
	if want := snapshotOracle(t, s2, lsn+uint64(s2.walRecords.Value()), true); !bytes.Equal(last, want) {
		t.Errorf("clean snapshot:\n got %s\nwant %s", last, want)
	}
}

// TestReplayCostCountsSnapshotOps pins the snapshot rule's replay cost
// after a crash: recovering a snapshot of thousands of ops plus one WAL
// record spreads the replay time over all of them, so the next records do
// not look expensive enough to snapshot after every few. Charging the
// whole replay to the one record did.
func TestReplayCostCountsSnapshotOps(t *testing.T) {
	const ops, after = 3000, 20
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.FS = noSyncFS{}
	advance := func(s *Service) {
		t.Helper()
		if code := call(t, s.Handler(), "POST", "/v1/advance",
			map[string]any{"by_seconds": 60}, nil); code != http.StatusOK {
			t.Fatalf("advance: code %d", code)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		advance(s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	advance(s)
	crash(s)

	// A high crash hazard under the default cap: the cost model decides,
	// and a snapshot costs less than replaying the whole journal, so
	// charging that replay to one record compacts at the first append.
	cfg.CrashHazard, cfg.SnapshotEvery = 0.5, 0
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info := s.RecoveryInfo(); !info.SnapshotLoaded || info.RecordsReplayed != 1 {
		t.Fatalf("recovery info %+v, want a snapshot and one record", info)
	}
	for i := 0; i < after; i++ {
		advance(s)
	}
	var since int
	s.do(func() { since = s.store.RecordsSinceSnapshot() })
	if since != after {
		t.Errorf("%d records since the last snapshot after %d appends: the rule compacted early", since, after)
	}
}

// TestLogOpAllocatesNothing: with tracing off and no fsync, journaling an
// advance or an admit (its encoding and its WAL append) allocates nothing.
func TestLogOpAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder state at random")
	}
	cfg := durableConfig(t, t.TempDir())
	cfg.FS = noSyncFS{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job := workload.Job{ID: 1, Nodes: 2, Exec: 600}
	quote := negotiate.Quote{
		Candidate: sched.Candidate{Nodes: []int{0, 1}, PFail: 0.125},
		Deadline:  600,
		Success:   0.875,
	}
	for _, op := range []journal.Op{
		{Kind: journal.Advance, To: 60},
		{Kind: journal.Admit, SessionID: "q-1", Job: &job, Quote: &quote, Offers: 1},
	} {
		var allocs float64
		s.do(func() {
			allocs = testing.AllocsPerRun(100, func() {
				if _, err := s.logOp(op); err != nil {
					t.Error(err)
				}
			})
		})
		if allocs != 0 {
			t.Errorf("a WAL append of an %s op through logOp allocates %v times, want 0", op.Kind, allocs)
		}
	}
}
