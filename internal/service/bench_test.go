package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"probqos/internal/durability"
	"probqos/internal/failure"
)

// BenchmarkObserveRequest times the per-request metric update every API
// call makes once its endpoint's instruments exist. It must not allocate.
func BenchmarkObserveRequest(b *testing.B) {
	tr, err := failure.NewTrace(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(DefaultConfig(tr))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.observeRequest("quote", http.StatusOK, time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.observeRequest("quote", http.StatusOK, 250*time.Microsecond)
	}
}

// BenchmarkPromiseInProcess times one promise as qosd's clients make it,
// a clock advance, a quote and the accept of its first offer, through
// Handler() into a durable service in a temp data dir: every promise
// appends three WAL records, and the risk rule snapshots as the log grows.
// The data dir skips fsync, so the benchmark times the daemon's own work,
// not the disk's. Snapshots grow with the history, so ns/op rises with
// b.N: compare runs made at one -benchtime.
func BenchmarkPromiseInProcess(b *testing.B) {
	tr, err := failure.NewTrace(64, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.DataDir = b.TempDir()
	cfg.FS = noSyncFS{}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	// http.NewRequest, unlike httptest.NewRequest, does not parse a
	// request line through a fresh 4 KiB reader, which would be most of
	// what the benchmark allocates.
	post := func(path string, body []byte) []byte {
		req, err := http.NewRequest("POST", path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// Each promise moves the clock an hour, the length of the job it
	// books, so the queue, and with it the cost of a quote, stays bounded.
	advance := []byte(`{"by_seconds":3600}`)
	quote := []byte(`{"nodes":8,"exec_seconds":3600}`)
	var q quoteResponse
	promise := func() {
		post("/v1/advance", advance)
		if err := json.Unmarshal(post("/v1/quote", quote), &q); err != nil {
			b.Fatal(err)
		}
		post("/v1/accept", []byte(`{"session_id":`+strconv.Quote(q.SessionID)+`,"offer":1}`))
	}
	// The first promise registers each endpoint's instruments; it runs
	// untimed, so short and long runs time the same steady state.
	promise()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		promise()
	}
}

// noSyncFS is the real filesystem with fsync skipped: files are written,
// renamed and truncated as in production and stop at the page cache.
type noSyncFS struct{ durability.OSFS }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (durability.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ durability.File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkDecodeRequest times the strict decode of canonical quote and
// advance bodies, which the fast path takes and which must not allocate,
// and of a quote body with a case-folded key, which the fast path scans
// and leaves to the reference decoder (the "fallback" case).
func BenchmarkDecodeRequest(b *testing.B) {
	quote := []byte(`{"nodes":8,"exec_seconds":3600}`)
	advance := []byte(`{"by_seconds":3600}`)
	folded := []byte(`{"nodes":8,"Exec_Seconds":3600}`)
	b.Run("quote", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeStrict[quoteRequest](quote); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("advance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeStrict[advanceRequest](advance); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeStrict[quoteRequest](folded); err != nil {
				b.Fatal(err)
			}
		}
	})
}
