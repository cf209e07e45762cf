package scenario

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"probqos/internal/checkpoint"
	"probqos/internal/durability"
	"probqos/internal/journal"
	"probqos/internal/metrics"
	"probqos/internal/service"
	"probqos/internal/sim"
)

// TestZooReplaysThroughQosdRecovery is the differential oracle between the
// scenario runner and qosd's crash recovery. For every zoo scenario it
// runs the timeline step by step; after each step it writes every op the
// runner has applied so far as the WAL of a fresh data dir, boots qosd on
// it under the scenario's fleet and background trace, and requires the
// recovered /v1/state and /qos/conformance?n=0 to equal the runner's
// engine and ledger, and /qos/report to equal the metrics of the runner's
// report. It stops at the first drain, which has no qosd op.
func TestZooReplaysThroughQosdRecovery(t *testing.T) {
	for _, file := range zooFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			s := decodeFile(t, file)
			r, err := NewRunner(s)
			if err != nil {
				t.Fatal(err)
			}
			var ops [][]byte
			r.applied = func(op journal.Op) {
				raw, err := json.Marshal(op)
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, raw)
			}
			cfg := qosdConfig(t, s)
			for i, ev := range s.Events {
				if ev.Action == ActionDrain {
					break
				}
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
				cfg.DataDir = t.TempDir()
				writeWAL(t, cfg, ops)
				svc, err := service.New(cfg)
				if err != nil {
					t.Fatalf("events[%d]: boot on the runner's %d ops: %v", i, len(ops), err)
				}
				if got := svc.RecoveryInfo().RecordsReplayed; got != len(ops) {
					t.Errorf("events[%d]: qosd replayed %d records, the runner applied %d ops", i, got, len(ops))
				}
				eng, ledger := r.m.Engine(), r.m.Ledger()
				sameJSON(t, i, svc.Handler(), "/v1/state", struct {
					sim.Stats
					OpenSessions    int `json:"open_sessions"`
					ExpiredSessions int `json:"expired_sessions"`
				}{Stats: eng.Stats()})
				sameJSON(t, i, svc.Handler(), "/qos/conformance?n=0", struct {
					metrics.ConformanceStats
					Entries []metrics.Promise `json:"entries,omitempty"`
				}{ledger.Stats(), ledger.Entries(0)})
				sameJSON(t, i, svc.Handler(), "/qos/report", r.Report().Metrics)
				if err := svc.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// qosdConfig is the qosd configuration whose engine matches the runner's
// for scenario s: its fleet, its policy and its background trace.
func qosdConfig(t *testing.T, s *Scenario) service.Config {
	t.Helper()
	bg, err := backgroundTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := checkpoint.ParsePolicy(s.Fleet.Policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.DefaultConfig(bg)
	cfg.Nodes = s.Fleet.Nodes
	cfg.Accuracy = s.Fleet.Accuracy
	cfg.Checkpoint = s.Fleet.Checkpoint
	cfg.Downtime = s.Fleet.Downtime
	cfg.Policy = policy
	cfg.DeadlineSkip = s.Fleet.DeadlineSkip
	cfg.FaultAware = s.Fleet.FaultAware
	cfg.BaseRateFloor = s.Fleet.BaseRateFloor
	cfg.FS = noSyncFS{}
	return cfg
}

// writeWAL appends each op as one WAL record to cfg's data dir.
func writeWAL(t *testing.T, cfg service.Config, ops [][]byte) {
	t.Helper()
	store, _, _, err := durability.Open(cfg.FS, cfg.DataDir, durability.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if _, err := store.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameJSON requires GET path on h to answer 200 with the JSON value of want.
func sameJSON(t *testing.T, step int, h http.Handler, path string, want any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("events[%d]: GET %s: code %d: %s", step, path, rec.Code, rec.Body.Bytes())
	}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got, exp any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantRaw, &exp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("events[%d]: GET %s after replay:\n got %s\nwant %s", step, path, rec.Body.Bytes(), wantRaw)
	}
}

// noSyncFS is the real filesystem with fsync skipped; the test replays
// what it wrote, it does not crash.
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
