package durability

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSnapshotCompactsAndRecoveryReplaysTail(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Compact(map[string]int{"ops": 5}, "cfg-1"); err != nil {
		t.Fatal(err)
	}
	if st.RecordsSinceSnapshot() != 0 {
		t.Fatalf("records since snapshot = %d after compact", st.RecordsSinceSnapshot())
	}
	for i := 5; i < 8; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, snap, recs, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap == nil || string(snap.State) != `{"ops":5}` || snap.Config != "cfg-1" || snap.LSN != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(recs) != 3 || recs[0].LSN != 6 || string(recs[2].Payload) != "op-7" {
		t.Fatalf("replay tail = %d records starting at %d", len(recs), recs[0].LSN)
	}
	if lsn, err := st2.Append([]byte("op-8")); err != nil || lsn != 9 {
		t.Fatalf("append after recovery: lsn %d err %v", lsn, err)
	}
}

// TestCrashBetweenSnapshotAndTruncate models the worst interleaving: the
// new snapshot is durable but the WAL still holds records it already
// includes. Recovery must skip them by LSN, not double-apply.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	st, _, _, err := Open(ffs, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot rename lands; the truncate "crashes".
	ffs.FailTruncate(true)
	if _, err := st.Compact(map[string]int{"ops": 4}, "cfg"); err == nil {
		t.Fatal("compact with failing truncate succeeded")
	}
	ffs.Clear()
	st.Close()

	st2, snap, recs, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap == nil || snap.LSN != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records replayed that the snapshot already includes", len(recs))
	}
	if lsn, err := st2.Append([]byte("next")); err != nil || lsn != 5 {
		t.Fatalf("append: lsn %d err %v", lsn, err)
	}
}

// TestFailedSnapshotKeepsOldState: a rename failure must leave the prior
// snapshot and the full WAL intact.
func TestFailedSnapshotKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	st, _, _, err := Open(ffs, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("op-0")); err != nil {
		t.Fatal(err)
	}
	ffs.FailRename(true)
	if _, err := st.Compact(map[string]bool{"new": true}, "cfg"); err == nil {
		t.Fatal("compact with failing rename succeeded")
	}
	ffs.Clear()
	st.Close()

	_, snap, recs, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("phantom snapshot %+v", snap)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "op-0" {
		t.Fatalf("records = %v", recs)
	}
}

// TestCompactMatchesTwoPassEncoding pins the one-pass writer to the bytes
// of marshalling the state first and wrapping it as raw JSON: escaping of
// HTML-sensitive and line-separator characters, nested raw JSON and
// custom marshalers included. It also checks the returned size and that
// the state loads back as it was encoded.
func TestCompactMatchesTwoPassEncoding(t *testing.T) {
	type inner struct {
		Note string  `json:"note"`
		P    float64 `json:"p"`
	}
	state := struct {
		Text  string            `json:"text"`
		Raw   json.RawMessage   `json:"raw"`
		Ops   []inner           `json:"ops"`
		Tags  map[string]string `json:"tags"`
		Empty *inner            `json:"empty,omitempty"`
		When  time.Duration     `json:"when"`
	}{
		Text: "<b>&amp;</b> \u2028\u2029 \"quoted\"",
		Raw:  json.RawMessage(`{ "spaced" : [1, 2,3] , "html":"<&>" }`),
		Ops:  []inner{{"a", 0.1}, {"b", 1e-9}, {"c", 1e21}},
		Tags: map[string]string{"z": "1", "a": "2"},
		When: 1500 * time.Millisecond,
	}
	dir := t.TempDir()
	var sized int
	st, _, _, err := Open(OSFS{}, dir, Options{OnSnapshot: func(n int, _ time.Duration) { sized = n }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("op-0")); err != nil {
		t.Fatal(err)
	}
	n, err := st.Compact(state, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	encoded, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&Snapshot{Version: SnapshotVersion, LSN: 1, Config: "cfg", State: encoded})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot file differs from the two-pass encoding:\n got %s\nwant %s", got, want)
	}
	if n != len(got) || sized != len(got) {
		t.Errorf("Compact returned %d and reported %d bytes, file holds %d", n, sized, len(got))
	}
	st2, snap, _, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !bytes.Equal(snap.State, encoded) {
		t.Errorf("loaded state %s, want %s", snap.State, encoded)
	}
}

// TestCompactRefusesUnencodableState: a state the encoder cannot write
// fails the compaction before any file is touched, leaving the WAL whole.
func TestCompactRefusesUnencodableState(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("op-0")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(map[string]float64{"p": math.NaN()}, "cfg"); err == nil {
		t.Fatal("compact of a NaN state succeeded")
	}
	if st.RecordsSinceSnapshot() != 1 {
		t.Errorf("records since snapshot = %d after a failed compact", st.RecordsSinceSnapshot())
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
		t.Errorf("failed encode left a temp file: %v", err)
	}
	st2, snap, recs, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap != nil || len(recs) != 1 {
		t.Fatalf("after a failed compact: snapshot %+v, %d records", snap, len(recs))
	}
}

func TestCorruptSnapshotIsAHardError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(OSFS{}, dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot silently ignored")
	}
}

// TestRiskRuleCadence pins the compaction rule to the paper's Equation 1:
// with hazard pf, per-record replay cost I, and snapshot cost C, the
// snapshot fires at the first d with pf·d·I ≥ C.
func TestRiskRuleCadence(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := Open(OSFS{}, dir, Options{Hazard: 0.1, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// I = 100µs, C = 40ms → threshold d = C/(pf·I) = 4000 records.
	st.SetReplayCost(100*time.Millisecond, 1000)
	st.snapCost = 40 * time.Millisecond

	st.sinceSnap = 3999
	if st.ShouldSnapshot() {
		t.Error("rule fired below the threshold")
	}
	st.sinceSnap = 4000
	if !st.ShouldSnapshot() {
		t.Error("rule did not fire at pf·d·I = C")
	}
	// The hard cap fires regardless of the cost model.
	st.sinceSnap = 10
	st.opts.SnapshotEvery = 10
	if !st.ShouldSnapshot() {
		t.Error("SnapshotEvery cap did not fire")
	}
	// An empty log never snapshots.
	st.sinceSnap = 0
	if st.ShouldSnapshot() {
		t.Error("snapshot of an unchanged state")
	}
}
