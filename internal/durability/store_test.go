package durability

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	if _, err := st.Compact([][]byte{[]byte(`{"ops":`), []byte(`5}`)}, "cfg-1"); err != nil {
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
	if _, err := st.Compact([][]byte{[]byte(`{"ops":4}`)}, "cfg"); err == nil {
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
	if _, err := st.Compact([][]byte{[]byte(`{"new":true}`)}, "cfg"); err == nil {
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

// TestCompactMatchesTwoPassEncoding pins the snapshot writer to the bytes
// of marshalling the envelope with the state as raw JSON: the state's
// parts are written as they are, one after another, even when a part ends
// mid-token, and the config string is escaped as Marshal escapes it. It
// also checks the returned size and that the state loads back as the
// parts' concatenation.
func TestCompactMatchesTwoPassEncoding(t *testing.T) {
	type inner struct {
		Note string  `json:"note"`
		P    float64 `json:"p"`
	}
	encoded, err := json.Marshal(struct {
		Text string            `json:"text"`
		Ops  []inner           `json:"ops"`
		Tags map[string]string `json:"tags"`
		When time.Duration     `json:"when"`
	}{
		Text: "<b>&amp;</b> \u2028\u2029 \"quoted\"",
		Ops:  []inner{{"a", 0.1}, {"b", 1e-9}, {"c", 1e21}},
		Tags: map[string]string{"z": "1", "a": "2"},
		When: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]byte
	for rest := encoded; len(rest) > 0; {
		n := min(len(rest), 7)
		parts = append(parts, rest[:n], nil)
		rest = rest[n:]
	}
	const config = "cfg <&> \u2028 \"x\""
	dir := t.TempDir()
	var sized int
	st, _, _, err := Open(OSFS{}, dir, Options{OnSnapshot: func(n int, _ time.Duration) { sized = n }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("op-0")); err != nil {
		t.Fatal(err)
	}
	n, err := st.Compact(parts, config)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	want, err := json.Marshal(&Snapshot{Version: SnapshotVersion, LSN: 1, Config: config, State: encoded})
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
	if !bytes.Equal(snap.State, encoded) || snap.Config != config {
		t.Errorf("loaded state %s under config %q, want %s under %q", snap.State, snap.Config, encoded, config)
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
