package durability

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// encodeRecords is the inverse of DecodeRecords, so tests and the fuzz
// target can assert the round trip is exact.
func encodeRecords(recs []Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r.LSN, r.Payload)
	}
	return buf
}

func openTestWAL(t *testing.T, fsys FS, dir string) *Store {
	t.Helper()
	st, snap, recs, err := Open(fsys, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh dir recovered snap=%v records=%d", snap, len(recs))
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestWAL(t, OSFS{}, dir)
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte(`{"kind":"advance","to":3600}`), bytes.Repeat([]byte("x"), 4096)}
	for i, p := range payloads {
		lsn, err := st.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, want)
		}
	}
	st.Close()

	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := DecodeRecords(data)
	if valid != int64(len(data)) {
		t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
	}
	if len(recs) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d: lsn %d payload %q", i, r.LSN, r.Payload)
		}
	}
	// The encoder and decoder must agree byte for byte.
	if !bytes.Equal(encodeRecords(recs), data) {
		t.Error("re-encoding decoded records does not reproduce the file")
	}
}

func TestDecodeStopsAtTornTail(t *testing.T) {
	full := AppendFrame(nil, 1, []byte("first"))
	full = AppendFrame(full, 2, []byte("second"))
	whole := len(full)
	for cut := 0; cut <= whole; cut++ {
		recs, valid := DecodeRecords(full[:cut])
		if valid > int64(cut) {
			t.Fatalf("cut %d: valid %d beyond input", cut, valid)
		}
		// The valid prefix must end exactly on a record boundary.
		re, revalid := DecodeRecords(full[:valid])
		if revalid != valid || len(re) != len(recs) {
			t.Fatalf("cut %d: prefix %d not self-delimiting", cut, valid)
		}
	}
	// Cutting inside the second record must still yield the first whole.
	recs, valid := DecodeRecords(full[:whole-3])
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("torn tail: got %d records, valid %d", len(recs), valid)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base := AppendFrame(nil, 1, []byte("keep"))
	good := len(base)
	tail := AppendFrame(nil, 2, []byte("flip me"))

	t.Run("flipped crc byte", func(t *testing.T) {
		data := append(append([]byte(nil), base...), tail...)
		data[good+4] ^= 0xff
		recs, valid := DecodeRecords(data)
		if len(recs) != 1 || valid != int64(good) {
			t.Fatalf("got %d records, valid %d, want 1 / %d", len(recs), valid, good)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		data := append(append([]byte(nil), base...), tail...)
		data[len(data)-1] ^= 0x01
		recs, valid := DecodeRecords(data)
		if len(recs) != 1 || valid != int64(good) {
			t.Fatalf("got %d records, valid %d", len(recs), valid)
		}
	})
	t.Run("zero length frame", func(t *testing.T) {
		data := append(append([]byte(nil), base...), make([]byte, 16)...)
		recs, valid := DecodeRecords(data)
		if len(recs) != 1 || valid != int64(good) {
			t.Fatalf("got %d records, valid %d", len(recs), valid)
		}
	})
	t.Run("giant length frame", func(t *testing.T) {
		huge := make([]byte, 16)
		binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
		data := append(append([]byte(nil), base...), huge...)
		recs, valid := DecodeRecords(data)
		if len(recs) != 1 || valid != int64(good) {
			t.Fatalf("got %d records, valid %d", len(recs), valid)
		}
	})
	t.Run("non-monotonic lsn", func(t *testing.T) {
		data := append(append([]byte(nil), base...), AppendFrame(nil, 1, []byte("dup"))...)
		recs, valid := DecodeRecords(data)
		if len(recs) != 1 || valid != int64(good) {
			t.Fatalf("got %d records, valid %d", len(recs), valid)
		}
	})
}

func TestReopenTruncatesTornTailAndContinues(t *testing.T) {
	dir := t.TempDir()
	st := openTestWAL(t, OSFS{}, dir)
	if _, err := st.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Crash mid-append: partial third record on disk.
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendFrame(nil, 3, []byte("three"))
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, snap, recs, err := Open(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap != nil {
		t.Fatal("unexpected snapshot")
	}
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("recovered %d records", len(recs))
	}
	// The torn tail must be gone and the next append must take LSN 3.
	lsn, err := st2.Append([]byte("three again"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("append after recovery: lsn %d, want 3", lsn)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, valid := DecodeRecords(data)
	if valid != int64(len(data)) || len(got) != 3 {
		t.Fatalf("after recovery append: %d records, valid %d of %d", len(got), valid, len(data))
	}
}

func TestFailedAppendHealsToRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	st := openTestWAL(t, ffs, dir)
	if _, err := st.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}

	// A short write tears the next record; the append must fail without
	// consuming its LSN.
	ffs.SetWriteBudget(5)
	if _, err := st.Append([]byte("torn record payload")); err == nil {
		t.Fatal("append through a short write succeeded")
	}
	ffs.Clear()

	lsn, err := st.Append([]byte("after heal"))
	if err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("lsn %d after failed append, want 2", lsn)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := DecodeRecords(data)
	if valid != int64(len(data)) || len(recs) != 2 {
		t.Fatalf("healed log has %d records, valid %d of %d", len(recs), valid, len(data))
	}
	if string(recs[1].Payload) != "after heal" {
		t.Fatalf("second record %q", recs[1].Payload)
	}
}

func TestFsyncFailureFailsAppendUntilHealed(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	st := openTestWAL(t, ffs, dir)

	ffs.FailSync(true)
	if _, err := st.Append([]byte("unsynced")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if err := st.Heal(); err == nil {
		t.Fatal("heal with failing fsync succeeded")
	}
	ffs.Clear()
	if err := st.Heal(); err != nil {
		t.Fatalf("heal after clearing fault: %v", err)
	}
	lsn, err := st.Append([]byte("recovered"))
	if err != nil || lsn != 1 {
		t.Fatalf("append after heal: lsn %d err %v", lsn, err)
	}
}
