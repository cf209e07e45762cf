package durability

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReplayWAL drives the WAL record decoder — the exact code the qosd
// recovery path trusts with arbitrary on-disk bytes — and asserts its
// contract: never panic, never read past the input, stop cleanly at the
// first corrupt record, and keep the valid prefix exactly re-encodable.
func FuzzReplayWAL(f *testing.F) {
	// Seed corpus: the interesting shapes by construction. Mirrored as
	// committed files under testdata/fuzz/FuzzReplayWAL.
	valid := AppendFrame(nil, 1, []byte(`{"kind":"advance","to":3600}`))
	valid = AppendFrame(valid, 2, []byte(`{"kind":"fault","node":3,"at":7200}`))
	f.Add(valid)

	torn := AppendFrame(nil, 1, []byte("first"))
	torn = append(torn, AppendFrame(nil, 2, []byte("second"))[:9]...)
	f.Add(torn)

	flipped := AppendFrame(nil, 1, []byte("checksummed"))
	flipped[5] ^= 0xff
	f.Add(flipped)

	f.Add(make([]byte, 16)) // zero-length frame

	giant := make([]byte, 32)
	binary.LittleEndian.PutUint32(giant[0:4], 0xffffffff)
	f.Add(giant)

	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := DecodeRecords(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		// The valid prefix is canonical: re-encoding the decoded records
		// reproduces it byte for byte, so replay-after-truncate sees the
		// same operations this decode did.
		if re := encodeRecords(recs); !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encoded prefix differs: %d bytes vs %d", len(re), valid)
		}
		// Decoding must stop at the first corrupt record: decoding the
		// valid prefix again yields the same records and consumes it all.
		again, revalid := DecodeRecords(data[:valid])
		if revalid != valid || len(again) != len(recs) {
			t.Fatalf("prefix not stable: %d/%d records, %d/%d bytes",
				len(again), len(recs), revalid, valid)
		}
		var last uint64
		for i, r := range recs {
			if i > 0 && r.LSN <= last {
				t.Fatalf("LSN %d after %d not strictly increasing", r.LSN, last)
			}
			last = r.LSN
		}
	})
}
