package durability

import (
	"encoding/json"
	"os"
	"testing"

	"probqos/internal/negotiate"
	"probqos/internal/sched"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// benchOp is a daemon-sized journal entry: an admit carrying its job and
// the accepted quote, shaped like the records qosd journals.
type benchOp struct {
	Kind   string           `json:"kind"`
	Job    *workload.Job    `json:"job,omitempty"`
	Quote  *negotiate.Quote `json:"quote,omitempty"`
	Offers int              `json:"offers,omitempty"`
	Node   int              `json:"node"`
}

// benchAdmit returns the encoded admit of job i.
func benchAdmit(b *testing.B, i int) []byte {
	now := units.Time(i * 600)
	nodes := make([]int, 8)
	for k := range nodes {
		nodes[k] = (i*8 + k) % 128
	}
	op, err := json.Marshal(benchOp{
		Kind: "admit",
		Job:  &workload.Job{ID: i + 1, Arrival: now, Nodes: 8, Exec: 3600},
		Quote: &negotiate.Quote{
			Candidate: sched.Candidate{Start: now + 60, Nodes: nodes, PFail: 0.0123456789},
			Deadline:  now + 3960,
			Success:   0.9876543211,
		},
		Offers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// BenchmarkCompact times one snapshot of a daemon-sized state, a journal
// of 2000 admits (about 0.5 MiB), on a filesystem that skips fsync, so the
// number is the writing, not the disk. The state comes pre-encoded, as
// qosd hands it over: the journal's ops, comma-separated in 64 KiB chunks,
// between the state's fixed bytes.
func BenchmarkCompact(b *testing.B) {
	const ops, chunk = 2000, 64 << 10
	parts := [][]byte{[]byte(`{"ops":[`), make([]byte, 0, chunk)}
	for i := 0; i < ops; i++ {
		op := benchAdmit(b, i)
		last := len(parts) - 1
		if i > 0 {
			op = append([]byte{','}, op...)
		}
		if cap(parts[last])-len(parts[last]) < len(op) {
			parts = append(parts, make([]byte, 0, chunk))
			last++
		}
		parts[last] = append(parts[last], op...)
	}
	parts = append(parts, []byte(`]}`))
	store, _, _, err := Open(noSyncFS{}, b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := store.Compact(parts, "cfg")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
	}
}

// BenchmarkWALAppend times one committed WAL record, a daemon-sized
// admit, on a filesystem that skips fsync: the framing and the write. It
// must not allocate. The log is cut back every walResetEvery appends,
// outside the timer, so its file stays small.
func BenchmarkWALAppend(b *testing.B) {
	const walResetEvery = 1 << 14
	payload := benchAdmit(b, 1)
	store, _, _, err := Open(noSyncFS{}, b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%walResetEvery == walResetEvery-1 {
			b.StopTimer()
			if err := store.w.reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := store.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// noSyncFS is OSFS with fsync skipped: files are written, renamed and
// truncated as in production and stop at the page cache.
type noSyncFS struct{ OSFS }

func (f noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }
