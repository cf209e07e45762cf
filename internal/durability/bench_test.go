package durability

import (
	"os"
	"testing"

	"probqos/internal/negotiate"
	"probqos/internal/sched"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// benchOp is a daemon-sized journal entry: an admit carrying its job and
// the accepted quote, shaped like the records qosd snapshots.
type benchOp struct {
	Kind   string           `json:"kind"`
	Job    *workload.Job    `json:"job,omitempty"`
	Quote  *negotiate.Quote `json:"quote,omitempty"`
	Offers int              `json:"offers,omitempty"`
	Node   int              `json:"node"`
}

// BenchmarkCompact times one snapshot of a daemon-sized state, a journal
// of 2000 admits (about 0.5 MiB encoded), on a filesystem that skips
// fsync, so the number is the encoding and writing, not the disk.
func BenchmarkCompact(b *testing.B) {
	const ops = 2000
	st := struct {
		Ops []benchOp `json:"ops"`
	}{Ops: make([]benchOp, ops)}
	for i := range st.Ops {
		now := units.Time(i * 600)
		nodes := make([]int, 8)
		for k := range nodes {
			nodes[k] = (i*8 + k) % 128
		}
		st.Ops[i] = benchOp{
			Kind: "admit",
			Job:  &workload.Job{ID: i + 1, Arrival: now, Nodes: 8, Exec: 3600},
			Quote: &negotiate.Quote{
				Candidate: sched.Candidate{Start: now + 60, Nodes: nodes, PFail: 0.0123456789},
				Deadline:  now + 3960,
				Success:   0.9876543211,
			},
			Offers: 1,
		}
	}
	store, _, _, err := Open(noSyncFS{}, b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := store.Compact(st, "cfg")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
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
