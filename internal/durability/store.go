package durability

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"probqos/internal/checkpoint"
	"probqos/internal/units"
)

// notExist reports whether err means the file is simply absent, which on a
// fresh data dir is the normal case, not a failure.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// Options tunes a Store.
type Options struct {
	// SnapshotEvery is the hard cap on WAL records between snapshots; the
	// risk rule below may compact sooner. Zero means the default of 1024.
	SnapshotEvery int
	// Hazard is pf in the compaction rule: the assumed probability that
	// the daemon crashes while one more record sits unsnapshotted. Zero
	// means the default of 0.01.
	Hazard float64
	// OnSync, when set, observes the latency of each WAL append (write +
	// fsync). The service wires it to a histogram.
	OnSync func(d time.Duration)
	// OnSnapshot, when set, observes each completed snapshot: the size of
	// the snapshot file and how long the durable write took. The service
	// wires it to the snapshot gauges.
	OnSnapshot func(bytes int, d time.Duration)
}

const (
	defaultSnapshotEvery = 1024
	defaultHazard        = 0.01
	// Cost priors until measured: replaying one record and writing one
	// snapshot. Recovery and compaction replace them with measurements.
	defaultReplayCost = 50 * time.Microsecond
	defaultSnapCost   = 5 * time.Millisecond
)

// Store owns one data directory: a snapshot plus the write-ahead log of
// records since it. It is not safe for concurrent use; the service drives
// it from its single state-machine goroutine.
type Store struct {
	fs   FS
	dir  string
	opts Options
	w    *wal

	lastLSN   uint64 // last appended (or recovered) record
	sinceSnap int    // records appended since the last snapshot

	replayCost time.Duration // measured cost of replaying one record
	snapCost   time.Duration // measured cost of writing one snapshot

	snapHead []byte // the snapshot file up to its state, reused across compactions
}

// Open prepares dir for service: it loads the current snapshot (if any),
// decodes the WAL records not yet folded into it, truncates any torn
// tail, and returns the store ready for appends. The caller restores the
// snapshot state, applies the returned records in order, and should then
// Compact so the next recovery starts from a fresh snapshot.
func Open(fsys FS, dir string, opts Options) (*Store, *Snapshot, []Record, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.Hazard <= 0 {
		opts.Hazard = defaultHazard
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("durability: mkdir %s: %w", dir, err)
	}
	snap, haveSnap, err := loadSnapshot(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	walPath := filepath.Join(dir, walName)
	data, err := fsys.ReadFile(walPath)
	if err != nil && !notExist(err) {
		return nil, nil, nil, fmt.Errorf("durability: read wal: %w", err)
	}
	recs, valid := DecodeRecords(data)

	// Records already folded into the snapshot are skipped: a crash
	// between snapshot rename and WAL truncation leaves them behind, and
	// replaying them twice would double-apply.
	nextLSN := uint64(1)
	if haveSnap {
		nextLSN = snap.LSN + 1
		fresh := recs[:0:0]
		for _, r := range recs {
			if r.LSN > snap.LSN {
				fresh = append(fresh, r)
			}
		}
		recs = fresh
	}
	if n := len(recs); n > 0 {
		nextLSN = recs[n-1].LSN + 1
	}

	w, err := openWAL(fsys, walPath, valid, nextLSN)
	if err != nil {
		return nil, nil, nil, err
	}
	st := &Store{
		fs: fsys, dir: dir, opts: opts, w: w,
		lastLSN:    nextLSN - 1,
		sinceSnap:  len(recs),
		replayCost: defaultReplayCost,
		snapCost:   defaultSnapCost,
	}
	if !haveSnap {
		snap = nil
	}
	return st, snap, recs, nil
}

// Append commits one record to the log (write + fsync) and returns its
// LSN. On error nothing is committed and the log is healed back to the
// last record boundary (or will be on the next attempt); the caller should
// treat the store as degraded until an Append or Heal succeeds.
func (st *Store) Append(payload []byte) (uint64, error) {
	//qoslint:allow detwallclock fsync-latency observation for obs; never feeds replayed state
	begin := time.Now()
	lsn, _, err := st.w.append(payload)
	if err != nil {
		return 0, err
	}
	if st.opts.OnSync != nil {
		//qoslint:allow detwallclock fsync-latency observation for obs; never feeds replayed state
		st.opts.OnSync(time.Since(begin))
	}
	st.lastLSN = lsn
	st.sinceSnap++
	return lsn, nil
}

// Heal attempts to repair the log after a failed append: it truncates back
// to the last good record boundary and verifies the file syncs. A nil
// return means appends can be retried.
func (st *Store) Heal() error {
	if err := st.w.heal(); err != nil {
		return err
	}
	if err := st.w.f.Sync(); err != nil {
		return fmt.Errorf("durability: heal fsync: %w", err)
	}
	return nil
}

// ShouldSnapshot applies the paper's risk-based skip rule (Equation 1,
// checkpoint.RiskBased) to the control plane itself: compact when the
// expected replay work a crash would cost, pf·d·I — d records at I replay
// cost each, weighted by the crash hazard pf — reaches the snapshot cost
// C. The SnapshotEvery cap bounds replay regardless of the cost model.
func (st *Store) ShouldSnapshot() bool {
	if st.sinceSnap == 0 {
		return false
	}
	if st.sinceSnap >= st.opts.SnapshotEvery {
		return true
	}
	// The rule is scale-free, so microseconds make fine integer "seconds"
	// for the checkpoint types; both costs are kept at least 1µs so the
	// parameters stay valid.
	p := checkpoint.Params{
		Interval: maxDuration(units.Duration(st.replayCost.Microseconds()), 1),
		Overhead: maxDuration(units.Duration(st.snapCost.Microseconds()), 1),
	}
	return checkpoint.RiskBased{}.ShouldCheckpoint(checkpoint.Request{
		PFail:           st.opts.Hazard,
		Params:          p,
		AtRiskIntervals: st.sinceSnap,
	})
}

func maxDuration(d, floor units.Duration) units.Duration {
	if d < floor {
		return floor
	}
	return d
}

// Compact durably writes a snapshot of state at the current log position
// and truncates the WAL, returning the size of the snapshot file. state is
// the owner's state, already encoded: its parts are written one after
// another inside the envelope, unscanned, so their concatenation must be
// one compact JSON value, and it comes back as Snapshot.State. The write
// is atomic (temp file + rename); the truncation is safe to lose, since
// recovery skips records at or below the snapshot's LSN.
func (st *Store) Compact(state [][]byte, config string) (int, error) {
	//qoslint:allow detwallclock snapshot-cost observation for obs; never feeds replayed state
	begin := time.Now()
	st.snapHead = appendSnapshotHead(st.snapHead[:0], st.lastLSN, config)
	n, err := writeSnapshot(st.fs, st.dir, st.snapHead, state)
	if err != nil {
		return 0, err
	}
	//qoslint:allow detwallclock snapshot-cost observation for obs; never feeds replayed state
	st.snapCost = time.Since(begin)
	if st.opts.OnSnapshot != nil {
		st.opts.OnSnapshot(n, st.snapCost)
	}
	if err := st.w.reset(); err != nil {
		return 0, err
	}
	st.sinceSnap = 0
	return n, nil
}

// SetReplayCost records the measured cost of replaying records, refining
// the compaction rule's I term. Recovery calls it with the observed replay
// duration and record count.
func (st *Store) SetReplayCost(total time.Duration, records int) {
	if records > 0 && total > 0 {
		st.replayCost = total / time.Duration(records)
	}
}

// RecordsSinceSnapshot returns how many committed records the next
// recovery would replay.
func (st *Store) RecordsSinceSnapshot() int { return st.sinceSnap }

// Close releases the WAL file handle. It does not compact; callers wanting
// a clean shutdown snapshot do that first.
func (st *Store) Close() error { return st.w.close() }
