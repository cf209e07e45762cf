package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"probqos/internal/durability"
	"probqos/internal/journal"
	"probqos/internal/negotiate"
	"probqos/internal/obs"
	"probqos/internal/sim"
	"probqos/internal/units"
)

// Crash safety for qosd. Every state-mutating operation — clock advances,
// session opens and takes, admits, fault injections — is journaled to a
// write-ahead log (internal/durability) before it is applied, so that on
// restart the service reconstructs its exact state by replaying, through
// the same apply code the live request path uses, first the operations a
// snapshot holds and then the log records written after it. A WAL write
// failure flips the service into degraded mode: reads and quotes keep
// working, mutations answer 503, and each request probes whether the log
// has healed.
//
// Two deliberate relaxations, both promise-safe:
//
//   - Session records are journaled just after Book.Open rather than
//     before. Losing one in a crash costs a client a 404 on accept —
//     "renegotiate", which the protocol already demands after any expiry
//     — never a broken promise. Admits, which do create promises, are
//     journaled strictly before they are applied.
//   - Replay tolerates admit and fault rejections: they are deterministic
//     (the live request saw the identical error and answered 409/400), so
//     the record is a faithful re-enactment, not corruption.

// errDegraded is returned for mutations while the write-ahead log is
// unavailable. Reads and quotes still work; admits must wait.
var errDegraded = errors.New("service: degraded, write-ahead log unavailable; retry later")

// Service-side WAL operation kinds, beside the engine ops of journal.Op:
// the session book's changes and the clean-shutdown marker.
const (
	opSession = "session"
	opTake    = "take"
	opDrain   = "drain"
)

// machine is the replayable core of qosd: the journal machine (engine,
// job-ID counter, promise ledger, journal) plus the session book. Live
// requests and recovery mutate it through the same apply code, so recovery
// is the normal code path re-run, not a parallel implementation that can
// drift — including the conformance record, which a restart must not be
// able to launder.
type machine struct {
	*journal.Machine
	book *negotiate.Book
}

func newMachine(cfg Config) (machine, error) {
	m, err := journal.New(sim.Config{
		Failures:      cfg.Failures,
		Nodes:         cfg.Nodes,
		Accuracy:      cfg.Accuracy,
		Checkpoint:    cfg.Checkpoint,
		Downtime:      cfg.Downtime,
		Policy:        cfg.Policy,
		DeadlineSkip:  cfg.DeadlineSkip,
		FaultAware:    cfg.FaultAware,
		BaseRateFloor: cfg.BaseRateFloor,
	})
	if err != nil {
		return machine{}, err
	}
	book, err := negotiate.NewBook(cfg.SessionTTL)
	if err != nil {
		return machine{}, err
	}
	return machine{Machine: m, book: book}, nil
}

// advance applies a clock advance and sweeps the sessions it lapsed. raw,
// here and in admit, is the op's WAL record payload; nil without a data
// dir.
func (m *machine) advance(to units.Time, raw []byte) error {
	if err := m.Apply(journal.Op{Kind: journal.Advance, To: to}, raw); err != nil {
		return err
	}
	m.book.Sweep(m.Engine().Now())
	return nil
}

// admit consumes the op's session, if one still stands, and applies the
// admit.
func (m *machine) admit(op journal.Op, raw []byte) error {
	if op.SessionID != "" {
		m.book.Take(op.SessionID, m.Engine().Now())
	}
	return m.Apply(op, raw)
}

// replay applies one journaled operation from its record bytes. Admit and
// fault rejections are deterministic re-enactments of what the live
// request saw, so they are benign; an advance failure is an engine
// invariant violation and fatal.
func (m *machine) replay(raw []byte) error {
	var op journal.Op
	if err := json.Unmarshal(raw, &op); err != nil {
		return fmt.Errorf("undecodable payload: %w", err)
	}
	switch op.Kind {
	case journal.Advance:
		return m.advance(op.To, raw)
	case journal.Admit:
		if op.Job == nil || op.Quote == nil {
			return fmt.Errorf("service: admit record without job or quote")
		}
		m.admit(op, raw)
	case journal.Fault:
		m.Apply(op, raw)
	case opSession:
		if op.Session == nil {
			return fmt.Errorf("service: session record without a session")
		}
		m.book.Insert(op.Session)
	case opTake:
		m.book.Take(op.SessionID, m.Engine().Now())
	case opDrain:
		// Clean-shutdown marker; state unchanged.
	default:
		return fmt.Errorf("service: unknown wal op kind %q", op.Kind)
	}
	return nil
}

// persistedState is what a snapshot's State field holds: the machine
// journal and the open sessions. Recovery replays Ops through replay, then
// imports Book, then replays the WAL tail. Ops stay raw, so the journal
// keeps each op's bytes as they were written.
type persistedState struct {
	Ops  []json.RawMessage   `json:"ops"`
	Book negotiate.BookState `json:"book"`
	// Clean marks a shutdown snapshot: the WAL was drained and truncated
	// before exit, so a boot that finds it with an empty log was preceded
	// by a graceful stop, not a crash.
	Clean bool `json:"clean"`
}

// The fixed bytes of a persistedState around its journal and book.
var (
	stateOpsNull  = []byte(`{"ops":null,"book":`)
	stateOpsOpen  = []byte(`{"ops":[`)
	stateOpsClose = []byte(`],"book":`)
	stateClean    = []byte(`,"clean":true}`)
	stateUnclean  = []byte(`,"clean":false}`)
)

// stateParts appends to dst the parts of the snapshot state, encoded as a
// persistedState is: the journal chunks themselves, not copies (the
// snapshot is written before the machine applies anything else), around
// book, the encoded session book. An empty journal encodes as null, as a
// nil slice does.
func (m *machine) stateParts(dst [][]byte, book []byte, clean bool) [][]byte {
	if ops := m.Journal(); len(ops) == 0 {
		dst = append(dst, stateOpsNull)
	} else {
		dst = append(dst, stateOpsOpen)
		dst = append(dst, ops...)
		dst = append(dst, stateOpsClose)
	}
	dst = append(dst, book)
	if clean {
		return append(dst, stateClean)
	}
	return append(dst, stateUnclean)
}

// RecoveryInfo summarizes what startup found in the data directory.
type RecoveryInfo struct {
	// Enabled is false when the service runs without a data dir.
	Enabled bool `json:"enabled"`
	// SnapshotLoaded reports whether a snapshot was restored.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// RecordsReplayed counts WAL records applied on top of the snapshot.
	RecordsReplayed int `json:"records_replayed"`
	// Clean reports a graceful prior shutdown (shutdown snapshot present,
	// nothing to replay).
	Clean bool `json:"clean"`
}

// RecoveryInfo reports what this instance recovered at startup. Fixed
// before the state machine starts, so safe to read from any goroutine.
func (s *Service) RecoveryInfo() RecoveryInfo { return s.info }

// configDigest fingerprints every configuration input that determines
// replay: the cluster, the failure trace, and the policies. Recovery
// refuses a data dir written under a different fingerprint, since
// replaying its journal here would silently diverge. The leading tag names
// the snapshot state's layout, so a data dir written in an older layout is
// refused the same way instead of being misread.
func configDigest(cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "v2|nodes=%d|a=%g|ckpt=%d/%d|down=%d|policy=%s|skip=%t|fa=%t|floor=%t|ttl=%d|",
		cfg.Nodes, cfg.Accuracy, cfg.Checkpoint.Interval, cfg.Checkpoint.Overhead,
		cfg.Downtime, cfg.Policy.Name(), cfg.DeadlineSkip, cfg.FaultAware,
		cfg.BaseRateFloor, cfg.SessionTTL)
	fmt.Fprintf(h, "trace=%d:%d|", cfg.Failures.Nodes(), cfg.Failures.Len())
	for _, ev := range cfg.Failures.Events() {
		fmt.Fprintf(h, "%d,%d,%g;", ev.Time, ev.Node, ev.Detectability)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// fsyncBounds bucket WAL append latency from 50µs to ~0.8s.
var fsyncBounds = []float64{0.00005, 0.0002, 0.0008, 0.0032, 0.0128, 0.0512, 0.2048, 0.8192}

// snapshotBounds bucket snapshot write latency from 1ms to ~4s.
var snapshotBounds = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096}

// recoverState opens the data dir, replays the snapshot's journal and
// imports its sessions, replays the WAL tail, both through machine.replay,
// and leaves the store ready for appends. Called from
// New before the state machine starts, so it owns all state unlocked.
func (s *Service) recoverState() error {
	store, snap, recs, err := durability.Open(s.cfg.FS, s.cfg.DataDir, durability.Options{
		SnapshotEvery: s.cfg.SnapshotEvery,
		Hazard:        s.cfg.CrashHazard,
		// Appends run on the state-machine goroutine (or in Close, after it
		// exited), so the cached histogram needs no lock.
		OnSync: func(d time.Duration) {
			if s.fsyncHist == nil {
				s.fsyncHist = s.reg.Histogram("qosd_wal_fsync_seconds",
					"WAL append latency (write + fsync)", fsyncBounds, nil)
			}
			s.fsyncHist.Observe(d.Seconds())
		},
		OnSnapshot: func(bytes int, d time.Duration) {
			s.reg.Gauge("qosd_snapshot_last_bytes",
				"size of the most recent snapshot file", nil).Set(float64(bytes))
			s.reg.Histogram("qosd_snapshot_seconds",
				"durable snapshot write latency", snapshotBounds, nil).Observe(d.Seconds())
		},
	})
	if err != nil {
		return err
	}
	clean, snapOps := false, 0
	begin := time.Now()
	if snap != nil {
		if snap.Config != s.digest {
			store.Close()
			return fmt.Errorf("service: data dir %q was written under config %s, this instance is %s: refusing to replay",
				s.cfg.DataDir, snap.Config, s.digest)
		}
		var ps persistedState
		if err := json.Unmarshal(snap.State, &ps); err != nil {
			store.Close()
			return fmt.Errorf("service: decode snapshot state: %w", err)
		}
		for i, raw := range ps.Ops {
			if err := s.replay(raw); err != nil {
				store.Close()
				return fmt.Errorf("service: replay snapshot op %d: %w", i, err)
			}
		}
		snapOps = len(ps.Ops)
		if err := s.book.Import(ps.Book); err != nil {
			store.Close()
			return fmt.Errorf("service: restore session book: %w", err)
		}
		clean = ps.Clean
	}
	for _, rec := range recs {
		// The frame checksum passed, so an undecodable or unappliable
		// payload is not a torn tail to skip: it is corruption (or a
		// version skew) that silently dropping would turn into divergence.
		if err := s.replay(rec.Payload); err != nil {
			store.Close()
			return fmt.Errorf("service: replay wal record lsn %d: %w", rec.LSN, err)
		}
	}
	replayDur := time.Since(begin)
	// The replay covered the snapshot's ops as well as the WAL tail, so
	// the per-record cost divides by both.
	store.SetReplayCost(replayDur, snapOps+len(recs))
	s.reg.Gauge("qosd_wal_replay_seconds",
		"time spent restoring the snapshot and replaying the WAL at boot", nil).
		Set(replayDur.Seconds())
	s.store = store
	s.info = RecoveryInfo{
		Enabled:         true,
		SnapshotLoaded:  snap != nil,
		RecordsReplayed: len(recs),
		Clean:           clean && len(recs) == 0,
	}
	kind := "crash"
	switch {
	case s.info.Clean:
		kind = "clean"
	case snap == nil && len(recs) == 0:
		kind = "fresh"
	}
	s.reg.Counter("qosd_recoveries_total", "startups by what the data dir held",
		obs.Labels{"kind": kind}).Inc()
	s.reg.Counter("qosd_wal_replayed_records_total", "WAL records replayed at startup", nil).
		Add(float64(len(recs)))
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(0)
	if len(recs) > 0 {
		// Fold the replayed tail into a fresh snapshot so the next boot
		// starts from here instead of replaying it again.
		if err := s.compact(false); err != nil {
			store.Close()
			s.store = nil
			return fmt.Errorf("service: post-recovery snapshot: %w", err)
		}
	}
	return nil
}

// logOp journals op ahead of applying it and returns the record's payload,
// the bytes the machine keeps in its journal. They are valid
// until the next encode. A write failure flips the service into degraded
// mode and means the operation must not happen. Runs on the state-machine
// goroutine. Without a data dir it is a no-op and returns no bytes.
func (s *Service) logOp(op journal.Op) ([]byte, error) {
	if s.store == nil {
		return nil, nil
	}
	if s.degraded != nil {
		return nil, errDegraded
	}
	// Encoding from a field of s, not a local, keeps op off the heap.
	s.encOp = op
	payload, err := s.encode(&s.encOp)
	if err != nil {
		s.broken = fmt.Errorf("service: encode wal op: %w", err)
		return nil, s.broken
	}
	sp := s.curScope.Start("wal.append")
	if sp.Recording() {
		sp.Annotate("op", op.Kind)
		sp.Annotate("bytes", strconv.Itoa(len(payload)))
	}
	_, aerr := s.store.Append(payload)
	sp.End()
	if aerr != nil {
		s.setDegraded(aerr)
		return nil, fmt.Errorf("%w: %v", errDegraded, aerr)
	}
	s.loopCounter(&s.walRecords, "qosd_wal_records_total", "WAL records committed").Inc()
	return payload, nil
}

// encode JSON-encodes v into the service's encode buffer and returns the
// bytes, equal to json.Marshal(v), valid until the next encode. Runs on
// the state-machine goroutine.
func (s *Service) encode(v any) ([]byte, error) {
	s.encBuf.Reset()
	if err := s.enc.Encode(v); err != nil {
		return nil, err
	}
	// Encode ends the value with a newline that json.Marshal does not.
	return bytes.TrimSuffix(s.encBuf.Bytes(), []byte{'\n'}), nil
}

func (s *Service) setDegraded(cause error) {
	s.degraded = cause
	s.degradedMsg.Store(cause.Error())
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(1)
}

func (s *Service) clearDegraded() {
	s.degraded = nil
	s.degradedMsg.Store("")
	s.reg.Gauge("qosd_degraded", "1 while the write-ahead log is unavailable", nil).Set(0)
}

// probeHeal, called at each request tick while degraded, asks the store
// to repair the log (truncate to the last record boundary and verify an
// fsync goes through). Success restores normal service; the next failed
// append re-degrades.
func (s *Service) probeHeal() {
	if s.store == nil || s.degraded == nil {
		return
	}
	if err := s.store.Heal(); err == nil {
		s.clearDegraded()
	}
}

// maybeCompact snapshots when the risk rule says the accumulated WAL
// replay debt outweighs a snapshot. Called at the start of a request
// tick, when every journaled record is fully applied.
func (s *Service) maybeCompact() {
	if s.store == nil || s.degraded != nil || s.broken != nil {
		return
	}
	if !s.store.ShouldSnapshot() {
		return
	}
	if err := s.compact(false); err != nil {
		// A disk that cannot write snapshots is failing; stop trusting it
		// with new promises until it heals.
		s.setDegraded(err)
	}
}

// compact snapshots the machine: the journal's bytes as they are and the
// session book, the one part encoded here, before any file is touched.
func (s *Service) compact(clean bool) error {
	sp := s.curScope.Start("snapshot")
	defer sp.End()
	book, err := s.encode(s.book.Export())
	if err != nil {
		return fmt.Errorf("service: encode session book: %w", err)
	}
	s.snapParts = s.machine.stateParts(s.snapParts[:0], book, clean)
	n, err := s.store.Compact(s.snapParts, s.digest)
	if err != nil {
		return err
	}
	if sp.Recording() {
		sp.Annotate("bytes", strconv.Itoa(n))
	}
	s.reg.Counter("qosd_snapshots_total", "state snapshots written", nil).Inc()
	return nil
}
