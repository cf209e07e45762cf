package metrics

import (
	"fmt"

	"probqos/internal/sim"
	"probqos/internal/stats"
	"probqos/internal/units"
)

// The promise ledger: the one answer to "are the quoted promises kept?".
// Every successful admit files the quoted success probability and
// deadline; every clock advance settles the promises the engine has driven
// to a terminal state. From the settled rows the ledger maintains
// streaming conformance statistics — promise-keeping rate, Brier score,
// and reliability-diagram buckets on the stats.BinIndex rule — exposed on
// qosd's /metrics and /qos/conformance. Offline runs settle through the
// same ledger (LedgerOf), and ConformanceStats.Worst is the single honesty
// check every reader applies to its bins.
//
// The ledger lives entirely on the virtual clock: it is deterministic
// state, owned by the service's machine (and by the scenario runner), and
// has no persistent form of its own. A recovered daemon rebuilds it by
// replaying the operations that built it, so it reports exactly the
// conformance record it would have had without the restart — sums
// accumulated in the same order included.

// Outcome is the terminal disposition of one promise.
type Outcome string

// Promise outcomes. A promise is pending until its job completes on time
// (kept) or its deadline passes unmet (broken).
const (
	OutcomePending Outcome = "pending"
	OutcomeKept    Outcome = "kept"
	OutcomeBroken  Outcome = "broken"
)

// Promise is one ledger row: a quoted probability bound to a deadline and,
// eventually, an outcome. Times are virtual.
type Promise struct {
	JobID      int        `json:"job_id"`
	SessionID  string     `json:"session_id,omitempty"`
	Promised   float64    `json:"promised"`
	Deadline   units.Time `json:"deadline"`
	AdmittedAt units.Time `json:"admitted_at"`
	Outcome    Outcome    `json:"outcome"`
	SettledAt  units.Time `json:"settled_at,omitempty"`
}

// ConformanceBin is one reliability-diagram bucket of settled promises.
type ConformanceBin struct {
	// Lo and Hi bound the promised-probability bin [Lo, Hi), or [Lo, Hi]
	// for the top bin (Hi = 1), which stats.BinIndex closes.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Settled is the number of settled promises in the bin.
	Settled int `json:"settled"`
	// PromisedMean is the mean quoted probability of those promises.
	PromisedMean float64 `json:"promised_mean"`
	// Observed is the fraction of those promises that were kept. Honesty
	// is Observed >= PromisedMean in every populated bin.
	Observed float64 `json:"observed"`
}

// Label renders the bin's interval, "[0.5,0.6)" or, for the top bin,
// "[0.9,1.0]".
func (b ConformanceBin) Label() string {
	closing := ')'
	if b.Hi >= 1 {
		closing = ']'
	}
	return fmt.Sprintf("[%.1f,%.1f%c", b.Lo, b.Hi, closing)
}

// ConformanceStats is the ledger's streaming summary.
type ConformanceStats struct {
	Promises int `json:"promises"`
	Open     int `json:"open"`
	Settled  int `json:"settled"`
	Kept     int `json:"kept"`
	Broken   int `json:"broken"`
	// KeepingRate is kept/settled (0 before the first settlement).
	KeepingRate float64 `json:"keeping_rate"`
	// Brier is the mean squared error of the quoted probabilities against
	// the 0/1 outcomes: lower is better-calibrated, 0.25 is coin-flip bad.
	Brier float64          `json:"brier_score"`
	Bins  []ConformanceBin `json:"bins"`
}

// Worst returns the populated bin whose observed keeping rate falls
// furthest below its mean promise, and that shortfall (PromisedMean -
// Observed). Ties go to the first such bin. When every populated bin
// over-delivers the shortfall is 0 and the bin is the zero value: an
// honest diagram. It is the single-number honesty check.
func (st ConformanceStats) Worst() (ConformanceBin, float64) {
	var worst ConformanceBin
	var short float64
	for _, b := range st.Bins {
		if b.Settled == 0 {
			continue
		}
		if s := b.PromisedMean - b.Observed; s > short {
			worst, short = b, s
		}
	}
	return worst, short
}

// Ledger tracks promises from admission to settlement. It is not safe for
// concurrent use; qosd drives it from the state-machine goroutine.
type Ledger struct {
	bins    int
	entries []Promise
	index   map[int]int // job ID -> entries index
	open    []int       // entries indices of pending promises, admit order

	kept, broken int
	brierSum     float64
	binSettled   []int
	binKept      []int
	binPromised  []float64
}

// DefaultBins is the reliability diagram's usual resolution.
const DefaultBins = 10

// NewLedger returns an empty ledger with the given number of
// reliability-diagram bins (0 means DefaultBins).
func NewLedger(bins int) *Ledger {
	if bins <= 0 {
		bins = DefaultBins
	}
	return &Ledger{
		bins:        bins,
		index:       make(map[int]int),
		binSettled:  make([]int, bins),
		binKept:     make([]int, bins),
		binPromised: make([]float64, bins),
	}
}

// Admit files a new promise. Re-admitting a job ID is ignored: the engine
// rejects duplicate admits, so a second call is a replay artifact, not a
// new promise.
func (l *Ledger) Admit(jobID int, sessionID string, promised float64, deadline, now units.Time) {
	if _, dup := l.index[jobID]; dup {
		return
	}
	l.index[jobID] = len(l.entries)
	l.entries = append(l.entries, Promise{
		JobID:      jobID,
		SessionID:  sessionID,
		Promised:   promised,
		Deadline:   deadline,
		AdmittedAt: now,
		Outcome:    OutcomePending,
	})
	l.open = append(l.open, len(l.entries)-1)
}

// Settle settles every open promise whose job reached a terminal state in
// eng, at eng's clock. JobCompleted is a kept promise; any other terminal
// state — JobMissed is sticky from the instant the deadline passes unmet —
// is a broken one. The engine already knows every outcome; the ledger only
// records them.
func (l *Ledger) Settle(eng *sim.Engine) {
	l.settleBy(eng.Now(), func(jobID int) (kept, terminal bool) {
		st, ok := eng.Job(jobID)
		if !ok {
			return false, false
		}
		return st.State == sim.JobCompleted, st.State.Terminal()
	})
}

// LedgerOf files and settles every row of a finished run, in workload-log
// order: a promise is kept when its job met its deadline, and settles at
// the job's finish. Filing in log order sums each bin's promises in the
// order the run recorded them. A row whose job ID repeats an earlier one
// is ignored, as Admit ignores it. A nil result gives an empty ledger.
func LedgerOf(res *sim.Result, bins int) *Ledger {
	l := NewLedger(bins)
	if res == nil {
		return l
	}
	for _, j := range res.Jobs {
		// Every earlier row is already settled, so the open list holds at
		// most this row, and nothing when Admit ignored a repeated ID.
		l.Admit(j.ID, "", j.Promised, j.Deadline, j.Arrival)
		l.settleBy(j.Finish, func(int) (kept, terminal bool) { return j.MetDeadline, true })
	}
	return l
}

// settleBy scans the open promises in admit order and asks judge for each
// job's disposition; terminal ones are settled at the given virtual
// instant.
func (l *Ledger) settleBy(now units.Time, judge func(jobID int) (kept, terminal bool)) {
	still := l.open[:0]
	for _, idx := range l.open {
		kept, terminal := judge(l.entries[idx].JobID)
		if !terminal {
			still = append(still, idx)
			continue
		}
		l.settle(idx, kept, now)
	}
	l.open = still
}

// settle finalizes one pending entry and folds it into the streaming
// statistics.
func (l *Ledger) settle(idx int, kept bool, now units.Time) {
	e := &l.entries[idx]
	e.SettledAt = now
	outcome := 0.0
	if kept {
		e.Outcome = OutcomeKept
		l.kept++
		outcome = 1.0
	} else {
		e.Outcome = OutcomeBroken
		l.broken++
	}
	diff := e.Promised - outcome
	l.brierSum += diff * diff
	b := stats.BinIndex(e.Promised, l.bins)
	l.binSettled[b]++
	if kept {
		l.binKept[b]++
	}
	l.binPromised[b] += e.Promised
}

// Open returns the number of pending promises: Stats().Open without
// building the reliability bins.
func (l *Ledger) Open() int { return len(l.open) }

// Stats summarizes the ledger.
func (l *Ledger) Stats() ConformanceStats {
	settled := l.kept + l.broken
	st := ConformanceStats{
		Promises: len(l.entries),
		Open:     len(l.open),
		Settled:  settled,
		Kept:     l.kept,
		Broken:   l.broken,
		Bins:     make([]ConformanceBin, l.bins),
	}
	if settled > 0 {
		st.KeepingRate = float64(l.kept) / float64(settled)
		st.Brier = l.brierSum / float64(settled)
	}
	for i := range st.Bins {
		b := &st.Bins[i]
		b.Lo = float64(i) / float64(l.bins)
		b.Hi = float64(i+1) / float64(l.bins)
		b.Settled = l.binSettled[i]
		if n := l.binSettled[i]; n > 0 {
			b.PromisedMean = l.binPromised[i] / float64(n)
			b.Observed = float64(l.binKept[i]) / float64(n)
		}
	}
	return st
}

// Entries returns a copy of the most recent tail promises in admit order
// (tail <= 0 means all).
func (l *Ledger) Entries(tail int) []Promise {
	n := len(l.entries)
	if tail > 0 && tail < n {
		n = tail
	}
	out := make([]Promise, n)
	copy(out, l.entries[len(l.entries)-n:])
	return out
}

// Lookup returns the ledger row for one job.
func (l *Ledger) Lookup(jobID int) (Promise, bool) {
	idx, ok := l.index[jobID]
	if !ok {
		return Promise{}, false
	}
	return l.entries[idx], true
}
