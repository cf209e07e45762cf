package metrics

import (
	"math"
	"testing"

	"probqos/internal/units"
)

// settleAll marks every open promise terminal with the given outcomes by
// job ID (absent IDs stay open).
func settleAll(l *Ledger, now units.Time, kept map[int]bool) {
	l.settleBy(now, func(jobID int) (bool, bool) {
		k, terminal := kept[jobID]
		return k, terminal
	})
}

func TestLedgerLifecycle(t *testing.T) {
	l := NewLedger(10)
	l.Admit(1, "q-1", 0.95, 100, 10)
	l.Admit(2, "q-2", 0.72, 200, 20)
	l.Admit(3, "q-3", 0.55, 300, 30)

	st := l.Stats()
	if st.Promises != 3 || st.Open != 3 || st.Settled != 0 {
		t.Fatalf("after admits: %+v", st)
	}
	if l.Open() != st.Open {
		t.Fatalf("Open() = %d, Stats().Open = %d", l.Open(), st.Open)
	}

	settleAll(l, 150, map[int]bool{1: true, 2: false})
	st = l.Stats()
	if st.Settled != 2 || st.Kept != 1 || st.Broken != 1 || st.Open != 1 {
		t.Fatalf("after settle: %+v", st)
	}
	if l.Open() != st.Open {
		t.Fatalf("Open() = %d after settle, Stats().Open = %d", l.Open(), st.Open)
	}
	if st.KeepingRate != 0.5 {
		t.Fatalf("keeping rate %v, want 0.5", st.KeepingRate)
	}
	// Brier by hand: ((0.95-1)^2 + (0.72-0)^2) / 2.
	want := (0.05*0.05 + 0.72*0.72) / 2
	if math.Abs(st.Brier-want) > 1e-12 {
		t.Fatalf("brier %v, want %v", st.Brier, want)
	}

	p, ok := l.Lookup(2)
	if !ok || p.Outcome != OutcomeBroken || p.SettledAt != 150 {
		t.Fatalf("lookup(2): %+v ok=%v", p, ok)
	}
	if p, _ := l.Lookup(3); p.Outcome != OutcomePending {
		t.Fatalf("job 3 should still be pending: %+v", p)
	}
}

func TestLedgerBucketing(t *testing.T) {
	l := NewLedger(10)
	// 0.95 -> bin 9, 0.90 -> bin 9, 1.0 -> closed final bin 9, 0.05 -> bin 0.
	l.Admit(1, "", 0.95, 100, 0)
	l.Admit(2, "", 0.90, 100, 0)
	l.Admit(3, "", 1.0, 100, 0)
	l.Admit(4, "", 0.05, 100, 0)
	settleAll(l, 100, map[int]bool{1: true, 2: false, 3: true, 4: false})

	st := l.Stats()
	top := st.Bins[9]
	if top.Settled != 3 {
		t.Fatalf("top bin holds %d, want 3 (1.0 must land in the closed final bin): %+v", top.Settled, top)
	}
	if math.Abs(top.PromisedMean-(0.95+0.90+1.0)/3) > 1e-12 {
		t.Fatalf("top bin promised mean %v", top.PromisedMean)
	}
	if math.Abs(top.Observed-2.0/3.0) > 1e-12 {
		t.Fatalf("top bin observed %v, want 2/3", top.Observed)
	}
	if st.Bins[0].Settled != 1 || st.Bins[0].Observed != 0 {
		t.Fatalf("bottom bin %+v", st.Bins[0])
	}
}

func TestLedgerDuplicateAdmitIgnored(t *testing.T) {
	l := NewLedger(10)
	l.Admit(1, "q-1", 0.9, 100, 0)
	l.Admit(1, "q-99", 0.1, 999, 5)
	if st := l.Stats(); st.Promises != 1 {
		t.Fatalf("duplicate admit created a row: %+v", st)
	}
	if p, _ := l.Lookup(1); p.SessionID != "q-1" || p.Promised != 0.9 {
		t.Fatalf("duplicate admit overwrote the original: %+v", p)
	}
}

func TestLedgerSettleIsIdempotent(t *testing.T) {
	l := NewLedger(10)
	l.Admit(1, "", 0.8, 100, 0)
	settleAll(l, 50, map[int]bool{1: true})
	// A second sweep sees no open entries; counters must not move.
	settleAll(l, 60, map[int]bool{1: false})
	st := l.Stats()
	if st.Settled != 1 || st.Kept != 1 || st.Broken != 0 {
		t.Fatalf("resettling moved counters: %+v", st)
	}
	if p, _ := l.Lookup(1); p.SettledAt != 50 {
		t.Fatalf("resettling moved the settle instant: %+v", p)
	}
}

func TestLedgerEntriesTail(t *testing.T) {
	l := NewLedger(10)
	for i := 1; i <= 5; i++ {
		l.Admit(i, "", 0.5, 100, 0)
	}
	tail := l.Entries(2)
	if len(tail) != 2 || tail[0].JobID != 4 || tail[1].JobID != 5 {
		t.Fatalf("tail(2): %+v", tail)
	}
	if all := l.Entries(0); len(all) != 5 {
		t.Fatalf("tail(0) returned %d rows, want all 5", len(all))
	}
}

// TestLedgerOpenAllocatesNothing pins the admission-control read: qosd asks
// for the open count on every accept under a limit, so it must not build
// the summary Stats does.
func TestLedgerOpenAllocatesNothing(t *testing.T) {
	l := NewLedger(10)
	l.Admit(1, "q-1", 0.9, 100, 10)
	l.Admit(2, "q-2", 0.8, 200, 20)
	n := 0
	if allocs := testing.AllocsPerRun(100, func() { n = l.Open() }); allocs != 0 {
		t.Errorf("Open allocates %v times per call, want 0", allocs)
	}
	if n != 2 {
		t.Errorf("Open = %d, want 2", n)
	}
}
