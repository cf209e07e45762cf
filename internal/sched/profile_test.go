package sched

import (
	"slices"
	"testing"
	"testing/quick"

	"probqos/internal/units"
)

// newProfile returns an empty profile of n nodes.
func newProfile(n int) *profile {
	p := new(profile)
	p.reset(n)
	return p
}

func TestProfileInsertAndFreeDuring(t *testing.T) {
	p := newProfile(2)
	p.insert(0, interval{start: 100, end: 200, owner: 1})
	p.insert(0, interval{start: 300, end: 400, owner: 2})
	tests := []struct {
		name     string
		from, to units.Time
		want     bool
	}{
		{name: "before all", from: 0, to: 100, want: true},
		{name: "overlap first start", from: 50, to: 101, want: false},
		{name: "inside first", from: 150, to: 160, want: false},
		{name: "gap exactly", from: 200, to: 300, want: true},
		{name: "spans gap and second", from: 250, to: 350, want: false},
		{name: "after all", from: 400, to: 1000, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.freeDuring(0, tt.from, tt.to); got != tt.want {
				t.Errorf("freeDuring(%v,%v) = %v, want %v", tt.from, tt.to, got, tt.want)
			}
		})
	}
	if !p.freeDuring(1, 0, units.Forever) {
		t.Error("untouched node should be free forever")
	}
}

func TestProfileInsertIgnoresEmptyIntervals(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 100, end: 100, owner: 1})
	p.insert(0, interval{start: 100, end: 50, owner: 1})
	if len(p.nodes[0]) != 0 {
		t.Errorf("empty intervals stored: %+v", p.nodes[0])
	}
}

func TestBusyUntilChains(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 100, end: 200, owner: 1})
	p.insert(0, interval{start: 200, end: 300, owner: 2})
	p.insert(0, interval{start: 150, end: 250, owner: DowntimeOwner})
	tests := []struct {
		at   units.Time
		want units.Time
	}{
		{at: 50, want: 50},   // free now
		{at: 100, want: 300}, // chained through all three
		{at: 250, want: 300}, // inside the last interval
		{at: 300, want: 300}, // free at the boundary
		{at: 1000, want: 1000},
	}
	for _, tt := range tests {
		if got := p.busyUntil(0, tt.at); got != tt.want {
			t.Errorf("busyUntil(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestRemoveAndTruncateOwner(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 100, end: 200, owner: 1})
	p.insert(0, interval{start: 300, end: 400, owner: 2})
	p.removeOwner(0, 1)
	if !p.freeDuring(0, 100, 200) {
		t.Error("owner 1's interval should be gone")
	}
	if p.freeDuring(0, 300, 400) {
		t.Error("owner 2's interval should remain")
	}
	p.truncateOwner(0, 2, 350)
	if !p.freeDuring(0, 350, 1000) {
		t.Error("truncated interval should free [350,400)")
	}
	if p.freeDuring(0, 300, 350) {
		t.Error("truncation must keep [300,350) busy")
	}
	p.truncateOwner(0, 2, 300)
	if !p.freeDuring(0, 0, units.Forever) {
		t.Error("truncating at start should remove the interval")
	}
}

func TestShiftOwner(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 100, end: 200, owner: 7})
	p.shiftOwner(0, 7, 500)
	if p.freeDuring(0, 500, 600) {
		t.Error("shifted interval should occupy [500,600)")
	}
	if !p.freeDuring(0, 100, 200) {
		t.Error("original interval should be vacated")
	}
}

func TestGC(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 0, end: 100, owner: 1})
	p.insert(0, interval{start: 100, end: 300, owner: 2})
	p.gc(100)
	if len(p.nodes[0]) != 1 || p.nodes[0][0].owner != 2 {
		t.Errorf("gc result: %+v", p.nodes[0])
	}
}

func TestCandidateTimes(t *testing.T) {
	p := newProfile(2)
	p.insert(0, interval{start: 100, end: 200, owner: 1})
	p.insert(1, interval{start: 150, end: 250, owner: 2})
	p.insert(1, interval{start: 0, end: 50, owner: 3})
	got := p.appendCandidateTimes(nil, 60)
	want := []units.Time{60, 200, 250}
	if len(got) != len(want) {
		t.Fatalf("candidateTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidateTimes = %v, want %v", got, want)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	p := newProfile(1)
	p.insert(0, interval{start: 100, end: 200, owner: 1})
	p.insert(0, interval{start: 150, end: 250, owner: DowntimeOwner}) // outages may overlap
	if err := p.validate(); err != nil {
		t.Errorf("downtime overlap should be legal: %v", err)
	}
	p.insert(0, interval{start: 150, end: 250, owner: 2})
	if err := p.validate(); err == nil {
		t.Error("overlapping job intervals must fail validation")
	}
}

func TestFreeDuringConsistentWithBusyUntilProperty(t *testing.T) {
	f := func(starts []uint16, at uint16) bool {
		p := newProfile(1)
		for i, s := range starts {
			start := units.Time(s)
			p.insert(0, interval{start: start, end: start.Add(100), owner: i + 1})
		}
		probe := units.Time(at)
		free := p.freeDuring(0, probe, probe+1)
		busyUntil := p.busyUntil(0, probe)
		// freeDuring at an instant must agree with busyUntil.
		return free == (busyUntil == probe)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKthSmallestMatchesSort(t *testing.T) {
	f := func(raw []uint8, pick uint8) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]units.Time, len(raw))
		for i, r := range raw {
			keys[i] = units.Time(r % 16) // many repeats
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		k := 1 + int(pick)%len(keys)
		return kthSmallest(keys, k) == sorted[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
