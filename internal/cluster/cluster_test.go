package cluster

import (
	"slices"
	"testing"

	"probqos/internal/units"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestFailAndRecovery(t *testing.T) {
	c := New(4)
	if !c.IsUp(0, 0) {
		t.Fatal("fresh node should be up")
	}
	c.Fail(0, 100, 120)
	tests := []struct {
		name string
		at   int64
		want bool
	}{
		{name: "during outage", at: 100, want: false},
		{name: "just before recovery", at: 219, want: false},
		{name: "at recovery instant", at: 220, want: true},
		{name: "after recovery", at: 500, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.IsUp(0, units.Time(tt.at)); got != tt.want {
				t.Errorf("IsUp(0, %d) = %v, want %v", tt.at, got, tt.want)
			}
		})
	}
	if got := c.UpAt(0, 150); got != 220 {
		t.Errorf("UpAt(0, 150) = %v, want 220", got)
	}
	if got := c.UpAt(0, 300); got != 300 {
		t.Errorf("UpAt(0, 300) = %v, want 300", got)
	}
	if got := c.RecoverTime(0); got != 220 {
		t.Errorf("RecoverTime = %v, want 220", got)
	}
}

func TestOverlappingFailuresExtendOutage(t *testing.T) {
	c := New(2)
	c.Fail(0, 100, 120) // down until 220
	c.Fail(0, 150, 120) // down until 270
	if got := c.RecoverTime(0); got != 270 {
		t.Errorf("RecoverTime = %v, want 270", got)
	}
	// A shorter earlier outage must not shrink a longer one.
	c.Fail(0, 160, 10)
	if got := c.RecoverTime(0); got != 270 {
		t.Errorf("RecoverTime after short failure = %v, want 270", got)
	}
}

func TestOccupyRelease(t *testing.T) {
	c := New(4)
	if err := c.Occupy([]int{0, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if got := c.Occupant(0); got != 7 {
		t.Errorf("Occupant(0) = %d, want 7", got)
	}
	if got := c.Occupant(1); got != NoJob {
		t.Errorf("Occupant(1) = %d, want free", got)
	}
	if err := c.Occupy([]int{2, 3}, 8); err == nil {
		t.Error("expected double-booking error")
	}
	// The failed Occupy must not have partially claimed node 3.
	if got := c.Occupant(3); got != NoJob {
		t.Errorf("Occupant(3) = %d after failed Occupy, want free", got)
	}
	if err := c.Release([]int{0, 2}, 9); err == nil {
		t.Error("expected wrong-owner release error")
	}
	if err := c.Release([]int{0, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if got := c.Occupant(0); got != NoJob {
		t.Errorf("Occupant(0) after release = %d", got)
	}
}

func TestOccupyRejectsNoJobID(t *testing.T) {
	c := New(2)
	if err := c.Occupy([]int{0}, NoJob); err == nil {
		t.Error("expected error for reserved job ID")
	}
}

// TestFreeNodes checks which nodes are free — up and unoccupied — while a
// job holds one node and another is down, and after the outage ends.
func TestFreeNodes(t *testing.T) {
	c := New(4)
	if err := c.Occupy([]int{1}, 5); err != nil {
		t.Fatal(err)
	}
	c.Fail(3, 0, 120)
	free := func(at units.Time) []int {
		var out []int
		for n := 0; n < 4; n++ {
			if c.Occupant(n) == NoJob && c.IsUp(n, at) {
				out = append(out, n)
			}
		}
		return out
	}
	if got, want := free(50), []int{0, 2}; !slices.Equal(got, want) {
		t.Errorf("free at 50 = %v, want %v", got, want)
	}
	if got, want := free(200), []int{0, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("free after recovery = %v, want %v", got, want)
	}
}
