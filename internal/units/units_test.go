package units

import (
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tests := []struct {
		name string
		base Time
		d    Duration
		want Time
	}{
		{name: "add zero", base: 100, d: 0, want: 100},
		{name: "add positive", base: 100, d: 50, want: 150},
		{name: "add negative", base: 100, d: -30, want: 70},
		{name: "add hour", base: 0, d: Hour, want: 3600},
		{name: "add day", base: 0, d: Day, want: 86400},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.base.Add(tt.d); got != tt.want {
				t.Errorf("Add: got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(150).Sub(100); got != 50 {
		t.Errorf("Sub: got %d, want 50", got)
	}
	if got := Time(100).Sub(150); got != -50 {
		t.Errorf("Sub: got %d, want -50", got)
	}
}

func TestTimeOrdering(t *testing.T) {
	if !Time(3).After(2) {
		t.Error("3 should be after 2")
	}
	if got := Time(5).Min(3); got != 3 {
		t.Errorf("Min: got %d, want 3", got)
	}
	if got := Time(5).Max(3); got != 5 {
		t.Errorf("Max: got %d, want 5", got)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		give Time
		want string
	}{
		{give: 0, want: "d0+00:00:00"},
		{give: Time(Day + Hour + Minute + 1), want: "d1+01:01:01"},
		{give: -1, want: "-d0+00:00:01"},
		{give: Forever, want: "forever"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.give), got, tt.want)
		}
	}
}

func TestWorkFor(t *testing.T) {
	tests := []struct {
		name  string
		nodes int
		d     Duration
		want  Work
	}{
		{name: "zero nodes", nodes: 0, d: 100, want: 0},
		{name: "simple", nodes: 4, d: 100, want: 400},
		{name: "negative duration clamps", nodes: 4, d: -100, want: 0},
		{name: "one node one hour", nodes: 1, d: Hour, want: 3600},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := WorkFor(tt.nodes, tt.d); got != tt.want {
				t.Errorf("WorkFor(%d, %d) = %d, want %d", tt.nodes, tt.d, got, tt.want)
			}
		})
	}
}

func TestDurationConversions(t *testing.T) {
	if got := Hour.Seconds(); got != 3600 {
		t.Errorf("Hour.Seconds() = %v, want 3600", got)
	}
	if got := (90 * Minute).Hours(); got != 1.5 {
		t.Errorf("(90m).Hours() = %v, want 1.5", got)
	}
	if got := Duration(5).String(); got != "5s" {
		t.Errorf("Duration(5).String() = %q", got)
	}
	if got := Work(7).String(); got != "7node-s" {
		t.Errorf("Work(7).String() = %q", got)
	}
	if got := Work(7).NodeSeconds(); got != 7 {
		t.Errorf("Work(7).NodeSeconds() = %v", got)
	}
}

func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(base int32, delta int32) bool {
		tm := Time(base)
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mn, mx := x.Min(y), x.Max(y)
		return mn <= mx && (mn == x || mn == y) && (mx == x || mx == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
