package workload

import (
	"fmt"
	"sort"

	"probqos/internal/units"
)

// The transforms below derive new logs from existing ones without mutating
// the input — the standard toolkit for what-if studies on real archive
// logs (densify the arrivals, combine machine logs).

// ScaleArrivals returns a copy of the log with every arrival time
// multiplied by factor, compressing (factor < 1) or stretching the offered
// load while keeping job shapes intact. Factor must be positive.
func (l *Log) ScaleArrivals(factor float64) (*Log, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: arrival scale factor must be positive, got %v", factor)
	}
	out := &Log{Name: l.Name, Jobs: make([]Job, len(l.Jobs))}
	copy(out.Jobs, l.Jobs)
	for i := range out.Jobs {
		out.Jobs[i].Arrival = units.Time(float64(out.Jobs[i].Arrival) * factor)
	}
	return out, nil
}

// Merge interleaves several logs by arrival time into one log named name,
// renumbering jobs from 1.
func Merge(name string, logs ...*Log) *Log {
	out := &Log{Name: name}
	for _, l := range logs {
		out.Jobs = append(out.Jobs, l.Jobs...)
	}
	sort.SliceStable(out.Jobs, func(i, j int) bool { return out.Jobs[i].Arrival < out.Jobs[j].Arrival })
	for i := range out.Jobs {
		out.Jobs[i].ID = i + 1
	}
	return out
}
