package main

import (
	"fmt"
	"time"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// One run's inputs are many small independent ones, all derived from the
// run's seed: a single SDSC log of a few thousand jobs makes points up to
// 1.8x dearer than another seed's, so a run that measured one log would
// measure its seed rather than the program. Each input is its own SDSC log
// replayed against its own window of the seed's failure trace.

// windowDays is the length of the failure-trace window one input runs
// against: longer than any input's arrivals plus the time its last jobs
// take to settle.
const windowDays = 120

// traceDays is the span of the generated failure trace (failure.RawConfig's
// default of one year).
const traceDays = 365

// subSeed derives the k-th input seed of a run with the splitmix64
// finalizer, so neighbouring run seeds share no inputs.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// window cuts the failure-trace window for the input with seed sub: a
// windowDays slice starting on a day chosen by sub, re-based to time zero.
func window(tr *failure.Trace, sub int64) (*failure.Trace, error) {
	day := units.Time(sub % (traceDays - windowDays))
	from := day * units.Time(units.Day)
	w, err := tr.Slice(from, from+units.Time(windowDays*units.Day))
	if err != nil {
		return nil, fmt.Errorf("trace window at day %d: %w", day, err)
	}
	return w, nil
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	trace, workload, service time.Duration
}

func (s setupTimes) total() time.Duration { return s.trace + s.workload + s.service }

// setupRepeats is how many complete set-ups a run times; setup_s is their
// median.
const setupRepeats = 9

// setupSchedule spreads a run's timed set-ups over its measured time: the
// first before any round, the k-th once the rounds have measured k
// setupRepeats-ths of it, so the set-ups sample the machine over the same
// stretch the rounds do rather than in one burst at the start.
type setupSchedule struct {
	total time.Duration
	done  int
}

// due reports whether another set-up is due after spent measured time,
// counting it as done when it is.
func (s *setupSchedule) due(spent time.Duration) bool {
	if s.done < setupRepeats && spent >= time.Duration(s.done)*s.total/setupRepeats {
		s.done++
		return true
	}
	return false
}

// genTrace builds the seed's failure trace, eagerly: NewTrace sorts and
// indexes every node, so the timing covers all of its cost.
func genTrace(seed int64) (*failure.Trace, time.Duration, error) {
	t0 := time.Now()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: seed}, failure.FilterConfig{})
	if err != nil {
		return nil, 0, fmt.Errorf("failure trace: %w", err)
	}
	return tr, time.Since(t0), nil
}
