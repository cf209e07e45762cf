// Package units defines the primitive quantities shared by every layer of
// the simulator: simulation time, durations, and work (node-seconds).
//
// The simulator runs on an integer-second clock. All timestamps are offsets
// from the start of the simulated trace, so Time zero is "trace start", not
// any wall-clock instant. Using integers keeps event ordering exact and the
// simulation bit-for-bit reproducible across runs and platforms.
package units

import (
	"fmt"
	"strconv"
)

// Time is an instant on the simulation clock, in seconds since trace start.
type Time int64

// Duration is a span of simulation time, in seconds.
type Duration int64

// Work is an amount of computation in node-seconds: occupying n nodes for
// k seconds consumes Work(n*k). This is the unit of the paper's utilization
// and lost-work metrics.
type Work int64

// Common durations.
const (
	Second Duration = 1
	Minute          = 60 * Second
	Hour            = 60 * Minute
	Day             = 24 * Hour
	Week            = 7 * Day
	Year            = 365 * Day
)

// Forever is a sentinel Time later than any event in a simulation.
const Forever Time = 1<<62 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// String renders the instant as a day/hour/minute/second offset, which reads
// better than a raw second count in logs spanning months.
func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	neg := ""
	v := int64(t)
	if v < 0 {
		neg = "-"
		v = -v
	}
	d := v / int64(Day)
	rem := v % int64(Day)
	h := rem / int64(Hour)
	rem %= int64(Hour)
	m := rem / int64(Minute)
	s := rem % int64(Minute)
	return fmt.Sprintf("%sd%d+%02d:%02d:%02d", neg, d, h, m, s)
}

// Seconds returns the duration as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// Hours returns the duration as a float64 hour count.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// String renders the duration in seconds.
func (d Duration) String() string { return strconv.FormatInt(int64(d), 10) + "s" }

// WorkFor returns the work consumed by n nodes over duration d.
func WorkFor(n int, d Duration) Work {
	if d < 0 {
		d = 0
	}
	return Work(int64(n) * int64(d))
}

// NodeSeconds returns the work as a float64 node-second count.
func (w Work) NodeSeconds() float64 { return float64(w) }

// String renders the work in node-seconds.
func (w Work) String() string { return strconv.FormatInt(int64(w), 10) + "node-s" }
