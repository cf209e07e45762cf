// Package negotiate implements the deadline negotiation of §3.5 and the
// simulated user model of §4.2: the system quotes (deadline, probability of
// success) pairs for successively later schedulable slots, and a user with
// risk strategy U accepts the earliest quote whose promised success
// probability is at least U (Equation 3).
package negotiate

import (
	"fmt"
	"math"
	"slices"

	"probqos/internal/predict"
	"probqos/internal/sched"
	"probqos/internal/units"
)

// User is the simulated user risk strategy U in [0, 1]. U = 0 accepts any
// quote immediately (deadline is everything); U = 1 demands certainty and
// will push the deadline as far as needed.
type User struct {
	U float64
}

// NewUser validates U.
func NewUser(u float64) (User, error) {
	if u < 0 || u > 1 || math.IsNaN(u) {
		return User{}, fmt.Errorf("negotiate: user parameter %v outside [0,1]", u)
	}
	return User{U: u}, nil
}

// Accepts reports whether the user takes a quote promising the given
// probability of success (Equation 3: p_j >= U).
func (u User) Accepts(promised float64) bool { return promised >= u.U }

// Quote is one offer in the dialog: "this job can be completed by Deadline
// with probability Success".
type Quote struct {
	Candidate sched.Candidate `json:"candidate"`
	// Deadline is the promised completion instant for this slot.
	Deadline units.Time `json:"deadline"`
	// Success is p_j = 1 - pf, the promised probability of success.
	Success float64 `json:"success"`
}

// maxQuotes bounds how many located-failure steps one quote walk takes
// before switching to exponential deferral.
const maxQuotes = 128

// Negotiator runs the system side of the dialog against a scheduler.
type Negotiator struct {
	sched *sched.Scheduler
	// locator is the scheduler's predictor when it locates failures, else
	// nil: the walk then defers exponentially.
	locator predict.Locator
	// slack is the scheduler's quote slack (the node downtime in the
	// simulator). Stepping past a located failure proposes the start
	// failure time + slack + 1, so the restarting node is back up before
	// the job begins, and the next quote's risk window starts past it.
	slack units.Duration
}

// New creates a Negotiator over the scheduler. It asks the scheduler's own
// predictor where failures lie and steps past them by the scheduler's
// quote slack, so the quotes and the walk share one forecast.
func New(s *sched.Scheduler) *Negotiator {
	l, _ := s.Predictor().(predict.Locator)
	return &Negotiator{sched: s, locator: l, slack: s.QuoteSlack()}
}

// walk enumerates quotes for a request, earliest first, until yield returns
// false. Quote k+1 is obtained from quote k by stepping the allowed start
// past the failure that made quote k risky (locator available) or by
// exponentially deferring the start (no locator / budget exhausted). The
// walk ends on its own once a risk-free quote is produced: no later quote
// can promise more.
func (n *Negotiator) walk(now units.Time, size int, duration units.Duration, yield func(Quote) bool) error {
	from := now
	offers := 0
	for offers < maxQuotes {
		c, ok := n.sched.EarliestCandidate(from, size, duration)
		if !ok {
			return fmt.Errorf("negotiate: no schedulable candidate for size %d duration %v", size, duration)
		}
		offers++
		if !yield(Quote{Candidate: c, Deadline: c.Start.Add(duration), Success: 1 - c.PFail}) {
			return nil
		}
		if c.PFail <= 0 {
			return nil // perfect promise; no later quote improves on it
		}
		if n.locator == nil {
			break
		}
		ev, found := n.locator.FirstDetectable(c.Nodes, c.Start.Add(-n.slack), c.Start.Add(duration))
		if !found {
			break // risk came from somewhere the locator cannot see
		}
		next := ev.Time.Add(n.slack + 1)
		if next <= from {
			next = from + 1 // defensive: always make progress
		}
		from = next
	}

	// Exponential deferral: push the earliest allowed start forward in
	// doubling jumps until a quote clears. Passes the end of any finite
	// failure trace, where pf is necessarily 0.
	jump := units.Duration(units.Day)
	for i := 0; i < 64; i++ {
		from = from.Add(jump)
		jump *= 2
		c, ok := n.sched.EarliestCandidate(from, size, duration)
		if !ok {
			return fmt.Errorf("negotiate: no schedulable candidate for size %d duration %v", size, duration)
		}
		if !yield(Quote{Candidate: c, Deadline: c.Start.Add(duration), Success: 1 - c.PFail}) {
			return nil
		}
		if c.PFail <= 0 {
			return nil
		}
	}
	return fmt.Errorf("negotiate: quote walk did not converge for size %d duration %v", size, duration)
}

// Negotiate finds the earliest quote the user accepts for a job of the
// given size and reserved duration, starting no earlier than now. It
// returns the accepted quote and the number of quotes offered (1 means the
// first offer was accepted). The quote's nodes are the scheduler's
// candidate scratch, valid until its next query (see sched.Candidate).
//
// Termination: the trace predictor never reports pf > a, so when U <= 1-a
// the very first quote is accepted; otherwise the walk steps past predicted
// failures and, in the limit, past the end of the failure trace ("a
// deadline may be pushed arbitrarily far into the future, but no further
// than necessary to satisfy Equation 3").
func (n *Negotiator) Negotiate(now units.Time, size int, duration units.Duration, user User) (Quote, int, error) {
	var (
		accepted Quote
		found    bool
		offers   int
	)
	err := n.walk(now, size, duration, func(q Quote) bool {
		offers++
		if user.Accepts(q.Success) {
			accepted, found = q, true
			return false
		}
		return true
	})
	if err != nil {
		return Quote{}, offers, err
	}
	if !found {
		// The walk ended on a risk-free quote, which every valid U accepts;
		// reaching here means the user parameter was out of range.
		return Quote{}, offers, fmt.Errorf("negotiate: user U=%v rejected a risk-free quote", user.U)
	}
	return accepted, offers, nil
}

// Quotes returns up to max successive quotes for a request without
// reserving anything: the raw material of the user dialog, served through
// sim.Engine.Quotes to qosd, the scenario runner, and the public System.
// Each quote owns its node set: callers keep quotes across later queries.
func (n *Negotiator) Quotes(now units.Time, size int, duration units.Duration, max int) []Quote {
	var out []Quote
	// The dialog is informational; ignore walk errors and return what we
	// have.
	_ = n.walk(now, size, duration, func(q Quote) bool {
		q.Candidate.Nodes = slices.Clone(q.Candidate.Nodes)
		out = append(out, q)
		return len(out) < max
	})
	return out
}
