package negotiate

import (
	"math"
	"testing"
	"testing/quick"

	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/sched"
	"probqos/internal/units"
)

func newScheduler(t *testing.T, a float64, events ...failure.Event) *sched.Scheduler {
	t.Helper()
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predict.NewTrace(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	return sched.New(8, p, true, 0)
}

func TestNewUserValidation(t *testing.T) {
	for _, u := range []float64{-0.1, 1.01, math.NaN()} {
		if _, err := NewUser(u); err == nil {
			t.Errorf("expected error for U=%v", u)
		}
	}
	u, err := NewUser(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Accepts(0.5) {
		t.Error("Equation 3 is inclusive: p_j >= U")
	}
	if u.Accepts(0.49) {
		t.Error("promise below U must be rejected")
	}
}

func TestNegotiateFirstQuoteOnCleanCluster(t *testing.T) {
	s := newScheduler(t, 1)
	n := New(s)
	q, offers, err := n.Negotiate(100, 4, 500, User{U: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if offers != 1 {
		t.Errorf("offers = %d, want 1", offers)
	}
	if q.Candidate.Start != 100 || q.Deadline != 600 || q.Success != 1 {
		t.Errorf("quote = %+v", q)
	}
}

func TestNegotiateExtendsDeadlinePastPredictedFailure(t *testing.T) {
	// All 8 nodes have detectable failures in the immediate window, so a
	// demanding user forces a later slot.
	var events []failure.Event
	for node := 0; node < 8; node++ {
		events = append(events, failure.Event{Time: 250, Node: node, Detectability: 0.5})
	}
	s := newScheduler(t, 1, events...)
	n := New(s)

	easy, offers, err := n.Negotiate(0, 8, 500, User{U: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if offers != 1 || easy.Candidate.Start != 0 {
		t.Errorf("U=0.1 should take the first quote: %+v after %d offers", easy, offers)
	}
	if easy.Success != 0.5 {
		t.Errorf("promised success = %v, want 0.5", easy.Success)
	}

	strict, offers, err := n.Negotiate(0, 8, 500, User{U: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if offers < 2 {
		t.Errorf("U=0.9 accepted after %d offers, expected a renegotiation", offers)
	}
	if strict.Candidate.Start <= 250-500 {
		t.Errorf("strict start = %v, should clear the failure at t=250", strict.Candidate.Start)
	}
	if strict.Success < 0.9 {
		t.Errorf("accepted success %v < U", strict.Success)
	}
	if strict.Deadline <= easy.Deadline {
		t.Error("higher U must mean a later (relaxed) deadline here")
	}
}

func TestNegotiateLaterDeadlineHigherSuccessMonotonicity(t *testing.T) {
	// The market structure of §3.5: successive quotes never promise less.
	var events []failure.Event
	for node := 0; node < 8; node++ {
		events = append(events, failure.Event{Time: 300, Node: node, Detectability: 0.7})
	}
	s := newScheduler(t, 1, events...)
	n := New(s)
	quotes := n.Quotes(0, 8, 600, 5)
	if len(quotes) < 2 {
		t.Fatalf("expected several quotes, got %d", len(quotes))
	}
	for i := 1; i < len(quotes); i++ {
		if quotes[i].Deadline < quotes[i-1].Deadline {
			t.Errorf("quote %d deadline %v earlier than previous %v", i, quotes[i].Deadline, quotes[i-1].Deadline)
		}
	}
	last := quotes[len(quotes)-1]
	if last.Success <= quotes[0].Success {
		t.Errorf("relaxing the deadline should raise the promise: first %v, last %v",
			quotes[0].Success, last.Success)
	}
}

func TestNegotiateExponentialDeferral(t *testing.T) {
	// A failure storm across every node that outlasts the located-failure
	// budget (one step a day): the negotiator must defer past the storm.
	const days = maxQuotes + 72
	var events []failure.Event
	for day := 0; day < days; day++ {
		for node := 0; node < 8; node++ {
			events = append(events, failure.Event{
				Time: units.Time(int64(day) * int64(units.Day)), Node: node, Detectability: 0.3,
			})
		}
	}
	s := newScheduler(t, 1, events...)
	n := New(s)
	q, offered, err := n.Negotiate(0, 8, units.Duration(2*units.Day), User{U: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if offered <= maxQuotes {
		t.Errorf("%d quotes offered; the walk never reached exponential deferral", offered)
	}
	if q.Success < 0.95 {
		t.Errorf("deferred quote promises %v < U", q.Success)
	}
	if q.Candidate.Start < units.Time((days-1)*int64(units.Day)) {
		t.Errorf("start %v does not clear the %d-day storm", q.Candidate.Start, days)
	}
}

func TestNegotiateInvalidRequest(t *testing.T) {
	s := newScheduler(t, 1)
	n := New(s)
	if _, _, err := n.Negotiate(0, 100, 500, User{U: 0}); err == nil {
		t.Error("expected error for oversized job")
	}
}

func TestInsensitivityWhenAccuracyBelowThreshold(t *testing.T) {
	// The predictor caps pf at a, so for U <= 1-a every first quote is
	// accepted and U does not matter (§4.2 discussion / Figure 7).
	var events []failure.Event
	for node := 0; node < 8; node++ {
		events = append(events, failure.Event{Time: 100, Node: node, Detectability: 0.45})
	}
	s := newScheduler(t, 0.5, events...)
	n := New(s)
	for _, u := range []float64{0, 0.2, 0.5} {
		_, offers, err := n.Negotiate(0, 8, 400, User{U: u})
		if err != nil {
			t.Fatal(err)
		}
		if offers != 1 {
			t.Errorf("U=%v: offers = %d, want 1 (insensitive regime)", u, offers)
		}
	}
	// Above the threshold the cap no longer protects the first quote.
	_, offers, err := n.Negotiate(0, 8, 400, User{U: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if offers < 2 {
		t.Errorf("U=0.8: offers = %d, want renegotiation", offers)
	}
}

func TestAcceptedPromiseAlwaysMeetsUProperty(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Nodes: 8, Episodes: 60, Span: 30 * units.Day, Seed: 5}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, uRaw uint8, size uint8, durRaw uint16) bool {
		a := float64(aRaw%11) / 10
		u := float64(uRaw%11) / 10
		p, err := predict.NewTrace(tr, a)
		if err != nil {
			return false
		}
		s := sched.New(8, p, true, 0)
		n := New(s)
		sz := int(size)%8 + 1
		dur := units.Duration(durRaw)/4 + 1
		q, _, err := n.Negotiate(0, sz, dur, User{U: u})
		if err != nil {
			return false
		}
		return q.Success >= u && q.Success == 1-q.Candidate.PFail
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFailureSlackOption(t *testing.T) {
	// A failure 60 s before the scheduler-offered start: without slack the
	// quote ignores it; with the scheduler's quote slack, the negotiator
	// steps past it by the same slack for a strict user and the quoted
	// window clears the restart.
	events := []failure.Event{{Time: 940, Node: 0, Detectability: 0.5}}
	tr, err := failure.NewTrace(1, events)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predict.NewTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(1, p, true, 120)
	n := New(s)
	q, _, err := n.Negotiate(1000, 1, 500, User{U: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if q.Candidate.Start < 940+120+1 {
		t.Errorf("start = %v, want past failure+slack", q.Candidate.Start)
	}
	if q.Success != 1 {
		t.Errorf("success = %v", q.Success)
	}
}

// nonLocating hides its predictor's Locator: only the Predictor methods
// are promoted from the embedded interface.
type nonLocating struct{ predict.Predictor }

func TestWalkWithoutLocatorFallsBackToDeferral(t *testing.T) {
	// No locator: after the first risky quote the walk must still converge
	// via exponential deferral.
	var events []failure.Event
	for n := 0; n < 8; n++ {
		events = append(events, failure.Event{Time: 250, Node: n, Detectability: 0.5})
	}
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predict.NewTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := New(sched.New(8, nonLocating{p}, true, 0))
	q, offers, err := n.Negotiate(0, 8, 500, User{U: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if offers < 2 || q.Success < 0.9 {
		t.Errorf("quote = %+v after %d offers", q, offers)
	}
	if q.Candidate.Start < units.Time(units.Day) {
		t.Errorf("deferral start = %v, want at least one day jump", q.Candidate.Start)
	}
}
