// Negotiation: the market-based dialog of §3.5 made visible. The system
// quotes "job j can be completed by deadline d with probability p" offers;
// relaxing the deadline buys a higher probability, and users with different
// risk strategies U accept different offers.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"probqos"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 16-node cluster whose failure trace has a cluster-wide fault
	// episode three hours in: half the nodes see highly detectable
	// failures, half see harder ones.
	var events []probqos.FailureEvent
	for n := 0; n < 16; n++ {
		px := 0.25
		if n%2 == 1 {
			px = 0.85
		}
		events = append(events, probqos.FailureEvent{
			Time:          probqos.Time(3 * probqos.Hour),
			Node:          n,
			Detectability: px,
		})
	}
	trace, err := probqos.NewFailureTrace(16, events)
	if err != nil {
		return err
	}
	cfg := probqos.NewSimConfig(nil, trace) // no log: jobs arrive through the dialog
	cfg.Nodes = 16
	cfg.Accuracy = 0.7
	system, err := probqos.NewSystem(cfg)
	if err != nil {
		return err
	}

	// A full-machine job of four hours must overlap the episode or wait it
	// out. Show the quote ladder the user sees.
	const size = 16
	exec := probqos.Duration(4 * probqos.Hour)
	fmt.Fprintf(w, "job: %d nodes, %d s execution (reserved %d s with checkpoints)\n\n",
		size, exec, system.PlannedDuration(exec))
	fmt.Fprintln(w, "the system's successive offers:")
	ladder := system.Quotes(size, exec, 5)
	for i, q := range ladder {
		fmt.Fprintf(w, "  offer %d: start %-13v deadline %-13v p(success) %.2f\n",
			i+1, q.Candidate.Start, q.Deadline, q.Success)
	}

	// Three users, three strategies: each accepts the earliest offer of the
	// same ladder that meets its bar (Equation 3). Nothing is reserved.
	fmt.Fprintln(w, "\nwhat different users accept:")
	for _, u := range []float64{0.1, 0.6, 0.95} {
		user, err := probqos.NewUser(u)
		if err != nil {
			return err
		}
		q, offer, err := firstAccepted(ladder, user)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  U=%.2f accepts offer %d: deadline %-13v with p=%.2f\n",
			u, offer, q.Deadline, q.Success)
	}
	// The system-initiated form of the dialog (§3.3): suggest the earliest
	// deadline that clears a success bar, citing the improved probability.
	bar, err := probqos.NewUser(0.99)
	if err != nil {
		return err
	}
	suggestion, _, err := firstAccepted(ladder, bar)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsystem suggestion for p >= 0.99: deadline %v (p=%.2f)\n",
		suggestion.Deadline, suggestion.Success)

	fmt.Fprintln(w, "\nrelaxing the deadline buys probability: that is the incentive")
	fmt.Fprintln(w, "structure that keeps both sides honest.")
	return nil
}

// firstAccepted returns the earliest quote of the ladder the user accepts
// and its 1-based offer number.
func firstAccepted(ladder []probqos.Quote, user probqos.User) (probqos.Quote, int, error) {
	for i, q := range ladder {
		if user.Accepts(q.Success) {
			return q, i + 1, nil
		}
	}
	return probqos.Quote{}, 0, fmt.Errorf("U=%.2f accepts none of %d offers", user.U, len(ladder))
}
