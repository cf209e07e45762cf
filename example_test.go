package probqos_test

import (
	"fmt"

	"probqos"
)

// ExampleRun replays a tiny deterministic workload against a single known
// failure and reports the paper's metrics.
func ExampleRun() {
	jobs := &probqos.JobLog{Name: "demo", Jobs: []probqos.Job{
		{ID: 1, Arrival: 0, Nodes: 4, Exec: 600},
		{ID: 2, Arrival: 30, Nodes: 8, Exec: 1200},
	}}
	trace, _ := probqos.NewFailureTrace(128, []probqos.FailureEvent{
		{Time: 100000, Node: 5, Detectability: 0.5},
	})
	cfg := probqos.NewSimConfig(jobs, trace)
	cfg.Accuracy = 1
	cfg.UserRisk = 0.9
	res, _ := probqos.Run(cfg)
	r := probqos.Metrics(res)
	fmt.Printf("jobs %d, QoS %.2f, lost %d node-s\n", len(res.Jobs), r.QoS, int64(r.LostWork))
	// Output: jobs 2, QoS 1.00, lost 0 node-s
}

// ExampleSystem_Quotes shows the negotiation ladder: the same job quoted
// before and after a predicted failure.
func ExampleSystem_Quotes() {
	var events []probqos.FailureEvent
	for n := 0; n < 8; n++ {
		events = append(events, probqos.FailureEvent{Time: 1800, Node: n, Detectability: 0.4})
	}
	trace, _ := probqos.NewFailureTrace(8, events)
	cfg := probqos.NewSimConfig(nil, trace)
	cfg.Nodes, cfg.Accuracy = 8, 1.0
	system, _ := probqos.NewSystem(cfg)
	for i, q := range system.Quotes(8, 3600, 2) {
		fmt.Printf("offer %d: deadline %d, p=%.2f\n", i+1, int64(q.Deadline), q.Success)
	}
	// Output:
	// offer 1: deadline 3600, p=0.60
	// offer 2: deadline 5521, p=1.00
}

// ExampleUser_Accepts demonstrates Equation 3: a user with risk strategy U
// accepts the earliest offer promising at least U.
func ExampleUser_Accepts() {
	user, _ := probqos.NewUser(0.75)
	fmt.Println(user.Accepts(0.6), user.Accepts(0.75), user.Accepts(0.9))
	// Output: false true true
}

// ExampleNewTracePredictor shows the deterministic §4.3 predictor: a
// failure is visible iff its detectability is at most the accuracy, and
// the reported probability is the detectability itself.
func ExampleNewTracePredictor() {
	trace, _ := probqos.NewFailureTrace(4, []probqos.FailureEvent{
		{Time: 500, Node: 2, Detectability: 0.3},
	})
	strong, _ := probqos.NewTracePredictor(trace, 0.7)
	weak, _ := probqos.NewTracePredictor(trace, 0.2)
	fmt.Printf("a=0.7: %.1f  a=0.2: %.1f\n",
		strong.PFail([]int{2}, 0, 1000), weak.PFail([]int{2}, 0, 1000))
	// Output: a=0.7: 0.3  a=0.2: 0.0
}
