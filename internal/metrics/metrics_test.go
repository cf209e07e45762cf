package metrics

import (
	"math"
	"testing"

	"probqos/internal/sim"
	"probqos/internal/units"
)

func TestComputeEmpty(t *testing.T) {
	if r := Compute(nil); r.QoS != 0 || r.Utilization != 0 {
		t.Errorf("nil result report = %+v", r)
	}
	if r := Compute(&sim.Result{}); r.QoS != 0 {
		t.Errorf("empty result report = %+v", r)
	}
}

func TestComputeEquationTwo(t *testing.T) {
	// Two jobs of equal work; one meets its deadline with p=0.8, the other
	// misses. QoS = (w*0.8*1 + w*0.9*0) / (2w) = 0.4.
	res := &sim.Result{
		ClusterNodes: 4,
		Jobs: []sim.JobRecord{
			{
				ID: 1, Nodes: 2, Exec: 100, Arrival: 0, LastStart: 0, Finish: 100,
				Deadline: 100, Promised: 0.8, MetDeadline: true,
			},
			{
				ID: 2, Nodes: 2, Exec: 100, Arrival: 0, LastStart: 100, Finish: 200,
				Deadline: 150, Promised: 0.9, MetDeadline: false,
			},
		},
		Start: 0,
		End:   200,
	}
	r := Compute(res)
	if math.Abs(r.QoS-0.4) > 1e-12 {
		t.Errorf("QoS = %v, want 0.4", r.QoS)
	}
	// Utilization: 400 node-s of useful work over 200 s * 4 nodes.
	if math.Abs(r.Utilization-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5", r.Utilization)
	}
	if r.DeadlineMissRate != 0.5 || r.WorkMissRate != 0.5 {
		t.Errorf("miss rates = %v/%v, want 0.5/0.5", r.DeadlineMissRate, r.WorkMissRate)
	}
	if math.Abs(r.MeanPromise-0.85) > 1e-12 {
		t.Errorf("mean promise = %v", r.MeanPromise)
	}
	if r.ObservedSuccess != 0.5 {
		t.Errorf("observed success = %v", r.ObservedSuccess)
	}
	if r.MeanWaitSeconds != 50 {
		t.Errorf("mean wait = %v, want 50", r.MeanWaitSeconds)
	}
}

func TestComputeLostWorkAndFailures(t *testing.T) {
	res := &sim.Result{
		ClusterNodes: 4,
		Jobs: []sim.JobRecord{
			{ID: 1, Nodes: 2, Exec: 100, Finish: 100, MetDeadline: true, Promised: 1},
		},
		Failures: []sim.FailureRecord{
			{Time: 10, Node: 0, JobID: 1, LostWork: 500},
			{Time: 20, Node: 1},
			{Time: 30, Node: 2, JobID: 1, LostWork: 250},
		},
		End: 100,
	}
	r := Compute(res)
	if r.LostWork != 750 {
		t.Errorf("lost work = %v, want 750", r.LostWork)
	}
	if r.JobFailures != 2 {
		t.Errorf("job failures = %d, want 2", r.JobFailures)
	}
}

func TestBoundedSlowdownFloor(t *testing.T) {
	// A 1-second job that waited 9 seconds: slowdown uses the 10 s floor,
	// (9+1)/10 = 1; never below 1.
	res := &sim.Result{
		ClusterNodes: 1,
		Jobs: []sim.JobRecord{
			{ID: 1, Nodes: 1, Exec: 1, Arrival: 0, LastStart: 9, Finish: 10, MetDeadline: true, Promised: 1},
		},
		End: 10,
	}
	r := Compute(res)
	if r.MeanBoundedSlowdown != 1 {
		t.Errorf("bounded slowdown = %v, want 1", r.MeanBoundedSlowdown)
	}
}

func TestQoSBoundsProperty(t *testing.T) {
	// QoS is always within [0, 1] and equals 1 only if every job met its
	// deadline with promise 1.
	res := &sim.Result{
		ClusterNodes: 8,
		Jobs: []sim.JobRecord{
			{ID: 1, Nodes: 3, Exec: 50, Finish: 50, MetDeadline: true, Promised: 1},
			{ID: 2, Nodes: 5, Exec: 70, Finish: 120, MetDeadline: true, Promised: 1},
		},
		End: 120,
	}
	r := Compute(res)
	if r.QoS != 1 {
		t.Errorf("all-met all-certain QoS = %v, want 1", r.QoS)
	}
	res.Jobs[1].Promised = 0.5
	if got := Compute(res).QoS; got >= 1 || got <= 0 {
		t.Errorf("QoS = %v, want in (0,1)", got)
	}
	if overhead := Compute(res).CheckpointOverhead; overhead != 0 {
		t.Errorf("overhead = %v", overhead)
	}
}

func TestSpanUsesArrivalToFinish(t *testing.T) {
	res := &sim.Result{
		ClusterNodes: 1,
		Jobs: []sim.JobRecord{
			{ID: 1, Nodes: 1, Exec: 10, Arrival: 100, LastStart: 100, Finish: 110, MetDeadline: true, Promised: 1},
		},
		Start: 100,
		End:   110,
	}
	if r := Compute(res); r.Span != units.Duration(10) {
		t.Errorf("span = %v, want 10", r.Span)
	}
}

// TestComputeAllocatesNothing pins that the report of a 1000-job run is
// summed without allocating: Compute runs once per point of every sweep.
func TestComputeAllocatesNothing(t *testing.T) {
	res := &sim.Result{ClusterNodes: 128, Jobs: make([]sim.JobRecord, 1000), Failures: make([]sim.FailureRecord, 100)}
	for i := range res.Jobs {
		res.Jobs[i] = sim.JobRecord{
			ID: i + 1, Nodes: 1 + i%64, Exec: units.Duration(60 + i), Arrival: units.Time(i),
			LastStart: units.Time(2 * i), Finish: units.Time(3*i + 60), Promised: 0.9, MetDeadline: i%7 != 0,
		}
	}
	res.End = res.Jobs[len(res.Jobs)-1].Finish
	if allocs := testing.AllocsPerRun(20, func() { Compute(res) }); allocs != 0 {
		t.Errorf("Compute allocates %v times on a 1000-job result, want 0", allocs)
	}
}
