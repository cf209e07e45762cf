// Package cluster models the machine: a fixed set of homogeneous nodes that
// fail independently, stay down for a fixed restart time, and are occupied
// by at most one job at a time (no co-scheduling, per §3.3).
package cluster

import (
	"fmt"
	"slices"

	"probqos/internal/units"
)

// NoJob is the occupant value of a free node. Occupants are the caller's
// job keys (the simulator's job-table slots), so any non-negative value is
// a job.
const NoJob = -1

// Cluster tracks node up/down state and job occupancy. It is driven by the
// simulator: failures mark nodes down for the configured downtime, job
// starts occupy nodes, job completions and failures release them.
type Cluster struct {
	downUntil []units.Time // node is down while now < downUntil[i]
	occupant  []int        // job occupying each node, NoJob if free
}

// New creates a cluster of n homogeneous, initially idle, up nodes.
func New(n int) *Cluster {
	c := new(Cluster)
	c.Reset(n)
	return c
}

// Reset makes c a cluster of n idle, up nodes, as New(n) would, reusing
// its arrays where they are large enough.
func (c *Cluster) Reset(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: need a positive node count, got %d", n))
	}
	c.downUntil = slices.Grow(c.downUntil[:0], n)[:n]
	c.occupant = slices.Grow(c.occupant[:0], n)[:n]
	clear(c.downUntil)
	for i := range c.occupant {
		c.occupant[i] = NoJob
	}
}

// Fail marks the node down from at until at+downtime. If the node is
// already down past that point, the longer outage wins.
func (c *Cluster) Fail(node int, at units.Time, downtime units.Duration) {
	until := at.Add(downtime)
	if until > c.downUntil[node] {
		c.downUntil[node] = until
	}
}

// IsUp reports whether the node is up at the given instant. A node is up
// again exactly at its recovery instant.
func (c *Cluster) IsUp(node int, at units.Time) bool {
	return at >= c.downUntil[node]
}

// UpAt returns the earliest instant >= at at which the node is up.
func (c *Cluster) UpAt(node int, at units.Time) units.Time {
	return at.Max(c.downUntil[node])
}

// RecoverTime returns the instant the node's current outage ends (zero if
// the node was never failed).
func (c *Cluster) RecoverTime(node int) units.Time { return c.downUntil[node] }

// Occupant returns the job occupying the node, or NoJob.
func (c *Cluster) Occupant(node int) int { return c.occupant[node] }

// Occupy assigns the nodes to a job. It returns an error if job is negative
// or any node is already occupied — that would mean the scheduler
// double-booked, which is a bug worth surfacing loudly rather than
// mis-accounting silently.
func (c *Cluster) Occupy(nodes []int, job int) error {
	if job < 0 {
		return fmt.Errorf("cluster: job %d is negative; %d marks free nodes", job, NoJob)
	}
	for _, n := range nodes {
		if c.occupant[n] != NoJob {
			return fmt.Errorf("cluster: node %d already occupied by job %d (placing job %d)",
				n, c.occupant[n], job)
		}
	}
	for _, n := range nodes {
		c.occupant[n] = job
	}
	return nil
}

// Release frees the nodes held by the job. It returns an error if any of
// the nodes is not held by that job.
func (c *Cluster) Release(nodes []int, job int) error {
	for _, n := range nodes {
		if c.occupant[n] != job {
			return fmt.Errorf("cluster: node %d occupied by job %d, not %d", n, c.occupant[n], job)
		}
	}
	for _, n := range nodes {
		c.occupant[n] = NoJob
	}
	return nil
}
