package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts with
// the neighbours' load: on a 2-vCPU VM the same Figure-1 run took 25 ms per
// point and, repeated a minute later, 19.5 ms, with no steal time showing
// and thread CPU time moving with wall time. A run cannot outlast such a
// drift, so every run also times a fixed reference kernel, which is the
// benchmark's own code and shares nothing with probqos, next to its
// rounds. End-to-end timings are reported at reference speed: scaled by
// refNominalMs over the kernel's median time in the run. A change to
// probqos moves them as much as it moves the raw timings, because it does
// not change the kernel; a slower host moves the kernel and the rounds
// together and cancels out.

// refNominalMs is the reference kernel's time at reference speed.
const refNominalMs = 40.0

// refKernelLen is how many values the reference kernel sorts.
const refKernelLen = 1 << 17

// refKernel runs the reference kernel once and returns a checksum of its
// result. It sorts pseudo-random floats and folds half of them into a hash
// map: the same mix of branchy compute, allocation and cache misses as a
// simulation's queues and maps. Its work never depends on anything but
// its constants.
func refKernel() uint64 {
	xs := make([]float64, refKernelLen)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(xs)
	m := make(map[uint64]uint64, 1024)
	for i := range refKernelLen / 2 {
		m[uint64(xs[i]*1e9)%(1<<20)] += uint64(i)
	}
	var sum uint64
	for k, v := range m {
		sum += k ^ v
	}
	return sum
}

// hostSpeed collects the reference kernel's times over a run.
type hostSpeed struct{ kernelMs samples }

// measure runs the kernel on procs goroutines at once, as many as the
// workload keeps busy, so the kernel meets the same contention between
// processors as the rounds do, and records each one's time.
func (h *hostSpeed) measure(procs int) {
	times := make([]float64, procs)
	var wg sync.WaitGroup
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			refKernel()
			times[p] = ms(time.Since(t0))
		}()
	}
	wg.Wait()
	h.kernelMs = append(h.kernelMs, times...)
}

// scale is the factor that turns a time measured in this run into one at
// reference speed.
func (h *hostSpeed) scale() float64 { return refNominalMs / h.kernelMs.median() }
