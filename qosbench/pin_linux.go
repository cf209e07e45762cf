package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of the process to the highest-numbered
// CPU it may run on and returns that CPU. Threads started later inherit the
// binding from the thread that starts them.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return -1, e
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, errors.New("no CPU in the affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// A thread that was not yet bound may start another while the first
	// pass runs, so pass again until no thread is new.
	bound := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || bound[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
				return -1, e
			}
			bound[tid], fresh = true, true
		}
		if !fresh {
			return cpu, nil
		}
	}
}
