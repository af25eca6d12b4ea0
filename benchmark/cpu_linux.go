//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// highest returns the highest CPU in the mask, or -1 if it is empty. CPU 0
// is where a small guest takes most of its interrupts, so the benchmark
// prefers the other end.
func (m *cpuMask) highest() int {
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			return w*64 + bits.Len64(m[w]) - 1
		}
	}
	return -1
}

func oneCPU(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// setAffinity confines every thread of the process to the mask. A thread
// the runtime starts later inherits the mask of the thread that started
// it; the second round catches one started during the first.
func setAffinity(m cpuMask) error {
	for round := 0; round < 2; round++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread ended meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
