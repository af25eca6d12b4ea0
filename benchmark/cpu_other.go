//go:build !linux

package main

import "errors"

// Only Linux lets a process choose its CPUs through the syscall package;
// elsewhere the network workloads run with one P but unpinned, and the
// host block says so.

type cpuMask struct{}

var errNoAffinity = errors.New("CPU affinity is not supported on this system")

func allowedCPUs() (cpuMask, error) { return cpuMask{}, errNoAffinity }
func (m *cpuMask) highest() int     { return -1 }
func oneCPU(int) cpuMask            { return cpuMask{} }
func setAffinity(cpuMask) error     { return errNoAffinity }
