package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// CPU placement. On the 2-vCPU sandbox the data path — every server
// process and the client connection thread — is confined to ONE CPU.
// Measured: spread over both vCPUs, a reply's write(2) wakes a peer on a
// halted vCPU (an IPI and a VM exit, 79 % of server CPU sat in that
// write), and identical runs of nio_small read 31 200–36 700 replies/s
// with srv_cpu_us_per_reply 16.9–20.4; on one CPU every wake is a local
// context switch and the same runs read 32 300–33 000 and 15.8–16.3
// (two connections; see clientConns for why there is now one).
// Throughput is the same either way, so nothing is lost but the noise.
// The other CPU is left to the kernel, the controller and `go run`.

type cpuMask [16]uint64 // 1024 CPUs

// affinity is sched_getaffinity or sched_setaffinity on the calling thread.
func affinity(call uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// benchCPU picks the highest CPU the process may run on (CPU 0 takes
// most interrupts) and returns the one-CPU mask.
func benchCPU() (cpu int, only cpuMask, err error) {
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &allowed); err != nil {
		return 0, only, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu = -1
	for i := range allowed {
		for b := 0; b < 64; b++ {
			if allowed[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return 0, only, fmt.Errorf("sched_getaffinity: empty mask")
	}
	only[cpu/64] = 1 << (cpu % 64)
	return cpu, only, nil
}

// pinThread confines the calling OS thread; the caller must have locked
// its goroutine to the thread. Children forked from it inherit the mask.
func pinThread(m *cpuMask) error {
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, m); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	return nil
}
