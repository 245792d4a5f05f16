//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// On this kind of host — a small VM sharing a machine — a vCPU that goes
// idle is halted by the hypervisor, and how long it then takes to wake
// depends on the hypervisor's adaptive halt polling and on the neighbours.
// A request here crosses goroutines a dozen times, so the path is mostly
// wake-ups, and with nothing else done about it the same binary flips
// between a fast and a slow regime (11 µs against 16 µs for a round trip,
// 170 k against 140 k ops/s) on a scale of seconds to minutes.
//
// keepAwake removes that variable the way a latency benchmark on bare metal
// disables C-states: for the length of the run, one child process per CPU
// spins at the lowest priority, pinned to its CPU, so no vCPU ever halts.
// Any thread of the benchmark preempts a spinner at once (nice 19 against
// nice 0), and the children's CPU time is not the process's, so
// cpu_us_per_op does not see them. README.md has the measurements.

const (
	spinFlag = "-spin" // hipecbench -spin <cpu>: be a spinner
	// A spinner outlives no run: the longest allowed is 180 s.
	spinLifetime = 200 * time.Second
)

// keepAwake starts one spinner on every CPU the process may run on. It
// returns how many there are and the function that stops them and waits
// until each has ended.
func keepAwake() (stop func(), spinners int, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, 0, err
	}
	var children []*exec.Cmd
	stop = func() {
		for _, c := range children {
			_ = c.Process.Kill()
		}
		for _, c := range children {
			_ = c.Wait() // reports the kill; nothing to handle
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(self, spinFlag, strconv.Itoa(cpu))
		if err := c.Start(); err != nil {
			stop()
			return nil, 0, fmt.Errorf("starting spinner on CPU %d: %w", cpu, err)
		}
		children = append(children, c)
	}
	return stop, len(children), nil
}

// cpuMask is a kernel CPU set; 1024 CPUs is what glibc's cpu_set_t holds.
type cpuMask [16]uint64

// allowedCPUs lists the ids of the CPUs in the process's affinity mask:
// under a cpuset they need not start at 0 or be contiguous.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for cpu := 0; cpu < int(n)*8; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// spin is the child: pin to the CPU, drop to the lowest priority, and burn
// cycles until killed, orphaned (should the parent die without stopping
// it) or out of time.
func spin(cpu int) {
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	// Both calls are best effort: an unpinned or un-niced spinner still
	// keeps a CPU awake.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	parent := os.Getppid()
	for deadline := time.Now().Add(spinLifetime); time.Now().Before(deadline) && os.Getppid() == parent; {
		for i := 0; i < 1<<12; i++ {
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}
