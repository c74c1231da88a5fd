package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time all threads of the process have used.
// With one thread running Go code it is the host time the work takes,
// and unlike wall-clock time it leaves out the time another process or
// another guest of a shared host ran instead (steal time, where the
// kernel accounts it).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// wallStart is the origin of wallTime.
var wallStart = time.Now()

// wallTime returns the monotonic wall-clock time since the process
// started.
func wallTime() time.Duration { return time.Since(wallStart) }

// The calibration loop is a chain of dependent integer operations: it
// touches no memory, so its time follows the clock speed of the core it
// runs on and little else. calibNominal is its fastest time on the
// development host (2-vCPU shared VM, 2.1 GHz nominal).
const (
	calibIters   = 600_000
	calibNominal = 900 * time.Microsecond
	calibEvery   = 100 * time.Millisecond // wall-clock time between samples
)

// chainSink keeps the calibration loop's result alive.
var chainSink uint64

// chain runs n steps of a xorshift generator, each depending on the last.
//
//go:noinline
func chain(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrator times the calibration loop every calibEvery during a run
// and keeps its fastest time. A shared host's cores run at a clock
// speed that changes with the load other guests put on the machine; the
// ratio of that fastest time to calibNominal is how much slower the host
// ran during this run than the development host at its fastest, and
// host times are divided by it.
type calibrator struct {
	best time.Duration
	last time.Time
	n    int
}

// sample times the calibration loop once.
func (c *calibrator) sample() {
	start := cpuTime()
	chainSink += chain(calibIters)
	d := cpuTime() - start
	if c.n == 0 || d < c.best {
		c.best = d
	}
	c.n++
	c.last = time.Now()
}

// maybe samples when calibEvery has passed since the last sample. A nil
// calibrator does nothing.
func (c *calibrator) maybe() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// slowdown is the fastest calibration time over calibNominal.
func (c *calibrator) slowdown() float64 {
	return float64(c.best) / float64(calibNominal)
}
