package main

import (
	"runtime"
	"syscall"
	"time"
)

// meter is the harness's own clock set: wall, process CPU and heap
// counters read around a timed region. It reads no obs registry.
type meter struct {
	wall    time.Time
	cpuNs   int64
	mallocs uint64
	bytes   uint64
}

// delta is what one timed region cost.
type delta struct {
	WallNs  int64
	CPUNs   int64
	Mallocs int64
	Bytes   int64
}

// cpuNow is the process's user+system CPU time from getrusage.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// start reads the heap counters first and the clocks last, so the
// stop-the-world of ReadMemStats stays outside the timed region.
func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpuNs: cpuNow(), wall: time.Now()}
}

func (m meter) stop() delta {
	wall := time.Since(m.wall).Nanoseconds()
	cpu := cpuNow() - m.cpuNs
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return delta{WallNs: wall, CPUNs: cpu, Mallocs: int64(ms.Mallocs - m.mallocs), Bytes: int64(ms.TotalAlloc - m.bytes)}
}

// timeIt runs f n times and returns the low-decile wall nanoseconds of
// one call, the statistic every layer replay reports.
func timeIt(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return low(xs)
}
