package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS makes the kernel's high-water mark start again from the
// current RSS, so peak_rss_MB describes the measured ops rather than
// set-up. It reports whether the reset took effect.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, falling back to getrusage's lifetime maximum.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadAvg1 is the 1-minute load average, or -1 if unreadable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuTicks returns the machine-wide total and steal ticks from /proc/stat;
// steal is time the hypervisor gave this machine's CPUs to someone else.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxTailPct caps op_ms_tail's percentile. Runs share their host with
// other machines' bursts of CPU steal; above p90 the tail of a run of
// hundreds of ops mostly counts how many bursts the run happened to meet.
const maxTailPct = 90

// tail returns the highest percentile of xs, at most maxTailPct, that has
// at least ten samples beyond it, with that percentile. With ten samples
// or fewer there is no such percentile, and it returns the maximum as the
// 100th.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 100
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	pct = min(maxTailPct, max(50, 100*float64(n-10)/float64(n)))
	return quantile(s, pct/100), pct
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
