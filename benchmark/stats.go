package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of xs, which must
// be sorted ascending, by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailPermille are the tail percentiles the benchmark may report, in
// thousandths so the sample arithmetic is exact.
var tailPermille = []int{999, 990, 900}

// highestPercentile returns the highest tail percentile with at least
// ten samples beyond it among n samples, or 50 when none qualifies.
func highestPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which the driver's noise check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median — the
// driver's steadiness measure for one metric over repeated runs.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// CPU time from getrusage. RUSAGE_THREAD is Linux-only; the generator
// calls threadCPU from its locked OS thread.
const (
	rusageSelf   = 0
	rusageThread = 1
)

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func processCPU() time.Duration { return cpuOf(rusageSelf) }

// processCPUSplit is processCPU together with its kernel-mode share.
func processCPUSplit() (total, kernel time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageSelf, &ru); err != nil {
		return 0, 0
	}
	kernel = time.Duration(ru.Stime.Nano())
	return time.Duration(ru.Utime.Nano()) + kernel, kernel
}
func threadCPU() time.Duration { return cpuOf(rusageThread) }
