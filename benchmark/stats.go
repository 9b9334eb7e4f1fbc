package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile is the q-quantile (0 ≤ q ≤ 1) of vs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(vs, n=4) does (its default "exclusive"
// method), so spreads computed here match ones computed from the printed
// results with Python.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// runtimeReading is the process-wide allocation and GC state at one moment.
type runtimeReading struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	pauseNs             uint64
	gcCPU, allCPU       float64 // seconds, from runtime/metrics
}

func readRuntime() runtimeReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return runtimeReading{
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		gcCPU:      cpu[0].Value.Float64(),
		allCPU:     cpu[1].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
