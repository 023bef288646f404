package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the order statistics of xs;
// q is in [0, 1]. It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so the compare mode and the acceptance rule read spreads identically.
// xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailCount is the number of samples strictly beyond percentile q, the
// figure the report states next to every tail percentile.
func tailCount(n int, q float64) int { return int(math.Floor(float64(n) * (1 - q))) }

// clockFloor calibrates what one RunTimed substep interval costs with an
// empty substep: the engine brackets every substep between two
// time.Now reads and accumulates the difference, so each interval also
// carries the cost of one clock read and the accumulation. The loop
// below is that bracket around nothing; the median over several batches
// is the per-interval floor in nanoseconds.
func clockFloor() float64 {
	const batches, perBatch = 9, 200000
	floors := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		var acc time.Duration
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			mark := time.Now()
			acc += mark.Sub(start)
			start = mark
		}
		floors = append(floors, float64(acc.Nanoseconds())/perBatch)
	}
	return median(floors)
}

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	mallocs, totalAlloc uint64
	numGC               uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{mallocs: a.mallocs - b.mallocs, totalAlloc: a.totalAlloc - b.totalAlloc, numGC: a.numGC - b.numGC}
}

// liveHeapMB forces two GC cycles (the second finishes sweeping what the
// first freed) and returns the live heap in MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
