package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields NaN, which the result check refuses.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 is the 99th percentile. Latency samples hold a thousand
// operations, so ten lie beyond it, except the archive's per-cycle
// rounds (about 180 trickle frames or 100 burst frames each; a run
// holds ten rounds of each).
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts a duration sample to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// durationsNS converts a duration sample to nanoseconds.
func durationsNS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
