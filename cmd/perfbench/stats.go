package main

import (
	"math"
	"sort"
)

// tailMin is the number of samples a reported tail percentile must
// have beyond it.
const tailMin = 10

// timing summarises one list of op durations in milliseconds.
type timing struct {
	n      int
	median float64
	// tail is the highest percentile with at least tailMin samples
	// beyond it, at percentile tailPct; tailOK is false when the list
	// is too short to support one.
	tail    float64
	tailPct float64
	tailOK  bool
	max     float64
}

// summarise computes the median and the supported tail of xs. It does
// not modify xs.
func summarise(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{n: len(s), median: median(s)}
	if len(s) == 0 {
		return t
	}
	t.max = s[len(s)-1]
	t.tail, t.tailPct, t.tailOK = tail(s)
	return t
}

// median of sorted xs; the mean of the two middle values when the
// count is even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest order statistic of sorted xs that has at
// least tailMin samples strictly beyond it, and its percentile (the
// share of samples at or below it, times 100). With n samples that is
// the (n-tailMin)-th smallest. A tail must not sit below the median,
// so at least 2*tailMin samples are needed; with fewer, ok is false
// and no tail is reported.
func tail(sorted []float64) (value, pct float64, ok bool) {
	n := len(sorted)
	k := n - tailMin // 1-based rank of the tail sample
	if n < 2*tailMin {
		return 0, 0, false
	}
	return sorted[k-1], 100 * float64(k) / float64(n), true
}

// medianOf is the median of an unsorted list.
func medianOf(xs []float64) float64 {
	return summarise(xs).median
}
