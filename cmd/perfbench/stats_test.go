package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order, so summarise has to sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ok      bool
		value   float64
		pct     float64
		beyond  int
		comment string
	}{
		{n: 0, ok: false},
		{n: 5, ok: false},
		{n: 10, ok: false, comment: "ten samples leave none with ten beyond it"},
		{n: 11, ok: false, comment: "the only sample with ten beyond it is the minimum"},
		{n: 19, ok: false, comment: "the sample with ten beyond it is below the median"},
		{n: 20, ok: true, value: 10, pct: 50, beyond: 10},
		{n: 21, ok: true, value: 11, pct: 100.0 * 11 / 21, beyond: 10},
		{n: 40, ok: true, value: 30, pct: 75, beyond: 10},
		{n: 400, ok: true, value: 390, pct: 97.5, beyond: 10},
	}
	for _, c := range cases {
		s := summarise(seq(c.n))
		if s.n != c.n {
			t.Errorf("n=%d: count %d", c.n, s.n)
		}
		if s.tailOK != c.ok {
			t.Errorf("n=%d: tailOK=%v, want %v %s", c.n, s.tailOK, c.ok, c.comment)
			continue
		}
		if !c.ok {
			continue
		}
		if s.tail != c.value || math.Abs(s.tailPct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, s.tail, s.tailPct, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > s.tail {
				beyond++
			}
		}
		if beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2.97, 3.87, 3.3, 3.31, 3.5}, 3.31},
	}
	for _, c := range cases {
		if got := medianOf(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := medianOf(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

func TestSummariseKeepsInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarise(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("summarise reordered its input: %v", xs)
	}
	if s.max != 3 || s.median != 2 {
		t.Fatalf("summarise = %+v", s)
	}
}
