package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings of one kind of operation.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the middle sample (the mean of the two middle samples
// when the count is even). It panics on an empty set: every caller
// measures at least one operation before asking.
func (s samples) median() time.Duration {
	if len(s) == 0 {
		panic("perfbench: median of no samples")
	}
	x := s.sorted()
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// tailIndex applies the reporting rule for tail latency: report the
// highest percentile that has at least ten samples beyond it, capped at
// the 99th. With 1000 or more samples that is p99 (nearest rank). Below
// 1000 it is the sample with exactly ten beyond it, which is p50 at 20
// samples; with fewer than 20 samples no percentile above the median has
// ten beyond it, so the maximum is reported instead. It returns the index
// into the sorted samples and the percentile that index stands for.
func tailIndex(n int) (idx int, pct float64) {
	switch {
	case n <= 0:
		panic("perfbench: tail of no samples")
	case n >= 1000:
		idx = (99*n+99)/100 - 1 // nearest rank of p99: ceil(0.99 n) - 1
	case n >= 20:
		idx = n - 11
	default:
		idx = n - 1
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// tail returns the tail sample under tailIndex's rule and a label such as
// "p99" or "p90 of 100" for the run record.
func (s samples) tail() (time.Duration, string) {
	idx, pct := tailIndex(len(s))
	// Round down, so the label never claims a higher percentile.
	label := fmt.Sprintf("p%g", math.Floor(pct*10)/10)
	if idx == len(s)-1 && len(s) < 20 {
		label = "max"
	}
	return s.sorted()[idx], label
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanDur is the arithmetic mean, 0 for no samples. Per-layer times use
// means so the self times along one request add up to its total.
func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
