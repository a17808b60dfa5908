package main

import (
	"testing"
	"time"
)

func ramp(n int) samples {
	s := make(samples, n)
	for i := range s {
		// Reverse order, so the rule must sort before it indexes.
		s[i] = time.Duration(n - i)
	}
	return s
}

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  time.Duration // the value 1..n at the reported rank
		label string
	}{
		{n: 5000, want: 4950, label: "p99"},
		{n: 1000, want: 990, label: "p99"},
		{n: 999, want: 989, label: "p98.9"}, // ten beyond: 989/999
		{n: 500, want: 490, label: "p98"},
		{n: 100, want: 90, label: "p90"},
		{n: 20, want: 10, label: "p50"},
		{n: 19, want: 19, label: "max"},
		{n: 1, want: 1, label: "max"},
	} {
		got, label := ramp(tc.n).tail()
		if got != tc.want {
			t.Errorf("n=%d: tail = %d, want %d", tc.n, got, tc.want)
		}
		beyond := tc.n - int(got)
		if tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported one", tc.n, beyond)
		}
		if label != tc.label {
			t.Errorf("n=%d: label %q, want %q", tc.n, label, tc.label)
		}
	}
	// Below 1000 samples p99 would have fewer than ten beyond it.
	if _, pct := tailIndex(999); pct >= 99 {
		t.Errorf("999 samples reported p%v, which has fewer than ten beyond", pct)
	}
}

func TestMedian(t *testing.T) {
	if got := ramp(5).median(); got != 3 {
		t.Errorf("odd median = %d, want 3", got)
	}
	if got := (samples{1, 9, 3, 7}).median(); got != 5 {
		t.Errorf("even median = %d, want 5", got)
	}
}
