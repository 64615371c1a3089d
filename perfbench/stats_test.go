package main

import (
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 4000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
		{n: 100000, want: 99.99, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 4000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 2000}, {99, 3960}, {100, 4000}, {0.001, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..4000, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Exactly minBeyond samples lie above the reported p99 of 1000.
	s = s[:1000]
	if got := percentile(s, 99); got != 990 {
		t.Errorf("percentile(1..1000, 99) = %g, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestTailSummaryStatesSampleCount(t *testing.T) {
	s := make([]float64, 4000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	got := tailSummary(s, "ms")
	if got != "p50=2000 p99=3960 ms (n=4000)" {
		t.Errorf("tailSummary = %q", got)
	}
	// Too few samples for any tail: only the median, count still stated.
	if got := tailSummary(s[:5], "ms"); !strings.HasSuffix(got, "(n=5)") || strings.Contains(got, "p99") {
		t.Errorf("tailSummary(5 samples) = %q", got)
	}
}
