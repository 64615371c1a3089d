package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky runs, not a tail.
const minBeyond = 10

// candidatePercentiles are the tail percentiles tailPercentile chooses
// from, highest first.
var candidatePercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when even the median
// does not (n < 2*minBeyond).
func tailPercentile(n int) (float64, bool) {
	for _, p := range candidatePercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It panics on an empty slice, which only a bug produces.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("median of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailSummary renders the median and the highest supported tail
// percentile of samples with the sample count, e.g.
// "p50=0.51 p99=3.02 ms (n=4000)".
func tailSummary(samples []float64, unit string) string {
	if len(samples) == 0 {
		return "no samples"
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := fmt.Sprintf("p50=%.4g", percentile(s, 50))
	if p, ok := tailPercentile(len(s)); ok && p > 50 {
		out += fmt.Sprintf(" p%g=%.4g", p, percentile(s, p))
	}
	return fmt.Sprintf("%s %s (n=%d)", out, unit, len(s))
}
