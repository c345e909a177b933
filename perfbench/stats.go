package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a timing may be reported at, from the
// highest down. The reporting rule takes the highest one that still has at
// least minBeyond samples beyond it, so a tail figure is never one or two
// unlucky samples.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// rank returns the nearest-rank index (0-based) of percentile p in n sorted
// samples: the smallest index i such that at least p% of the samples are at
// or below sample i.
func rank(n int, p float64) int {
	// The epsilon keeps p/100*n exact for percentiles like 99.9 that have
	// no exact binary representation.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond returns how many of n samples lie strictly beyond percentile p's
// rank.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentile returns the highest percentile of tailPercentiles that
// leaves at least minBeyond of n samples beyond it, or 0 when even the
// median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// sortDurations sorts samples in place and returns them.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median returns the median of xs (the mean of the middle pair for an even
// count), leaving xs unmodified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the run did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
