package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankIndex(len(asc), p)]
}

// rankIndex is the nearest-rank index of the p-th percentile among n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile, no higher than
// limit, that still has at least ten samples beyond it (choosing-metrics
// §1): p99 needs 1000 samples, p50 needs 20. With fewer than 20 samples
// nothing qualifies and the maximum stands in, reported as percentile
// 100.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && n-1-rankIndex(n, p) >= 10 {
			return p
		}
	}
	return 100
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// computed here match the driver's. ok is false below two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	asc := sorted(xs)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}
