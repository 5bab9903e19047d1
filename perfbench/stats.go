package main

import (
	"math"
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted data (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// position of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
