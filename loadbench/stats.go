package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// tailLevels are the percentiles the tail rule chooses among.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile in tailLevels that has at
// least minBeyond of n samples beyond it, and false when even the median
// has fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// latencySummary is a median and the rule-chosen tail of one sample.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64 // the percentile the tail rule chose (0 if none)
	Tail   float64
	Beyond int // samples beyond the tail percentile
}

func summarize(xs []float64) latencySummary {
	s := latencySummary{N: len(xs), P50: math.NaN(), Tail: math.NaN()}
	if len(xs) == 0 {
		return s
	}
	ys := append([]float64(nil), xs...)
	s.P50 = percentile(ys, 50)
	if p, ok := tailPercentile(len(ys)); ok {
		s.TailP, s.Tail = p, percentile(ys, p)
		s.Beyond = int(float64(len(ys)) * (100 - p) / 100)
	}
	return s
}

// tailName renders a percentile as a metric-name suffix ("p99", "p99.9").
func tailName(p float64) string {
	return "p" + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.2f", p), "0"), ".")
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 0 {
		return math.NaN()
	}
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}
