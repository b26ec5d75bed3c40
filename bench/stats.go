package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 500 samples rests on 5 values and moves with every
// outlier, so it is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of samples,
// which must be sorted ascending. It refuses a quantile with fewer than
// minTail samples above its rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q > 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", 100*q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it (need %d)",
			100*q, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle of samples (the mean of the middle two for an
// even count), or 0 for none. Used for per-pass rates, set-up times and
// span durations, where the sample count is small and no tail is read.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// worseBy returns how much worse next is than base as a share of base,
// for a metric whose better direction is "lower" or "higher"; a negative
// value is an improvement.
func worseBy(base, next float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - next) / math.Abs(base)
	}
	return (next - base) / math.Abs(base)
}

// setupFloorS is setup_s's absolute bound: a set-up may always grow by
// this much, so a set-up of a few milliseconds does not regress on noise.
const setupFloorS = 0.05

// Verdicts of comparing a metric's medians on two commits.
const (
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// compareMedians judges a metric's median on a change (next) against the
// parent's (base) by the metric's bound. Either side's spread — the
// interquartile distance over the median of its runs — wider than the
// bound leaves the comparison unresolved. setup_s may also grow by
// setupFloorS, whichever is larger.
func compareMedians(name, better string, bound, base, next, baseSpread, nextSpread float64) string {
	switch {
	case baseSpread > bound || nextSpread > bound:
		return unresolved
	case worseBy(base, next, better) <= bound:
		return unchanged
	case name == "setup_s" && next-base <= setupFloorS:
		return unchanged
	}
	return regressed
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
