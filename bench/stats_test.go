package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.01, 1}, {0.899, 90}} {
		got, err := percentile(s, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", 100*tc.q, got, err, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
	if _, err := percentile(seq(100), 0.90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := percentile(seq(99), 0.90); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("p90 of 99 samples accepted (err %v)", err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples accepted")
	}
}

func TestBoundComparison(t *testing.T) {
	for _, tc := range []struct {
		name, better     string
		bound            float64
		base, next       float64
		baseSpr, nextSpr float64
		want             string
	}{
		{"latency_us_p50", "lower", 0.10, 100, 109, 0.02, 0.02, unchanged},
		{"latency_us_p50", "lower", 0.10, 100, 111, 0.02, 0.02, regressed},
		{"latency_us_p50", "lower", 0.10, 100, 50, 0.02, 0.02, unchanged}, // an improvement
		{"throughput_per_s", "higher", 0.10, 100, 91, 0.02, 0.02, unchanged},
		{"throughput_per_s", "higher", 0.10, 100, 89, 0.02, 0.02, regressed},
		{"throughput_per_s", "higher", 0.10, 100, 150, 0.02, 0.02, unchanged},
		// A spread wider than the bound on either side decides nothing.
		{"latency_us_p50", "lower", 0.10, 100, 130, 0.12, 0.02, unresolved},
		{"latency_us_p50", "lower", 0.10, 100, 101, 0.02, 0.11, unresolved},
		// setup_s may grow by the larger of its bound and 0.05 s.
		{"setup_s", "lower", 0.25, 0.010, 0.055, 0.02, 0.02, unchanged},
		{"setup_s", "lower", 0.25, 0.010, 0.065, 0.02, 0.02, regressed},
		{"setup_s", "lower", 0.25, 1.0, 1.2, 0.02, 0.02, unchanged},
		{"setup_s", "lower", 0.25, 1.0, 1.3, 0.02, 0.02, regressed},
		{"setup_s", "lower", 0.25, 0.010, 0.011, 0.30, 0.02, unresolved},
	} {
		got := compareMedians(tc.name, tc.better, tc.bound, tc.base, tc.next, tc.baseSpr, tc.nextSpr)
		if got != tc.want {
			t.Errorf("%s %v → %v (bound %v, spreads %v, %v) = %s, want %s",
				tc.name, tc.base, tc.next, tc.bound, tc.baseSpr, tc.nextSpr, got, tc.want)
		}
	}
}
