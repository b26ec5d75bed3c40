package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 20, 30})
	for _, v := range []int64{5, 10, 11, 25, 31, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	s := h.Summary()
	if s.Min != 5 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 5/1000", s.Min, s.Max)
	}
	wantMean := (5.0 + 10 + 11 + 25 + 31 + 1000) / 6
	if math.Abs(s.Mean-wantMean) > 1e-9 {
		t.Fatalf("mean = %f, want %f", s.Mean, wantMean)
	}
}

// TestHistogramPercentiles checks interpolation accuracy on a uniform
// distribution: with 1..1000 observed into fine buckets, the interpolated
// p50/p95/p99 must land within one bucket width of the exact rank.
func TestHistogramPercentiles(t *testing.T) {
	bounds := make([]int64, 100)
	for i := range bounds {
		bounds[i] = int64((i + 1) * 10) // 10, 20, ..., 1000
	}
	r := NewRegistry()
	h := r.Histogram("u", bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.want-10 || got > c.want+10 {
			t.Errorf("q%.2f = %d, want %d ±10", c.q, got, c.want)
		}
	}
	if got := h.Quantile(0); got > 11 {
		t.Errorf("q0 = %d, want <= 11", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %d, want 1000", got)
	}
}

// TestHistogramOverflowQuantile: values above the last bound land in the
// overflow bucket, whose quantile estimates are clamped to the observed max.
func TestHistogramOverflowQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("o", []int64{10})
	for i := 0; i < 100; i++ {
		h.Observe(5000)
	}
	if got := h.Quantile(0.99); got > 5000 || got < 10 {
		t.Errorf("overflow q99 = %d, want within (10, 5000]", got)
	}
	if got := h.Summary().Max; got != 5000 {
		t.Errorf("max = %d, want 5000", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", nil)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	if s := h.Summary(); s != (HistSummary{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", nil)
	got := h.Bounds()
	if len(got) != len(DefaultLatencyBounds) {
		t.Fatalf("default bounds len = %d, want %d", len(got), len(DefaultLatencyBounds))
	}
	// Bounds() must be a copy, not an alias.
	got[0] = -1
	if h.Bounds()[0] == -1 {
		t.Error("Bounds() aliases internal slice")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", nil)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	s := h.Summary()
	if s.Min != 0 || s.Max != workers*per-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, workers*per-1)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds should panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 10})
}

// TestHistSnapshotCumulative is the audited-conversion contract: the
// cumulative form element i counts observations <= Bounds[i], the +Inf
// element equals Count, and the sequence is non-decreasing — exactly what
// the Prometheus exposition renders as _bucket/_count.
func TestHistSnapshotCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", []int64{10, 20, 30})
	for _, v := range []int64{5, 10, 11, 25, 31, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{2, 1, 1, 2}; len(s.Counts) != len(want) {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	} else {
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Fatalf("counts = %v, want %v", s.Counts, want)
			}
		}
	}
	cum := s.Cumulative()
	want := []int64{2, 3, 4, 6}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	if cum[len(cum)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != Count %d", cum[len(cum)-1], s.Count)
	}
	if s.Sum != 5+10+11+25+31+1000 || s.Min != 5 || s.Max != 1000 {
		t.Fatalf("sum/min/max = %d/%d/%d", s.Sum, s.Min, s.Max)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative not monotone: %v", cum)
		}
	}
}

// TestHistSnapshotNil checks the nil-receiver and empty-histogram paths.
func TestHistSnapshotNil(t *testing.T) {
	var h *Histogram
	s := h.Snapshot()
	if s.Count != 0 || len(s.Counts) != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if cum := s.Cumulative(); len(cum) != 0 {
		t.Fatalf("nil cumulative = %v, want empty", cum)
	}
	r := NewRegistry()
	empty := r.Histogram("e", []int64{1, 2}).Snapshot()
	if empty.Count != 0 {
		t.Fatalf("empty histogram Count = %d", empty.Count)
	}
	if cum := empty.Cumulative(); cum[len(cum)-1] != 0 {
		t.Fatalf("empty cumulative = %v", cum)
	}
}

// TestHistSnapshotSummaryClamps: the live /statusz view summarises a
// snapshot, and -metrics the registry's snapshot. Both clamp each bucket
// to the observed min and max, so ten observations of 60 µs read 60 at
// every quantile in both, not a point inside the 50–100 µs bucket.
func TestHistSnapshotSummaryClamps(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	for i := 0; i < 10; i++ {
		h.Observe(60)
	}
	want := HistSummary{Count: 10, Min: 60, Max: 60, Mean: 60, P50: 60, P95: 60, P99: 60}
	if got := h.Snapshot().Summary(); got != want {
		t.Errorf("snapshot summary %+v, want %+v", got, want)
	}
	if got := r.Snapshot().Histograms["lat"]; got != want {
		t.Errorf("registry snapshot %+v, want %+v", got, want)
	}
}
