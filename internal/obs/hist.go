package obs

import (
	"math"
	"sync/atomic"
)

// DefaultLatencyBounds is the bucket layout used by every latency/jitter
// histogram in the metrics contract unless a metric documents otherwise:
// roughly logarithmic upper bounds in microseconds from 50 µs to 5 s, with
// an implicit overflow bucket above the last bound. The layout spans the
// delays the simulation produces — sub-millisecond MAC access waits up to
// multi-second recovery worst cases.
var DefaultLatencyBounds = []int64{
	50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
}

// Histogram is a fixed-bucket histogram of int64 observations (the metrics
// contract uses microseconds for durations, milliseconds where documented).
// Buckets are defined by ascending upper bounds; an observation lands in
// the first bucket whose bound is >= the value, or in the implicit
// overflow bucket. Observation is lock-free (one atomic add per bucket
// plus count/sum/min/max updates); a nil Histogram ignores observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return append([]int64(nil), h.bounds...)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the histogram's
// snapshot, by the rule HistSnapshot.Summary states. Returns 0 when the
// histogram is empty or nil.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().quantile(q) }

// HistSnapshot is a point-in-time copy of a histogram's raw bucket state:
// the bounds, the per-bucket counts (len(Bounds)+1; the last entry is the
// overflow bucket), and the running count/sum/min/max. It is the shared
// source for every consumer that needs bucket-level data — the Prometheus
// exposition in internal/obs/expose renders it in cumulative form via
// Cumulative, and obs.Series differences consecutive snapshots to produce
// per-window sub-histograms — so there is exactly one audited copy loop.
//
// Count is the sum of the copied bucket counts, so a snapshot is always
// internally consistent even when observations race the copy; Sum, Min, and
// Max are read from their own atomics and may trail the buckets by the
// observations in flight. Min and Max are only meaningful when Count > 0.
type HistSnapshot struct {
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
	Min    int64
	Max    int64
}

// Snapshot copies the histogram's current bucket state. A nil histogram
// yields a zero snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction; safe to share
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Min:    h.min.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Cumulative converts the per-bucket counts to Prometheus-style cumulative
// form: element i is the number of observations <= Bounds[i], and the last
// element (the "+Inf" bucket) equals Count. The slice is freshly allocated.
func (s HistSnapshot) Cumulative() []int64 {
	out := make([]int64, len(s.Counts))
	var cum int64
	for i, n := range s.Counts {
		cum += n
		out[i] = cum
	}
	return out
}

// HistSummary is the exported snapshot form of a histogram: the p50/p95/p99
// summaries every metrics dump reports.
type HistSummary struct {
	Count int64   `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Summary returns the histogram's summary statistics: its snapshot's, so
// that a metrics dump and the live /statusz view agree.
func (h *Histogram) Summary() HistSummary { return h.Snapshot().Summary() }

// Summary condenses a snapshot into HistSummary form. Each quantile is
// interpolated linearly within the bucket that holds the target rank,
// with the bucket clamped to the observed min and max so estimates never
// leave the data; the overflow bucket reaches up to the max. Series
// windows, which have no min or max, interpolate over whole buckets
// instead (quantileFromBuckets).
func (s HistSnapshot) Summary() HistSummary {
	if s.Count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: s.Count,
		Min:   s.Min,
		Max:   s.Max,
		Mean:  float64(s.Sum) / float64(s.Count),
		P50:   s.quantile(0.50),
		P95:   s.quantile(0.95),
		P99:   s.quantile(0.99),
	}
}

func (s HistSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := s.bucketRange(i)
			frac := (rank - cum) / n
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return s.Max
}

// bucketRange returns the value range [lo, hi] covered by bucket i,
// clamped to the observed min/max.
func (s HistSnapshot) bucketRange(i int) (lo, hi int64) {
	switch {
	case i == 0:
		lo, hi = 0, s.Bounds[0]
	case i == len(s.Bounds):
		lo, hi = s.Bounds[i-1], s.Max
	default:
		lo, hi = s.Bounds[i-1], s.Bounds[i]
	}
	if lo < s.Min {
		lo = s.Min
	}
	if hi > s.Max {
		hi = s.Max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
