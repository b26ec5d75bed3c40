// Package sketch provides mergeable streaming aggregates for fleet-scale
// summaries: a quantile digest with a documented relative-error bound plus
// exact count/sum/min/max, all in O(compression) memory regardless of how
// many values were ingested.
//
// The digest is a DDSketch-style log-bucketed sketch (Masson et al.,
// VLDB'19) rather than a t-digest: values land in geometric buckets with
// growth factor γ = (1+α)/(1−α), so any quantile estimate is within
// relative error α of some value actually ingested. Crucially, merging is
// bucket-wise addition — commutative, associative, and bit-deterministic —
// so a sweep sharded across many workers aggregates to exactly the same
// digest as a single-process run no matter how jobs were scheduled,
// re-leased, or retried. (A t-digest's centroids depend on ingest order,
// which would make multi-worker summaries non-reproducible.)
//
// Error contract: for any q, Quantile(q) returns a value v̂ with
// |v̂ − v| ≤ α·|v| where v is the true q-quantile of the ingested values,
// provided |v| ≥ ZeroThreshold (smaller magnitudes collapse into an exact
// zero bucket, so their error is at most ZeroThreshold, i.e. negligible
// for the millisecond/MOS/rate-scale metrics this repo aggregates). Min
// and Max are exact. Sum (hence Mean) is exact up to float addition
// rounding; because float addition is not associative, Sum may differ in
// the last ulps between merge orders, so it is excluded from Fingerprint.
package sketch

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
)

const (
	// DefaultAlpha is the default relative-error bound (1 %).
	DefaultAlpha = 0.01
	// ZeroThreshold: values with |v| below it land in the exact zero
	// bucket instead of a log bucket (log is unbounded near zero).
	ZeroThreshold = 1e-9
	// maxBuckets bounds digest memory: the non-empty buckets of both signs
	// together. With α = 1 % the bucket span covers [1e-9, 1e18] in ≈ 3100
	// buckets, so the collapse safety valve (fold the lowest positive
	// buckets together) never triggers for the magnitudes this repo
	// produces; it exists so a hostile input cannot grow a digest without
	// bound.
	maxBuckets = 4096
)

// bucket is one non-empty log bucket: its index and how many values it
// holds.
type bucket struct {
	idx int32
	n   uint64
}

// Digest is a mergeable quantile sketch. The zero value is not usable;
// create digests with New or NewAlpha.
type Digest struct {
	alpha   float64
	gamma   float64
	lgGamma float64

	count uint64
	zero  uint64 // values with |v| < ZeroThreshold
	sum   float64
	min   float64
	max   float64
	// pos and neg hold one entry per non-empty bucket, in ascending index
	// order: pos over v > 0, neg over |v| of v < 0.
	pos []bucket
	neg []bucket
}

// New returns an empty digest with the default 1 % relative-error bound.
func New() *Digest { return NewAlpha(DefaultAlpha) }

// NewAlpha returns an empty digest with relative-error bound alpha
// (0 < alpha < 1). Smaller alpha costs proportionally more buckets.
func NewAlpha(alpha float64) *Digest {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("sketch: alpha %v out of (0,1)", alpha))
	}
	d := &Digest{}
	d.reset(alpha)
	return d
}

// reset makes d an empty digest with relative-error bound alpha.
func (d *Digest) reset(alpha float64) {
	gamma := (1 + alpha) / (1 - alpha)
	*d = Digest{
		alpha:   alpha,
		gamma:   gamma,
		lgGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha returns the digest's relative-error bound.
func (d *Digest) Alpha() float64 { return d.alpha }

// Add ingests one value. NaN is ignored (a NaN metric is a bug upstream,
// but poisoning every quantile would hide rather than surface it).
func (d *Digest) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	d.count++
	d.sum += v
	if v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	switch {
	case v > ZeroThreshold:
		d.pos = incr(d.pos, d.bucket(v))
	case v < -ZeroThreshold:
		d.neg = incr(d.neg, d.bucket(-v))
	default:
		d.zero++
	}
	if len(d.pos)+len(d.neg) > maxBuckets {
		d.collapse()
	}
}

// incr counts one value into bucket idx of bs, inserting the bucket in
// index order when it is new, and returns the updated slice.
func incr(bs []bucket, idx int32) []bucket {
	i, found := slices.BinarySearchFunc(bs, idx, func(b bucket, idx int32) int { return cmp.Compare(b.idx, idx) })
	if found {
		bs[i].n++
		return bs
	}
	if bs == nil {
		// Start with room for four: a cell's digest over one lease holds a
		// handful of buckets, and growing from one would take three
		// allocations to reach them.
		bs = make([]bucket, 0, 4)
	}
	return slices.Insert(bs, i, bucket{idx: idx, n: 1})
}

// bucket returns the log-bucket index of a positive value.
func (d *Digest) bucket(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / d.lgGamma))
}

// value returns the representative value of a positive bucket: the
// γ-midpoint 2γ^i/(γ+1), which is within α of every value in the bucket.
func (d *Digest) value(idx int32) float64 {
	return 2 * math.Pow(d.gamma, float64(idx)) / (d.gamma + 1)
}

// collapse folds the lowest positive bucket into the next one until the
// digest is back under its bucket budget or one positive bucket is left.
// Only the low tail loses its error bound, and only in the pathological
// inputs that trigger it.
func (d *Digest) collapse() {
	k := min(len(d.pos)+len(d.neg)-maxBuckets, len(d.pos)-1)
	if k <= 0 {
		return
	}
	for _, b := range d.pos[:k] {
		d.pos[k].n += b.n
	}
	d.pos = append(d.pos[:0], d.pos[k:]...)
}

// Count returns how many values were ingested.
func (d *Digest) Count() uint64 { return d.count }

// Sum returns the exact (up to float rounding) sum of ingested values.
func (d *Digest) Sum() float64 { return d.sum }

// Mean returns Sum/Count, or 0 on an empty digest.
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Min returns the exact minimum (0 on an empty digest).
func (d *Digest) Min() float64 {
	if d.count == 0 {
		return 0
	}
	return d.min
}

// Max returns the exact maximum (0 on an empty digest).
func (d *Digest) Max() float64 {
	if d.count == 0 {
		return 0
	}
	return d.max
}

// Buckets returns how many log buckets the digest currently holds — its
// memory footprint driver, bounded by maxBuckets regardless of Count.
func (d *Digest) Buckets() int { return len(d.pos) + len(d.neg) }

// Quantile returns the q-quantile estimate (q clamped to [0,1]); 0 on an
// empty digest. The estimate is clamped to [Min, Max], so Quantile(0) and
// Quantile(1) are exact.
func (d *Digest) Quantile(q float64) float64 {
	qs, out := [1]float64{q}, [1]float64{}
	return d.Quantiles(qs[:], out[:0])[0]
}

// Quantiles appends the estimate of each q in qs to dst, as Quantile
// would return it, and returns the extended slice. It sums the bucket
// counts once for all of qs.
func (d *Digest) Quantiles(qs, dst []float64) []float64 {
	if d.count == 0 {
		for range qs {
			dst = append(dst, 0)
		}
		return dst
	}
	// The buckets in ascending value order, with running counts:
	// negatives from most negative (largest |v| bucket index) down, then
	// the zero bucket at position len(neg), then positives ascending.
	neg, pos := d.neg, d.pos
	cum := make([]uint64, 0, len(neg)+1+len(pos))
	var n uint64
	for i := len(neg) - 1; i >= 0; i-- {
		n += neg[i].n
		cum = append(cum, n)
	}
	n += d.zero
	cum = append(cum, n)
	for _, b := range pos {
		n += b.n
		cum = append(cum, n)
	}
	for _, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := q * float64(d.count-1) // 0-based fractional rank
		// Nearest rank, not floor: flooring under-reports upper quantiles
		// on small counts (p95 of {0,0,32} would return 0, not 32), which
		// is exactly where a human reads the campaign summary most
		// literally.
		want := uint64(rank + 0.5) // index of the value to find
		// The first bucket whose running count passes want holds it.
		est := 0.0
		switch i := sort.Search(len(cum), func(i int) bool { return cum[i] > want }); {
		case i < len(neg):
			est = -d.value(neg[len(neg)-1-i].idx)
		case i > len(neg) && i < len(cum):
			est = d.value(pos[i-len(neg)-1].idx)
		}
		// Clamp into the exact observed range.
		if est < d.min {
			est = d.min
		}
		if est > d.max {
			est = d.max
		}
		dst = append(dst, est)
	}
	return dst
}

// Merge folds other into d. Both digests must share the same alpha — the
// bucket layouts are incompatible otherwise — and other is left untouched;
// d never shares storage with it. Merging is commutative and associative
// on everything except Sum's float rounding; see the package comment.
func (d *Digest) Merge(other *Digest) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if other.alpha != d.alpha {
		return fmt.Errorf("sketch: merge alpha mismatch: %v vs %v", d.alpha, other.alpha)
	}
	d.count += other.count
	d.zero += other.zero
	d.sum += other.sum
	if other.min < d.min {
		d.min = other.min
	}
	if other.max > d.max {
		d.max = other.max
	}
	d.pos = mergeBuckets(d.pos, other.pos)
	d.neg = mergeBuckets(d.neg, other.neg)
	if len(d.pos)+len(d.neg) > maxBuckets {
		d.collapse()
	}
	return nil
}

// mergeBuckets adds src's counts into dst, both in ascending index order,
// and returns the result. Counts of indices dst already holds add in
// place; when src brings new indices, dst grows by that many and the two
// merge from the back, so every bucket moves at most once.
func mergeBuckets(dst, src []bucket) []bucket {
	fresh, i := 0, 0
	for _, b := range src {
		for i < len(dst) && dst[i].idx < b.idx {
			i++
		}
		if i < len(dst) && dst[i].idx == b.idx {
			dst[i].n += b.n
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return dst
	}
	i, j := len(dst)-1, len(src)-1
	dst = slices.Grow(dst, fresh)[:len(dst)+fresh]
	for k := len(dst) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && dst[i].idx > src[j].idx:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i].idx == src[j].idx: // already summed above
			dst[k] = dst[i]
			i--
			j--
		default:
			dst[k] = src[j]
			j--
		}
	}
	return dst
}

// Clone returns a deep copy of d that shares no storage with it.
func (d *Digest) Clone() *Digest {
	c := *d
	c.pos = slices.Clone(d.pos)
	c.neg = slices.Clone(d.neg)
	return &c
}

// Fingerprint returns a hex digest over the deterministic content: alpha,
// count, zero count, min/max bits, and every bucket in index order. Two
// digests over the same multiset of values — regardless of ingest or merge
// order — produce identical fingerprints. Sum is deliberately excluded
// (float addition order changes its last ulps).
func (d *Digest) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(math.Float64bits(d.alpha))
	w(d.count)
	w(d.zero)
	if d.count > 0 {
		w(math.Float64bits(d.min))
		w(math.Float64bits(d.max))
	}
	for _, side := range [2][]bucket{d.neg, d.pos} {
		for _, b := range side {
			w(uint64(uint32(b.idx)))
			w(b.n)
		}
		w(^uint64(0)) // separator between sides
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
