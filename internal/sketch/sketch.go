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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

const (
	// DefaultAlpha is the default relative-error bound (1 %).
	DefaultAlpha = 0.01
	// ZeroThreshold: values with |v| below it land in the exact zero
	// bucket instead of a log bucket (log is unbounded near zero).
	ZeroThreshold = 1e-9
	// maxBuckets bounds digest memory. With α = 1 % the bucket span
	// covers [1e-9, 1e18] in ≈ 3100 buckets, so the collapse safety
	// valve (fold lowest buckets together) never triggers for the
	// magnitudes this repo produces; it exists so a hostile input cannot
	// grow a digest without bound.
	maxBuckets = 4096
)

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
	pos   map[int32]uint64 // bucket index -> count, v > 0
	neg   map[int32]uint64 // bucket index over |v|, v < 0
}

// New returns an empty digest with the default 1 % relative-error bound.
func New() *Digest { return NewAlpha(DefaultAlpha) }

// NewAlpha returns an empty digest with relative-error bound alpha
// (0 < alpha < 1). Smaller alpha costs proportionally more buckets.
func NewAlpha(alpha float64) *Digest {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("sketch: alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Digest{
		alpha:   alpha,
		gamma:   gamma,
		lgGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
		pos:     map[int32]uint64{},
		neg:     map[int32]uint64{},
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
		d.pos[d.bucket(v)]++
	case v < -ZeroThreshold:
		d.neg[d.bucket(-v)]++
	default:
		d.zero++
	}
	if len(d.pos)+len(d.neg) > maxBuckets {
		d.collapse()
	}
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

// collapse folds the lowest-magnitude positive buckets together until the
// digest is back under its bucket budget. Only the low tail loses its
// error bound, and only in the pathological inputs that trigger it.
func (d *Digest) collapse() {
	for len(d.pos)+len(d.neg) > maxBuckets && len(d.pos) > 1 {
		lo, lo2 := int32(math.MaxInt32), int32(math.MaxInt32)
		for i := range d.pos {
			if i < lo {
				lo2, lo = lo, i
			} else if i < lo2 {
				lo2 = i
			}
		}
		d.pos[lo2] += d.pos[lo]
		delete(d.pos, lo)
	}
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
// would return it, and returns the extended slice. It orders the buckets
// once for all of qs, where each Quantile call orders them anew.
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
	neg, pos := sortedKeys(d.neg), sortedKeys(d.pos)
	cum := make([]uint64, 0, len(neg)+1+len(pos))
	var n uint64
	for i := len(neg) - 1; i >= 0; i-- {
		n += d.neg[neg[i]]
		cum = append(cum, n)
	}
	n += d.zero
	cum = append(cum, n)
	for _, idx := range pos {
		n += d.pos[idx]
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
			est = -d.value(neg[len(neg)-1-i])
		case i > len(neg) && i < len(cum):
			est = d.value(pos[i-len(neg)-1])
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
// bucket layouts are incompatible otherwise — and other is left untouched.
// Merging is commutative and associative on everything except Sum's float
// rounding; see the package comment.
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
	for i, c := range other.pos {
		d.pos[i] += c
	}
	for i, c := range other.neg {
		d.neg[i] += c
	}
	if len(d.pos)+len(d.neg) > maxBuckets {
		d.collapse()
	}
	return nil
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
	for _, side := range []map[int32]uint64{d.neg, d.pos} {
		for _, idx := range sortedKeys(side) {
			w(uint64(uint32(idx)))
			w(side[idx])
		}
		w(^uint64(0)) // separator between sides
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// digestJSON is the wire form: bucket maps flattened to index-sorted
// [index, count] pairs so the encoding is canonical (map iteration order
// never leaks into bytes on the wire).
type digestJSON struct {
	Alpha float64     `json:"alpha"`
	Count uint64      `json:"count"`
	Zero  uint64      `json:"zero,omitempty"`
	Sum   float64     `json:"sum"`
	Min   float64     `json:"min"`
	Max   float64     `json:"max"`
	Pos   [][2]uint64 `json:"pos,omitempty"` // [uint32(index), count]
	Neg   [][2]uint64 `json:"neg,omitempty"`
}

func packBuckets(m map[int32]uint64) [][2]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make([][2]uint64, 0, len(m))
	for _, idx := range sortedKeys(m) {
		out = append(out, [2]uint64{uint64(uint32(idx)), m[idx]})
	}
	return out
}

func unpackBuckets(pairs [][2]uint64) map[int32]uint64 {
	m := make(map[int32]uint64, len(pairs))
	for _, p := range pairs {
		m[int32(uint32(p[0]))] += p[1]
	}
	return m
}

// MarshalJSON encodes the digest canonically (sorted buckets).
func (d *Digest) MarshalJSON() ([]byte, error) {
	j := digestJSON{
		Alpha: d.alpha, Count: d.count, Zero: d.zero, Sum: d.sum,
		Pos: packBuckets(d.pos), Neg: packBuckets(d.neg),
	}
	if d.count > 0 {
		j.Min, j.Max = d.min, d.max
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a digest previously produced by MarshalJSON.
func (d *Digest) UnmarshalJSON(data []byte) error {
	var j digestJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if !(j.Alpha > 0 && j.Alpha < 1) {
		return fmt.Errorf("sketch: decoded alpha %v out of (0,1)", j.Alpha)
	}
	nd := NewAlpha(j.Alpha)
	nd.count, nd.zero, nd.sum = j.Count, j.Zero, j.Sum
	nd.pos, nd.neg = unpackBuckets(j.Pos), unpackBuckets(j.Neg)
	if j.Count > 0 {
		nd.min, nd.max = j.Min, j.Max
	}
	*d = *nd
	return nil
}

func sortedKeys(m map[int32]uint64) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
