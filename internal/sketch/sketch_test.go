package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile computes the reference quantile the digest documents its
// error against: the value at 0-based nearest rank round(q*(n-1)).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// adversarial distributions: uniform, heavy-tailed lognormal, point mass,
// mixed-sign, and tiny-magnitude (exercising the zero bucket).
func distributions(r *rand.Rand, n int) map[string][]float64 {
	out := map[string][]float64{}
	u := make([]float64, n)
	for i := range u {
		u[i] = r.Float64() * 1000
	}
	out["uniform"] = u
	ln := make([]float64, n)
	for i := range ln {
		ln[i] = math.Exp(r.NormFloat64()*2 + 1)
	}
	out["lognormal"] = ln
	pm := make([]float64, n)
	for i := range pm {
		pm[i] = 42.5
	}
	out["point-mass"] = pm
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = r.NormFloat64() * 100
	}
	out["mixed-sign"] = ms
	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = r.Float64() * 1e-12
	}
	out["sub-threshold"] = tiny
	return out
}

var quantiles = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// TestQuantileErrorBound is the documented contract: every quantile
// estimate is within relative error alpha of the exact quantile (plus the
// ZeroThreshold absolute floor for sub-threshold magnitudes).
func TestQuantileErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, xs := range distributions(r, 20000) {
		d := New()
		for _, v := range xs {
			d.Add(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range quantiles {
			got := d.Quantile(q)
			want := exactQuantile(sorted, q)
			bound := d.Alpha()*math.Abs(want) + ZeroThreshold
			if math.Abs(got-want) > bound {
				t.Errorf("%s q=%v: got %v want %v (bound %v)", name, q, got, want, bound)
			}
		}
		if d.Min() != sorted[0] || d.Max() != sorted[len(sorted)-1] {
			t.Errorf("%s: min/max not exact: %v/%v want %v/%v",
				name, d.Min(), d.Max(), sorted[0], sorted[len(sorted)-1])
		}
		if d.Count() != uint64(len(xs)) {
			t.Errorf("%s: count %d want %d", name, d.Count(), len(xs))
		}
	}
}

// TestMergeEquivalentToSingleStream: splitting a stream into chunks,
// sketching each, and merging in shuffled order must produce exactly the
// same buckets (fingerprint) as one digest ingesting the whole stream,
// and quantiles must match bit-for-bit.
func TestMergeEquivalentToSingleStream(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, xs := range distributions(r, 12000) {
		single := New()
		for _, v := range xs {
			single.Add(v)
		}
		// 7 uneven chunks, ingested separately, merged in shuffled order.
		var parts []*Digest
		for i := 0; i < 7; i++ {
			parts = append(parts, New())
		}
		for i, v := range xs {
			parts[(i*i+i/3)%7].Add(v)
		}
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		merged := New()
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
		}
		if merged.Fingerprint() != single.Fingerprint() {
			t.Errorf("%s: merged fingerprint differs from single-stream", name)
		}
		for _, q := range quantiles {
			if m, s := merged.Quantile(q), single.Quantile(q); m != s {
				t.Errorf("%s q=%v: merged %v != single %v", name, q, m, s)
			}
		}
		if merged.Count() != single.Count() {
			t.Errorf("%s: counts differ: %d vs %d", name, merged.Count(), single.Count())
		}
		// Sum is exact up to float rounding, not bit-identical.
		if math.Abs(merged.Sum()-single.Sum()) > 1e-6*math.Max(1, math.Abs(single.Sum())) {
			t.Errorf("%s: sums differ: %v vs %v", name, merged.Sum(), single.Sum())
		}
	}
}

// TestFingerprintOrderIndependent: ingest order must not matter.
func TestFingerprintOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := distributions(r, 5000)["lognormal"]
	a, b := New(), New()
	for _, v := range xs {
		a.Add(v)
	}
	perm := r.Perm(len(xs))
	for _, i := range perm {
		b.Add(xs[i])
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on ingest order")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for name, xs := range distributions(r, 3000) {
		d := New()
		for _, v := range xs {
			d.Add(v)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Digest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if back.Fingerprint() != d.Fingerprint() {
			t.Errorf("%s: round-trip changed fingerprint", name)
		}
		if back.Count() != d.Count() || back.Sum() != d.Sum() ||
			back.Min() != d.Min() || back.Max() != d.Max() {
			t.Errorf("%s: round-trip changed scalars", name)
		}
		// Canonical encoding: re-marshalling yields identical bytes.
		data2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: encoding not canonical", name)
		}
	}
}

// TestBoundedMemory: bucket count must not scale with ingested values.
func TestBoundedMemory(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := New()
	var at1k int
	for i := 0; i < 1_000_000; i++ {
		d.Add(math.Exp(r.NormFloat64() * 3)) // ~ e^±20 span
		if i == 1000 {
			at1k = d.Buckets()
		}
	}
	if d.Buckets() > maxBuckets {
		t.Fatalf("buckets %d exceed cap %d", d.Buckets(), maxBuckets)
	}
	// 1000x more values must not grow buckets by more than ~3x: memory is
	// O(compression), not O(n).
	if at1k > 0 && d.Buckets() > 3*at1k+64 {
		t.Fatalf("buckets scale with n: %d at 1k vs %d at 1M", at1k, d.Buckets())
	}
}

func TestMergeAlphaMismatch(t *testing.T) {
	a, b := NewAlpha(0.01), NewAlpha(0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched alphas must error")
	}
}

// TestSmallCountTails pins the nearest-rank convention where it is most
// visible: a 3-job campaign with one slow job must surface that job in the
// upper percentiles, not round it away.
func TestSmallCountTails(t *testing.T) {
	d := New()
	d.Add(0)
	d.Add(0)
	d.Add(32)
	if got := d.Quantile(0.95); math.Abs(got-32) > 32*d.Alpha() {
		t.Errorf("p95 of {0,0,32} = %v, want ~32", got)
	}
	if got := d.Quantile(0.5); got != 0 {
		t.Errorf("p50 of {0,0,32} = %v, want 0", got)
	}
	if got := d.Quantile(0.25); got != 0 {
		t.Errorf("p25 of {0,0,32} = %v, want 0", got)
	}
}

func TestEmptyDigest(t *testing.T) {
	d := New()
	if d.Quantile(0.5) != 0 || d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty digest must report zeros")
	}
	if err := d.Merge(New()); err != nil {
		t.Fatalf("merging empties: %v", err)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	var back Digest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if back.Count() != 0 {
		t.Fatal("empty round-trip gained values")
	}
	back.Add(2.5) // decoded digest must be usable
	if back.Count() != 1 || back.Min() != 2.5 {
		t.Fatal("decoded digest not ingestable")
	}
}

func TestNaNIgnored(t *testing.T) {
	d := New()
	d.Add(math.NaN())
	d.Add(1)
	if d.Count() != 1 || d.Quantile(0.5) != 1 {
		t.Fatalf("NaN must be ignored: count=%d", d.Count())
	}
}

// walkQuantile is the reference Quantiles must equal bit for bit: one
// walk over the index-ordered buckets per q, in ascending value order.
func walkQuantile(d *Digest, q float64) float64 {
	if d.count == 0 {
		return 0
	}
	want := uint64(math.Min(math.Max(q, 0), 1)*float64(d.count-1) + 0.5)
	var cum uint64
	est, found := 0.0, false
	for i := len(d.neg) - 1; i >= 0 && !found; i-- {
		if cum += d.neg[i].n; cum > want {
			est, found = -d.value(d.neg[i].idx), true
		}
	}
	if cum += d.zero; !found && cum > want {
		found = true
	}
	for _, b := range d.pos {
		if cum += b.n; !found && cum > want {
			est, found = d.value(b.idx), true
		}
	}
	return math.Min(math.Max(est, d.min), d.max)
}

// TestQuantilesMatchesWalk: Quantiles answers every q of an unsorted list,
// out-of-range ones included, exactly as the per-q walk does, and appends
// the answers to dst in the order of qs.
func TestQuantilesMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	qs := append([]float64{1.5, -0.2}, quantiles...)
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for name, xs := range distributions(r, 5000) {
		d := New()
		for _, v := range xs[:len(xs)/2] {
			d.Add(v)
			d.Add(-v / 3)
		}
		got := d.Quantiles(qs, []float64{-7})
		if len(got) != len(qs)+1 || got[0] != -7 {
			t.Fatalf("%s: Quantiles returned %v, want dst's -7 and then %d estimates", name, got, len(qs))
		}
		for i, q := range qs {
			if want := walkQuantile(d, q); got[i+1] != want || d.Quantile(q) != want {
				t.Errorf("%s q=%v: Quantiles %v, Quantile %v, walk %v", name, q, got[i+1], d.Quantile(q), want)
			}
		}
	}
	if got := New().Quantiles(qs[:3], nil); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("empty digest: Quantiles = %v, want three zeros", got)
	}
}
