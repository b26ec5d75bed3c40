package sketch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// digestJSON is the reference wire form: these fields encoded by
// encoding/json, buckets as index-sorted [uint32(index), count] pairs.
// The digest's own codec must write exactly these bytes and read back
// nothing the reference decoder would read differently.
type digestJSON struct {
	Alpha float64     `json:"alpha"`
	Count uint64      `json:"count"`
	Zero  uint64      `json:"zero,omitempty"`
	Sum   float64     `json:"sum"`
	Min   float64     `json:"min"`
	Max   float64     `json:"max"`
	Pos   [][2]uint64 `json:"pos,omitempty"`
	Neg   [][2]uint64 `json:"neg,omitempty"`
}

// refPack flattens buckets to index-sorted pairs, nil when there are none.
func refPack(bs []bucket) [][2]uint64 {
	if len(bs) == 0 {
		return nil
	}
	sorted := append([]bucket(nil), bs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].idx < sorted[j].idx })
	out := make([][2]uint64, 0, len(sorted))
	for _, b := range sorted {
		out = append(out, [2]uint64{uint64(uint32(b.idx)), b.n})
	}
	return out
}

// refMarshal encodes d through encoding/json and digestJSON.
func refMarshal(d *Digest) ([]byte, error) {
	j := digestJSON{Alpha: d.alpha, Count: d.count, Zero: d.zero, Sum: d.sum,
		Pos: refPack(d.pos), Neg: refPack(d.neg)}
	if d.count > 0 {
		j.Min, j.Max = d.min, d.max
	}
	return json.Marshal(j)
}

// refUnpack sums pairs into a bucket map and returns its entries in index
// order, zero counts included.
func refUnpack(pairs [][2]uint64) []bucket {
	m := make(map[int32]uint64, len(pairs))
	for _, p := range pairs {
		m[int32(uint32(p[0]))] += p[1]
	}
	var out []bucket
	for idx, n := range m {
		out = append(out, bucket{idx: idx, n: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// refUnmarshal decodes data through encoding/json and digestJSON.
func refUnmarshal(data []byte) (*Digest, error) {
	var j digestJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	if !(j.Alpha > 0 && j.Alpha < 1) {
		return nil, fmt.Errorf("alpha %v out of (0,1)", j.Alpha)
	}
	d := NewAlpha(j.Alpha)
	d.count, d.zero, d.sum = j.Count, j.Zero, j.Sum
	d.pos, d.neg = refUnpack(j.Pos), refUnpack(j.Neg)
	if j.Count > 0 {
		d.min, d.max = j.Min, j.Max
	}
	return d, nil
}

// checkOrdered fails unless each side of d holds non-empty buckets in
// strictly ascending index order.
func checkOrdered(t *testing.T, name string, d *Digest) {
	t.Helper()
	for _, side := range [][]bucket{d.pos, d.neg} {
		for i, b := range side {
			if b.n == 0 || (i > 0 && side[i-1].idx >= b.idx) {
				t.Fatalf("%s: buckets out of order or empty at %d: %v", name, i, side)
			}
		}
	}
}

// sameDigest reports how a and b differ in fingerprint, count, sum, min or
// max, or "" when they agree.
func sameDigest(a, b *Digest) string {
	switch {
	case a.Fingerprint() != b.Fingerprint():
		return "fingerprint"
	case a.Count() != b.Count():
		return "count"
	case math.Float64bits(a.Sum()) != math.Float64bits(b.Sum()):
		return "sum"
	case math.Float64bits(a.Min()) != math.Float64bits(b.Min()):
		return "min"
	case math.Float64bits(a.Max()) != math.Float64bits(b.Max()):
		return "max"
	}
	return ""
}

// codecCases are the digests the encoder must write as the reference does:
// every distribution at two sizes, and the edge cases of the wire form.
func codecCases() map[string]*Digest {
	out := map[string]*Digest{}
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{7, 2000} {
		for name, xs := range distributions(r, n) {
			d := New()
			for _, v := range xs {
				d.Add(v)
			}
			out[fmt.Sprintf("%s-%d", name, n)] = d
		}
	}
	add := func(name string, vs ...float64) *Digest {
		d := New()
		for _, v := range vs {
			d.Add(v)
		}
		out[name] = d
		return d
	}
	add("empty")
	add("only-zeros", 0, 0, 1e-12, -1e-10)
	add("only-negatives", -1, -2.5, -1000, -3e-3)
	add("e-format-small", 3e-7, 5e-9, 1.5e-8)       // sum, min and max below 1e-6
	add("e-format-large", 2e21, 7.5e25, 1e300)      // from 1e21 up
	add("e-format-mixed", -4e22, 9e-7, 1e-6, 1e21)  // both sides of each boundary
	big := add("count-above-2^53", 1, 2, 2, 40, -3) // counts no float64 holds exactly
	big.pos[0].n += 1<<60 + 1
	big.zero = 1<<53 + 1
	big.count += 1<<60 + 1 + big.zero
	collapsed := New()
	for i := 0; i < 20000; i++ {
		collapsed.Add(math.Exp(r.Float64()*120 - 60))
		collapsed.Add(-math.Exp(r.Float64() * 10))
	}
	out["collapsed"] = collapsed
	return out
}

// TestDigestJSONMatchesReference: the encoder writes the bytes encoding/json
// writes for digestJSON, and the parser reads those bytes, compact and
// indented, back to the same digest.
func TestDigestJSONMatchesReference(t *testing.T) {
	for name, d := range codecCases() {
		checkOrdered(t, name, d)
		want, err := refMarshal(d)
		if err != nil {
			t.Fatalf("%s: reference marshal: %v", name, err)
		}
		got, err := d.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote\n%s\nreference wrote\n%s", name, got, want)
			continue
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, got, "\t", "  "); err != nil {
			t.Fatalf("%s: indent: %v", name, err)
		}
		for form, data := range map[string][]byte{"compact": got, "indented": indented.Bytes()} {
			var back Digest
			if err := back.UnmarshalJSON(data); err != nil {
				t.Errorf("%s %s: parse: %v", name, form, err)
				continue
			}
			checkOrdered(t, name, &back)
			if diff := sameDigest(&back, d); diff != "" {
				t.Errorf("%s %s: parsed digest differs in %s", name, form, diff)
			}
			if again, _ := back.MarshalJSON(); !bytes.Equal(again, want) {
				t.Errorf("%s %s: re-encoded to\n%s", name, form, again)
			}
		}
	}
	if got := codecCases()["collapsed"].Buckets(); got != maxBuckets {
		t.Errorf("collapsed digest holds %d buckets, want the cap %d", got, maxBuckets)
	}
}

// TestDigestJSONNonFinite: a digest holding an infinity does not encode,
// as encoding/json refuses it.
func TestDigestJSONNonFinite(t *testing.T) {
	d := New()
	d.Add(1)
	d.Add(math.Inf(1))
	if _, err := json.Marshal(d); err == nil {
		t.Error("encoded a digest whose sum and max are +Inf")
	}
}

// TestDigestJSONParse pins what the parser accepts beyond the encoder's
// own bytes, and what it refuses.
func TestDigestJSONParse(t *testing.T) {
	accept := []struct{ name, in, want string }{
		{"any key order and whitespace", " {\n\t\"max\" : 2 ,\"pos\":[ [69 , 1] ],\"count\":1,\r\"min\":2,\"sum\":2,\"alpha\":0.01}\n",
			`{"alpha":0.01,"count":1,"sum":2,"min":2,"max":2,"pos":[[69,1]]}`},
		{"repeated key keeps the last", `{"alpha":0.5,"alpha":0.01,"count":1,"sum":2,"min":2,"max":2,"pos":[[1,9]],"pos":[[69,1]]}`,
			`{"alpha":0.01,"count":1,"sum":2,"min":2,"max":2,"pos":[[69,1]]}`},
		{"pairs in any order, repeats summed", `{"alpha":0.01,"count":4,"sum":0,"min":-1,"max":2,"pos":[[70,1],[69,1],[70,1]],"neg":[[4294967295,1]]}`,
			`{"alpha":0.01,"count":4,"sum":0,"min":-1,"max":2,"pos":[[69,1],[70,2]],"neg":[[4294967295,1]]}`},
		{"index keeps its low 32 bits", `{"alpha":0.01,"count":1,"sum":1,"min":1,"max":1,"pos":[[4294967296,1]]}`,
			`{"alpha":0.01,"count":1,"sum":1,"min":1,"max":1,"pos":[[0,1]]}`},
		{"min and max ignored when empty", `{"alpha":0.01,"count":0,"sum":0,"min":5,"max":-5,"pos":[]}`,
			`{"alpha":0.01,"count":0,"sum":0,"min":0,"max":0}`},
	}
	for _, c := range accept {
		var d Digest
		if err := d.UnmarshalJSON([]byte(c.in)); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		checkOrdered(t, c.name, &d)
		if got, _ := d.MarshalJSON(); string(got) != c.want {
			t.Errorf("%s: re-encoded to %s, want %s", c.name, got, c.want)
		}
	}
	refuse := []struct{ name, in, why string }{
		{"not an object", `null`, "want an object"},
		{"null field", `{"alpha":0.01,"count":null}`, "want a number"},
		{"unknown key", `{"alpha":0.01,"extra":1}`, `unknown key "extra"`},
		{"differently spelled key", `{"Alpha":0.01}`, `unknown key "Alpha"`},
		{"escaped key", `{"\u0061lpha":0.01}`, "unknown key"},
		{"fractional count", `{"alpha":0.01,"count":1.5}`, "not an unsigned integer"},
		{"negative count", `{"alpha":0.01,"count":-1}`, "not an unsigned integer"},
		{"exponent count", `{"alpha":0.01,"count":1e2}`, "not an unsigned integer"},
		{"count overflow", `{"alpha":0.01,"count":18446744073709551616}`, "overflows uint64"},
		{"float overflow", `{"alpha":0.01,"sum":1e400}`, "out of range"},
		{"bad number", `{"alpha":0.01,"sum":01}`, "want ',' or '}'"},
		{"short pair", `{"alpha":0.01,"pos":[[1]]}`, "want ',' in a pair"},
		{"long pair", `{"alpha":0.01,"pos":[[1,2,3]]}`, "want ']' after a pair's count"},
		{"empty bucket", `{"alpha":0.01,"pos":[[1,0]]}`, "bucket 1 counts nothing"},
		{"trailing data", `{"alpha":0.01} {}`, "trailing data"},
		{"trailing comma", `{"alpha":0.01,}`, "want a key"},
		{"missing alpha", `{"count":0}`, "decoded alpha 0 out of (0,1)"},
		{"alpha out of range", `{"alpha":1}`, "decoded alpha 1 out of (0,1)"},
	}
	for _, c := range refuse {
		var d Digest
		if err := d.UnmarshalJSON([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%s: %s gave %v, want an error naming %q", c.name, c.in, err, c.why)
		}
	}
}

// FuzzDigestJSON checks the codec against the reference two ways. Read as
// JSON, an input the parser accepts is one the reference decoder accepts
// too, with the same digest. Read as float64 values, the input builds a
// digest whose encoding, compact or indented, parses back and re-encodes
// to the same bytes, which are the reference's.
func FuzzDigestJSON(f *testing.F) {
	for _, d := range codecCases() {
		if data, err := d.MarshalJSON(); err == nil && len(data) < 4096 {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"alpha":0.01,"count":2,"sum":3,"min":1,"max":2,"pos":[[55,1],[0,1],[55,0]]}`))
	f.Add([]byte(`{"count":1,"alpha":0.01,"pos":null,"min":1,"max":1,"sum":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if d.UnmarshalJSON(data) == nil {
			checkOrdered(t, "parsed", &d)
			ref, err := refUnmarshal(data)
			if err != nil {
				t.Fatalf("parser accepted %q, reference refused it: %v", data, err)
			}
			if diff := sameDigest(&d, ref); diff != "" {
				t.Fatalf("parser and reference differ in %s on %q", diff, data)
			}
		}

		built := New()
		for len(data) >= 8 {
			built.Add(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		checkOrdered(t, "built", built)
		want, refErr := refMarshal(built)
		got, err := built.MarshalJSON()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("encoder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote %s, reference %s", got, want)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, got, "", "  "); err != nil {
			t.Fatalf("indent %s: %v", got, err)
		}
		for _, form := range [][]byte{got, indented.Bytes()} {
			var back Digest
			if err := back.UnmarshalJSON(form); err != nil {
				t.Fatalf("parse of encoder output %s: %v", form, err)
			}
			if again, _ := back.MarshalJSON(); !bytes.Equal(again, got) {
				t.Fatalf("%s re-encoded to %s", form, again)
			}
		}
	})
}
