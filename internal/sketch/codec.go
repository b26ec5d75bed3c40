package sketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/sketch/jsonscan"
)

// The wire form of a digest is one JSON object with the keys alpha, count,
// zero, sum, min, max, pos and neg, in that order:
//
//	{"alpha":0.01,"count":3,"zero":2,"sum":32,"min":0,"max":32,"pos":[[174,1]]}
//
// zero, pos and neg are left out when empty, and min and max read 0 on an
// empty digest. pos and neg list the non-empty buckets as [index, count]
// pairs in ascending index order, each index written as its uint32 bits.
// Floats are formatted as encoding/json formats a float64, so the bytes
// are those encoding/json writes for a struct of these fields.

// MarshalJSON encodes the digest canonically, in one pass.
func (d *Digest) MarshalJSON() ([]byte, error) {
	mn, mx := 0.0, 0.0
	if d.count > 0 {
		mn, mx = d.min, d.max
	}
	for _, f := range [...]float64{d.alpha, d.sum, mn, mx} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("sketch: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	// A pair is rarely longer than 16 bytes; append grows the rare one.
	b := make([]byte, 0, 96+16*(len(d.pos)+len(d.neg)))
	b = append(b, `{"alpha":`...)
	b = jsonscan.AppendFloat(b, d.alpha)
	b = append(b, `,"count":`...)
	b = strconv.AppendUint(b, d.count, 10)
	if d.zero != 0 {
		b = append(b, `,"zero":`...)
		b = strconv.AppendUint(b, d.zero, 10)
	}
	b = append(b, `,"sum":`...)
	b = jsonscan.AppendFloat(b, d.sum)
	b = append(b, `,"min":`...)
	b = jsonscan.AppendFloat(b, mn)
	b = append(b, `,"max":`...)
	b = jsonscan.AppendFloat(b, mx)
	b = appendPairs(b, `,"pos":`, d.pos)
	b = appendPairs(b, `,"neg":`, d.neg)
	return append(b, '}'), nil
}

// appendPairs appends key and bs as [index, count] pairs, or nothing when
// bs is empty.
func appendPairs(b []byte, key string, bs []bucket) []byte {
	if len(bs) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	for i, bk := range bs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(uint32(bk.idx)), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, bk.n, 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// UnmarshalJSON decodes a digest in one pass, straight into its bucket
// slices. It takes any JSON whitespace and any key order, and a repeated
// key keeps its last value, as in encoding/json; pairs may come in any
// order, and a repeated index adds up. It refuses an unknown key (keys
// are matched exactly), a null, a number encoding/json would refuse for
// the field, a pair that is not two numbers, and a bucket counting
// nothing. Min and max are ignored on an empty digest.
func (d *Digest) UnmarshalJSON(data []byte) error {
	p := jsonscan.New(data, "sketch: decode digest")
	var (
		alpha, sum, mn, mx float64
		count, zero        uint64
		pos, neg           []bucket
	)
	err := p.Object(func(key []byte) (err error) {
		switch string(key) {
		case "alpha":
			alpha, err = p.Float()
		case "count":
			count, err = p.Unsigned()
		case "zero":
			zero, err = p.Unsigned()
		case "sum":
			sum, err = p.Float()
		case "min":
			mn, err = p.Float()
		case "max":
			mx, err = p.Float()
		case "pos":
			pos, err = readPairs(&p)
		case "neg":
			neg, err = readPairs(&p)
		default:
			err = p.Fail(fmt.Sprintf("unknown key %q", key))
		}
		return err
	})
	if err != nil {
		return err
	}
	if !p.End() {
		return p.Fail("trailing data after the object")
	}
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("sketch: decoded alpha %v out of (0,1)", alpha)
	}
	d.reset(alpha)
	d.count, d.zero, d.sum = count, zero, sum
	d.pos, d.neg = pos, neg
	if count > 0 {
		d.min, d.max = mn, mx
	}
	return nil
}

// readPairs reads an array of [index, count] pairs into buckets in
// ascending index order, each index read as the int32 of its low 32 bits.
func readPairs(p *jsonscan.Scanner) ([]bucket, error) {
	if !p.Consume('[') {
		return nil, p.Fail("want an array of [index, count] pairs")
	}
	if p.Consume(']') {
		return nil, nil
	}
	bs := make([]bucket, 0, pairsAhead(p.Rest()))
	sorted := true
	for {
		if !p.Consume('[') {
			return nil, p.Fail("want an [index, count] pair")
		}
		idx, err := p.Unsigned()
		if err != nil {
			return nil, err
		}
		if !p.Consume(',') {
			return nil, p.Fail("want ',' in a pair")
		}
		n, err := p.Unsigned()
		if err != nil {
			return nil, err
		}
		if !p.Consume(']') {
			return nil, p.Fail("want ']' after a pair's count")
		}
		b := bucket{idx: int32(uint32(idx)), n: n}
		if len(bs) > 0 && b.idx <= bs[len(bs)-1].idx {
			sorted = false
		}
		bs = append(bs, b)
		if p.Consume(']') {
			break
		}
		if !p.Consume(',') {
			return nil, p.Fail("want ',' or ']' after a pair")
		}
	}
	if !sorted {
		slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.idx, b.idx) })
		out := bs[:1]
		for _, b := range bs[1:] {
			if last := &out[len(out)-1]; last.idx == b.idx {
				last.n += b.n
			} else {
				out = append(out, b)
			}
		}
		bs = out
	}
	for _, b := range bs {
		if b.n == 0 {
			return nil, p.Fail(fmt.Sprintf("bucket %d counts nothing", b.idx))
		}
	}
	return bs, nil
}

// pairsAhead bounds how many pairs the array being read holds: the '['
// in rest before the ']' that closes the array, at most maxBuckets, so a
// hostile array cannot make the parser allocate more than a full digest up
// front.
func pairsAhead(rest []byte) int {
	n, depth := 0, 0
	for _, c := range rest {
		switch c {
		case '[':
			n++
			depth++
		case ']':
			if depth == 0 {
				return min(n, maxBuckets)
			}
			depth--
		}
	}
	return min(n, maxBuckets)
}
