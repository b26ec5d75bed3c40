package sketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
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
	b = appendFloat(b, d.alpha)
	b = append(b, `,"count":`...)
	b = strconv.AppendUint(b, d.count, 10)
	if d.zero != 0 {
		b = append(b, `,"zero":`...)
		b = strconv.AppendUint(b, d.zero, 10)
	}
	b = append(b, `,"sum":`...)
	b = appendFloat(b, d.sum)
	b = append(b, `,"min":`...)
	b = appendFloat(b, mn)
	b = append(b, `,"max":`...)
	b = appendFloat(b, mx)
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

// appendFloat formats a finite f as encoding/json formats a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21, with a one-digit negative exponent written e-7, not e-07.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n-start >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON decodes a digest in one pass, straight into its bucket
// slices. It takes any JSON whitespace and any key order, and a repeated
// key keeps its last value, as in encoding/json; pairs may come in any
// order, and a repeated index adds up. It refuses an unknown key (keys
// are matched exactly), a null, a number encoding/json would refuse for
// the field, a pair that is not two numbers, and a bucket counting
// nothing. Min and max are ignored on an empty digest.
func (d *Digest) UnmarshalJSON(data []byte) error {
	p := parser{data: data}
	var (
		alpha, sum, mn, mx float64
		count, zero        uint64
		pos, neg           []bucket
		err                error
	)
	if !p.consume('{') {
		return p.fail("want an object")
	}
	for more := !p.consume('}'); more; {
		var key []byte
		if key, err = p.key(); err != nil {
			return err
		}
		if !p.consume(':') {
			return p.fail("want ':'")
		}
		switch string(key) {
		case "alpha":
			alpha, err = p.float()
		case "count":
			count, err = p.unsigned()
		case "zero":
			zero, err = p.unsigned()
		case "sum":
			sum, err = p.float()
		case "min":
			mn, err = p.float()
		case "max":
			mx, err = p.float()
		case "pos":
			pos, err = p.pairs()
		case "neg":
			neg, err = p.pairs()
		default:
			return p.fail(fmt.Sprintf("unknown key %q", key))
		}
		if err != nil {
			return err
		}
		if more = !p.consume('}'); more && !p.consume(',') {
			return p.fail("want ',' or '}'")
		}
	}
	if p.space(); p.off != len(data) {
		return p.fail("trailing data after the object")
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

// parser reads one digest's JSON, data[off:] being what is left.
type parser struct {
	data []byte
	off  int
}

func (p *parser) fail(msg string) error {
	return fmt.Errorf("sketch: decode digest at byte %d: %s", p.off, msg)
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (p *parser) consume(c byte) bool {
	p.space()
	if p.off < len(p.data) && p.data[p.off] == c {
		p.off++
		return true
	}
	return false
}

// key reads an object key. A key with an escape or a control character
// cannot spell one of the digest's keys as written, so it is refused.
func (p *parser) key() ([]byte, error) {
	if !p.consume('"') {
		return nil, p.fail("want a key")
	}
	start := p.off
	for ; p.off < len(p.data); p.off++ {
		switch c := p.data[p.off]; {
		case c == '"':
			p.off++
			return p.data[start : p.off-1], nil
		case c == '\\' || c < 0x20:
			return nil, p.fail("unknown key")
		}
	}
	return nil, p.fail("unterminated key")
}

// number reads one number as the JSON grammar spells it.
func (p *parser) number() ([]byte, error) {
	p.space()
	b, i := p.data, p.off
	digits := func() {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		return nil, p.fail("want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, p.fail("want a digit after '.'")
		}
		digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, p.fail("want a digit in the exponent")
		}
		digits()
	}
	num := b[p.off:i]
	p.off = i
	return num, nil
}

// float reads a number as encoding/json reads a float64: one out of its
// range is refused.
func (p *parser) float() (float64, error) {
	num, err := p.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, p.fail(fmt.Sprintf("number %s out of range", num))
	}
	return f, nil
}

// unsigned reads a number as encoding/json reads a uint64: only digits, and
// at most math.MaxUint64.
func (p *parser) unsigned() (uint64, error) {
	num, err := p.number()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, p.fail(fmt.Sprintf("number %s is not an unsigned integer", num))
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, p.fail(fmt.Sprintf("number %s overflows uint64", num))
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// pairs reads an array of [index, count] pairs into buckets in ascending
// index order, each index read as the int32 of its low 32 bits.
func (p *parser) pairs() ([]bucket, error) {
	if !p.consume('[') {
		return nil, p.fail("want an array of [index, count] pairs")
	}
	if p.consume(']') {
		return nil, nil
	}
	bs := make([]bucket, 0, p.pairsAhead())
	sorted := true
	for {
		if !p.consume('[') {
			return nil, p.fail("want an [index, count] pair")
		}
		idx, err := p.unsigned()
		if err != nil {
			return nil, err
		}
		if !p.consume(',') {
			return nil, p.fail("want ',' in a pair")
		}
		n, err := p.unsigned()
		if err != nil {
			return nil, err
		}
		if !p.consume(']') {
			return nil, p.fail("want ']' after a pair's count")
		}
		b := bucket{idx: int32(uint32(idx)), n: n}
		if len(bs) > 0 && b.idx <= bs[len(bs)-1].idx {
			sorted = false
		}
		bs = append(bs, b)
		if p.consume(']') {
			break
		}
		if !p.consume(',') {
			return nil, p.fail("want ',' or ']' after a pair")
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
			return nil, p.fail(fmt.Sprintf("bucket %d counts nothing", b.idx))
		}
	}
	return bs, nil
}

// pairsAhead bounds how many pairs the array being read holds: the '['
// before the ']' that closes it, at most maxBuckets, so a hostile array
// cannot make the parser allocate more than a full digest up front.
func (p *parser) pairsAhead() int {
	n, depth := 0, 0
	for _, c := range p.data[p.off:] {
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
