// Package jsonscan is the one JSON scanner behind the repository's
// one-pass codecs: a sketch digest's and a sweep job's cache entry. Each
// codec writes the bytes encoding/json writes for its type, with
// AppendFloat for the floats, and reads them back through a Scanner
// without reflection, refusing what it does not know. Errors carry the
// codec's own prefix and the byte offset where reading stopped.
package jsonscan

import (
	"fmt"
	"math"
	"strconv"
)

// Scanner reads one JSON value from data, data[off:] being what is left.
type Scanner struct {
	data   []byte
	off    int
	prefix string
}

// New returns a Scanner over data whose errors start with prefix.
func New(data []byte, prefix string) Scanner {
	return Scanner{data: data, prefix: prefix}
}

// Fail returns an error naming msg and the offset reading stopped at.
func (s *Scanner) Fail(msg string) error {
	return fmt.Errorf("%s at byte %d: %s", s.prefix, s.off, msg)
}

// Rest returns what is left to read.
func (s *Scanner) Rest() []byte { return s.data[s.off:] }

// End skips whitespace and reports whether nothing is left.
func (s *Scanner) End() bool {
	s.space()
	return s.off == len(s.data)
}

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// Consume skips whitespace and then c, reporting whether c was next.
func (s *Scanner) Consume(c byte) bool {
	s.space()
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// Literal skips whitespace and then lit, reporting whether lit was next.
// It reads true, false and null, and a string spelled exactly.
func (s *Scanner) Literal(lit string) bool {
	s.space()
	if rest := s.data[s.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		s.off += len(lit)
		return true
	}
	return false
}

// Object reads an object, calling field with each key once its ':' is
// read; field reads the value. A repeated key calls field again.
func (s *Scanner) Object(field func(key []byte) error) error {
	if !s.Consume('{') {
		return s.Fail("want an object")
	}
	for more := !s.Consume('}'); more; {
		key, err := s.key()
		if err != nil {
			return err
		}
		if !s.Consume(':') {
			return s.Fail("want ':'")
		}
		if err := field(key); err != nil {
			return err
		}
		if more = !s.Consume('}'); more && !s.Consume(',') {
			return s.Fail("want ',' or '}'")
		}
	}
	return nil
}

// key reads an object key. A key with an escape or a control character
// cannot spell a codec's key as written, so it is refused.
func (s *Scanner) key() ([]byte, error) {
	if !s.Consume('"') {
		return nil, s.Fail("want a key")
	}
	start := s.off
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; {
		case c == '"':
			s.off++
			return s.data[start : s.off-1], nil
		case c == '\\' || c < 0x20:
			return nil, s.Fail("unknown key")
		}
	}
	return nil, s.Fail("unterminated key")
}

// number reads one number as the JSON grammar spells it.
func (s *Scanner) number() ([]byte, error) {
	s.space()
	b, i := s.data, s.off
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
		return nil, s.Fail("want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, s.Fail("want a digit after '.'")
		}
		digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, s.Fail("want a digit in the exponent")
		}
		digits()
	}
	num := b[s.off:i]
	s.off = i
	return num, nil
}

// Float reads a number as encoding/json reads a float64: one out of its
// range is refused.
func (s *Scanner) Float() (float64, error) {
	num, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, s.Fail(fmt.Sprintf("number %s out of range", num))
	}
	return f, nil
}

// Unsigned reads a number as encoding/json reads a uint64: only digits,
// and at most math.MaxUint64.
func (s *Scanner) Unsigned() (uint64, error) {
	num, err := s.number()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, s.Fail(fmt.Sprintf("number %s is not an unsigned integer", num))
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, s.Fail(fmt.Sprintf("number %s overflows uint64", num))
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// AppendFloat formats a finite f as encoding/json formats a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21, with a one-digit negative exponent written e-7, not e-07.
func AppendFloat(b []byte, f float64) []byte {
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
