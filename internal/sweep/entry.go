package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/exp"
	"repro/internal/sketch/jsonscan"
)

// A call job's cache entry is its Metrics record in the bytes
// json.Marshal writes for it:
//
//	{"schema":"sweep-metrics-v2","scalars":{"cross_dup_bytes":960,…},"series":{"recovery_detect_ms":[77.2],…},"poor":{"cross":false,…}}
//
// Map keys come sorted, as encoding/json sorts them, floats in
// encoding/json's format; series is left out when empty, and a nil
// series slice is written null. The codec below writes and reads exactly
// these bytes in one pass. Its keys come from the metric table and
// Strategies(), so a new metric needs no codec change. It refuses to
// encode a record the decoder would refuse (another schema, nil scalars
// or poor flags, a result, a key outside the table) and, as
// encoding/json does, a NaN or an infinity; Runner.Do then stores no
// entry. The decoder refuses anything the encoder never writes: an
// unknown or case-folded key, an escape, a null other than a nil series,
// trailing data. Runner.Do evicts a refused entry and runs its job once
// more.

// The table's keys by kind, sorted as encoding/json sorts map keys.
var (
	entryScalarKeys = entryKeys(KindScalar)
	entrySeriesKeys = entryKeys(KindSeries)
	entryPoorKeys   = sortedStrategies()
)

func entryKeys(kind MetricKind) []string {
	var keys []string
	for _, d := range metricDefs {
		if d.Kind == kind {
			keys = append(keys, d.Key)
		}
	}
	slices.Sort(keys)
	return keys
}

func sortedStrategies() []string {
	s := Strategies()
	slices.Sort(s)
	return s
}

// decodeEntry reads a cache entry: an experiment job's is the bare
// exp.Result, a call job's its Metrics record. ok=false means corrupt or
// stale. Neither keeps any of data.
func decodeEntry(j Job, data []byte) (m Metrics, ok bool) {
	if j.experiment != nil {
		var r exp.Result
		if json.Unmarshal(data, &r) != nil || r.ID == "" {
			return Metrics{}, false
		}
		return Metrics{Schema: MetricsSchema, Result: &r}, true
	}
	m, err := decodeCallEntry(data)
	return m, err == nil
}

// encodeEntry is decodeEntry's inverse, in the bytes both caches have
// always written. A call job's entry is appended to buf.
func encodeEntry(j Job, m Metrics, buf []byte) ([]byte, error) {
	if j.experiment != nil {
		return json.MarshalIndent(m.Result, "", " ")
	}
	return appendCallEntry(buf, m)
}

// appendCallEntry appends m's cache entry to b.
func appendCallEntry(b []byte, m Metrics) ([]byte, error) {
	if !m.valid() || m.Result != nil {
		return b, errors.New("sweep: encode cache entry: want a call's record of the current schema")
	}
	var err error
	b = append(b, `{"schema":"`+MetricsSchema+`","scalars":`...)
	if b, err = appendEntryMap(b, entryScalarKeys, m.Scalars, appendEntryFloat); err != nil {
		return b, err
	}
	if len(m.Series) > 0 {
		b = append(b, `,"series":`...)
		if b, err = appendEntryMap(b, entrySeriesKeys, m.Series, appendEntrySeries); err != nil {
			return b, err
		}
	}
	b = append(b, `,"poor":`...)
	if b, err = appendEntryMap(b, entryPoorKeys, m.Poor, appendEntryBool); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendEntryMap appends m as an object in the order of keys, its sorted
// table keys, and fails on a key of m outside them.
func appendEntryMap[V any](b []byte, keys []string, m map[string]V, appendValue func([]byte, V) ([]byte, error)) ([]byte, error) {
	b = append(b, '{')
	n := 0
	for _, k := range keys {
		v, ok := m[k]
		if !ok {
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, '"', ':')
		var err error
		if b, err = appendValue(b, v); err != nil {
			return b, err
		}
	}
	if n != len(m) {
		return b, errors.New("sweep: encode cache entry: a key outside the metric table")
	}
	return append(b, '}'), nil
}

func appendEntryFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("sweep: encode cache entry: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return jsonscan.AppendFloat(b, f), nil
}

func appendEntrySeries(b []byte, s []float64) ([]byte, error) {
	if s == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range s {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendEntryFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendEntryBool(b []byte, v bool) ([]byte, error) {
	return strconv.AppendBool(b, v), nil
}

// decodeCallEntry reads a call job's cache entry in one pass, into maps
// presized from the table and keyed by the table's own strings. It takes
// any JSON whitespace and key order, and a repeated key keeps its last
// value, as json.Unmarshal does; it refuses what the encoder never writes.
func decodeCallEntry(data []byte) (Metrics, error) {
	p := jsonscan.New(data, "sweep: decode cache entry")
	var m Metrics
	err := p.Object(func(key []byte) error {
		switch string(key) {
		case "schema":
			if !p.Literal(`"` + MetricsSchema + `"`) {
				return p.Fail("want schema " + MetricsSchema)
			}
			m.Schema = MetricsSchema
			return nil
		case "scalars":
			if m.Scalars == nil {
				m.Scalars = make(map[string]float64, len(entryScalarKeys))
			}
			return readEntryMap(&p, entryScalarKeys, m.Scalars, (*jsonscan.Scanner).Float)
		case "series":
			if m.Series == nil {
				m.Series = make(map[string][]float64, len(entrySeriesKeys))
			}
			return readEntryMap(&p, entrySeriesKeys, m.Series, readEntrySeries)
		case "poor":
			if m.Poor == nil {
				m.Poor = make(map[string]bool, len(entryPoorKeys))
			}
			return readEntryMap(&p, entryPoorKeys, m.Poor, readEntryBool)
		}
		return p.Fail(fmt.Sprintf("unknown key %q", key))
	})
	switch {
	case err != nil:
		return Metrics{}, err
	case !p.End():
		return Metrics{}, p.Fail("trailing data after the object")
	case !m.valid():
		return Metrics{}, errors.New("sweep: decode cache entry: want schema, scalars and poor")
	}
	return m, nil
}

// readEntryMap reads an object whose keys are among keys into m.
func readEntryMap[V any](p *jsonscan.Scanner, keys []string, m map[string]V, readValue func(*jsonscan.Scanner) (V, error)) error {
	return p.Object(func(key []byte) error {
		i := slices.IndexFunc(keys, func(k string) bool { return k == string(key) })
		if i < 0 {
			return p.Fail(fmt.Sprintf("unknown key %q", key))
		}
		v, err := readValue(p)
		m[keys[i]] = v
		return err
	})
}

// readEntrySeries reads null or an array of numbers, into a slice of
// exactly its length.
func readEntrySeries(p *jsonscan.Scanner) ([]float64, error) {
	if p.Literal("null") {
		return nil, nil
	}
	if !p.Consume('[') {
		return nil, p.Fail("want an array of numbers")
	}
	if p.Consume(']') {
		return []float64{}, nil
	}
	// Numbers hold no ',' or ']', so the array holds one more number than
	// the commas before its first ']'.
	n := 1
	if end := bytes.IndexByte(p.Rest(), ']'); end > 0 {
		n += bytes.Count(p.Rest()[:end], []byte{','})
	}
	s := make([]float64, 0, n)
	for {
		f, err := p.Float()
		if err != nil {
			return nil, err
		}
		s = append(s, f)
		if p.Consume(']') {
			return s, nil
		}
		if !p.Consume(',') {
			return nil, p.Fail("want ',' or ']'")
		}
	}
}

func readEntryBool(p *jsonscan.Scanner) (bool, error) {
	switch {
	case p.Literal("true"):
		return true, nil
	case p.Literal("false"):
		return false, nil
	}
	return false, p.Fail("want true or false")
}

// entryBufs holds the buffers Runner.Do reads and encodes cache entries
// through, so a resolve allocates none. The codecs keep nothing of a
// buffer: a decoded record's keys are the metric table's strings.
var entryBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEntry caps a buffer put back in entryBufs: an experiment's
// entry can run to tens of KiB, and one must not stay pinned in the pool.
const maxPooledEntry = 16 << 10

func putEntryBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledEntry {
		entryBufs.Put(buf)
	}
}
