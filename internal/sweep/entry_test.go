package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// refDecodeEntry is the reference a call job's entry must decode as:
// json.Unmarshal into Metrics, then valid(), as every cache read did
// before the one-pass codec.
func refDecodeEntry(data []byte) (Metrics, error) {
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return Metrics{}, err
	}
	if !m.valid() {
		return Metrics{}, fmt.Errorf("invalid record %+v", m)
	}
	return m, nil
}

// checkEntryCodec holds the codec to the reference on one record: the
// encoder writes json.Marshal's bytes, and those bytes, compact and
// indented, decode to the reference's record.
func checkEntryCodec(t *testing.T, name string, m Metrics) {
	t.Helper()
	want, refErr := json.Marshal(m)
	got, err := appendCallEntry([]byte("kept"), m)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: encoder error %v, json.Marshal error %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("kept")) || !bytes.Equal(got[4:], want) {
		t.Fatalf("%s: encoder wrote\n%s\njson.Marshal wrote\n%s", name, got, want)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, want, "", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{want, indented.Bytes()} {
		back, err := decodeCallEntry(data)
		if err != nil {
			t.Fatalf("%s: decode %s: %v", name, data, err)
		}
		ref, err := refDecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: reference decode %s: %v", name, data, err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: decoded %+v, reference %+v", name, back, ref)
		}
	}
}

// TestCacheEntryMatchesEncodingJSON runs the codec over synthetic records
// and the edges of the wire form: a missing scalar, empty and nil series,
// and floats encoding/json writes in exponent form or as -0.
func TestCacheEntryMatchesEncodingJSON(t *testing.T) {
	s := synthSpec(t, `{"name":"codec","seeds":{"count":4}}`)
	for i := int64(0); i < s.Total(); i++ {
		j, _ := s.JobAt(i)
		checkEntryCodec(t, j.CellKey(), synthMetrics(j))
	}
	j, _ := s.JobAt(0)
	edge := func(f func(m *Metrics)) Metrics {
		m := synthMetrics(j)
		f(&m)
		return m
	}
	for name, m := range map[string]Metrics{
		"no cross dup":  edge(func(m *Metrics) { delete(m.Scalars, crossDupKey) }),
		"nil series":    edge(func(m *Metrics) { m.Series = nil }),
		"empty series":  edge(func(m *Metrics) { m.Series = map[string][]float64{} }),
		"nil slice":     edge(func(m *Metrics) { m.Series = map[string][]float64{"recovery_total_ms": nil} }),
		"empty slice":   edge(func(m *Metrics) { m.Series = map[string][]float64{"recovery_total_ms": {}} }),
		"no scalars":    edge(func(m *Metrics) { m.Scalars = map[string]float64{}; m.Poor = map[string]bool{} }),
		"exponent form": edge(func(m *Metrics) { m.Scalars[crossDupKey], m.Scalars[diversifiDupKey] = 1e21, 1e-7 }),
		"float edges": edge(func(m *Metrics) {
			m.Series = map[string][]float64{"recovery_detect_ms": {-0.0, 5e-324, math.MaxFloat64, -1.5e-300, 123456789e-15, 0.000001}}
		}),
	} {
		checkEntryCodec(t, name, m)
	}
}

// TestCacheEntryRefusals pins what the decoder refuses: anything the
// encoder never writes. Every case is a corrupt entry, so Runner.Do evicts
// it and re-executes the job.
func TestCacheEntryRefusals(t *testing.T) {
	const head = `{"schema":"sweep-metrics-v2","scalars":{"stronger_mos":4}`
	for _, c := range []struct{ name, in, why string }{
		{"empty", ``, "want an object"},
		{"not json", `not json`, "want an object"},
		{"stale schema", `{"schema":"sweep-metrics-v1","stronger_mos":4}`, "want schema sweep-metrics-v2"},
		{"escaped schema", `{"schema":"sweep-metrics-v\u0032"}`, "want schema sweep-metrics-v2"},
		{"unknown key", head + `,"extra":1,"poor":{}}`, `unknown key "extra"`},
		{"case-folded key", `{"Schema":"sweep-metrics-v2"}`, `unknown key "Schema"`},
		{"escaped key", `{"\u0073chema":"sweep-metrics-v2"}`, "unknown key"},
		{"case-folded metric", head + `,"poor":{"Cross":true}}`, `unknown key "Cross"`},
		{"metric of another kind", `{"scalars":{"recovery_total_ms":1}}`, `unknown key "recovery_total_ms"`},
		{"metric outside the table", `{"scalars":{"stronger_loss":1}}`, `unknown key "stronger_loss"`},
		{"result", head + `,"poor":{},"result":{"ID":"fig7"}}`, `unknown key "result"`},
		{"null scalars", `{"schema":"sweep-metrics-v2","scalars":null}`, "want an object"},
		{"null series", head + `,"series":null}`, "want an object"},
		{"null scalar", `{"scalars":{"stronger_mos":null}}`, "want a number"},
		{"null flag", `{"poor":{"cross":null}}`, "want true or false"},
		{"flag as a number", `{"poor":{"cross":1}}`, "want true or false"},
		{"series as a number", `{"series":{"recovery_total_ms":1}}`, "want an array of numbers"},
		{"hole in a series", `{"series":{"recovery_total_ms":[1,,2]}}`, "want a number"},
		{"float overflow", `{"scalars":{"stronger_mos":1e400}}`, "out of range"},
		{"trailing comma", head + `,}`, "want a key"},
		{"trailing data", head + `,"poor":{}} {}`, "trailing data"},
		{"no poor flags", head + `}`, "want schema, scalars and poor"},
		{"no schema", `{"scalars":{},"poor":{}}`, "want schema, scalars and poor"},
	} {
		if _, err := decodeCallEntry([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%s: %s gave %v, want an error naming %q", c.name, c.in, err, c.why)
		}
	}
}

// TestCacheEntryEncodeRefusals: a record the decoder would refuse, or
// one json.Marshal refuses, is not encoded, so Runner.Do stores nothing
// for it.
func TestCacheEntryEncodeRefusals(t *testing.T) {
	s := synthSpec(t, `{"name":"refuse","seeds":{"count":1}}`)
	j, _ := s.JobAt(0)
	for name, f := range map[string]func(m *Metrics){
		"NaN":           func(m *Metrics) { m.Scalars[crossDupKey] = math.NaN() },
		"infinity":      func(m *Metrics) { m.Series = map[string][]float64{"recovery_total_ms": {1, math.Inf(-1)}} },
		"stale schema":  func(m *Metrics) { m.Schema = "sweep-metrics-v1" },
		"nil scalars":   func(m *Metrics) { m.Scalars = nil },
		"nil poor":      func(m *Metrics) { m.Poor = nil },
		"result":        func(m *Metrics) { m.Result = fakeResult(j).Result },
		"foreign key":   func(m *Metrics) { m.Scalars["stronger_loss"] = 1 },
		"foreign flag":  func(m *Metrics) { m.Poor["fec"] = true },
		"scalar series": func(m *Metrics) { m.Series = map[string][]float64{"cross_mos": {1}} },
	} {
		m := synthMetrics(j)
		f(&m)
		if data, err := appendCallEntry(nil, m); err == nil {
			t.Errorf("%s: encoded %s", name, data)
		}
	}

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	r := &Runner{Cache: cache, RunFunc: func(j Job) Metrics {
		calls++
		m := synthMetrics(j)
		m.Scalars[crossDupKey] = math.Inf(1)
		return m
	}}
	for i := 1; i <= 2; i++ {
		if _, cached, err := r.Do(j); err != nil || cached || calls != i {
			t.Fatalf("Do %d of a record with +Inf: cached=%v err=%v calls=%d", i, cached, err, calls)
		}
		if data, ok := cache.LoadRaw(j.Key()); ok {
			t.Fatalf("a record with +Inf was stored as %s", data)
		}
	}
}

// TestCacheEntryKnowsMetricsFields fails when Metrics gains, loses or
// reorders a JSON field, or a JSON method: the call-entry codec writes and
// reads exactly these fields in this order (result only ever in an
// experiment's entry), and bench/ compares its entries with json.Marshal.
func TestCacheEntryKnowsMetricsFields(t *testing.T) {
	var got []string
	rt := reflect.TypeOf(Metrics{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		got = append(got, fmt.Sprintf("%s %s %s", f.Name, f.Type, f.Tag.Get("json")))
	}
	want := []string{
		"Schema string schema",
		"Scalars map[string]float64 scalars",
		"Series map[string][]float64 series,omitempty",
		"Poor map[string]bool poor",
		"Result *exp.Result result,omitempty",
	}
	if !slices.Equal(got, want) {
		t.Errorf("Metrics fields changed; the cache-entry codec knows\n%s\nMetrics has\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	for _, v := range []any{Metrics{}, &Metrics{}} {
		if _, ok := v.(json.Marshaler); ok {
			t.Errorf("%T has a MarshalJSON method", v)
		}
		if _, ok := v.(json.Unmarshaler); ok {
			t.Errorf("%T has an UnmarshalJSON method", v)
		}
	}
}

// cachedEntryJob is the job testdata/cached-entry.json was written for:
// job 51 of a default spec, a 120 s congestion call with 99 recoveries.
func cachedEntryJob(t *testing.T) Job {
	t.Helper()
	j, err := synthSpec(t, `{"name":"ceiling","seeds":{"start":1,"count":2}}`).JobAt(51)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCachedEntryFromEncodingJSONResolves: testdata/cached-entry.json is
// an entry as the json.Marshal encoder wrote it before the one-pass
// codec. It must resolve from the cache without re-execution, to
// json.Unmarshal's record, which re-encodes to the same bytes and equals
// a fresh run of the job.
func TestCachedEntryFromEncodingJSONResolves(t *testing.T) {
	data, err := os.ReadFile("testdata/cached-entry.json")
	if err != nil {
		t.Fatal(err)
	}
	j := cachedEntryJob(t)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.StoreRaw(j.Key(), data); err != nil {
		t.Fatal(err)
	}
	calls := 0
	r := &Runner{Cache: cache, RunFunc: func(j Job) Metrics { calls++; return RunJob(j) }}
	m, cached, err := r.Do(j)
	if err != nil || !cached || calls != 0 {
		t.Fatalf("cached=%v err=%v executions=%d, want a cache hit", cached, err, calls)
	}
	ref, err := refDecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, ref) {
		t.Errorf("resolved %+v, json.Unmarshal read %+v", m, ref)
	}
	if n := len(m.Series["recovery_total_ms"]); n != 99 {
		t.Errorf("entry holds %d recoveries, want 99", n)
	}
	if got, err := appendCallEntry(nil, m); err != nil || !bytes.Equal(got, data) {
		t.Errorf("re-encoded to %s (%v)", got, err)
	}
	if fresh := RunJob(j); !reflect.DeepEqual(fresh, m) {
		t.Errorf("the entry no longer equals a fresh run of its job")
	}
}

// TestCacheEntriesMatchEncodingJSONOnGrid: over a default grid of 120 s
// calls (60 jobs), every entry Runner.Do writes is json.Marshal's bytes
// for the job's record, and resolves to json.Unmarshal's record of them.
func TestCacheEntriesMatchEncodingJSONOnGrid(t *testing.T) {
	s := synthSpec(t, `{"name":"grid","seeds":{"start":1,"count":2}}`)
	if s.DurationS != 120 || s.Total() != 60 {
		t.Fatalf("default grid is %d jobs of %v s, want 60 of 120", s.Total(), s.DurationS)
	}
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache}
	recoveries := 0
	for i := int64(0); i < s.Total(); i++ {
		j, _ := s.JobAt(i)
		m, cached, err := r.Do(j)
		if err != nil || cached {
			t.Fatalf("job %d: cached=%v err=%v", i, cached, err)
		}
		recoveries += len(m.Series["recovery_total_ms"])
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := cache.LoadRaw(j.Key()); !ok || !bytes.Equal(got, want) {
			t.Fatalf("job %d: entry\n%s\njson.Marshal\n%s", i, got, want)
		}
		ref, err := refDecodeEntry(want)
		if err != nil {
			t.Fatal(err)
		}
		back, cached, err := r.Do(j)
		if err != nil || !cached || !reflect.DeepEqual(back, ref) {
			t.Fatalf("job %d: resolved %+v (cached=%v err=%v), json.Unmarshal read %+v", i, back, cached, err, ref)
		}
	}
	if recoveries == 0 {
		t.Error("no job of the grid recovered a loss")
	}
}

// TestCachedResolvesShareBuffers resolves a warm grid from four goroutines
// at once, each record from a pooled buffer another goroutine may have
// read a different entry into. Each must equal its job's record.
func TestCachedResolvesShareBuffers(t *testing.T) {
	s := synthSpec(t, `{"name":"share","seeds":{"count":2}}`)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache, RunFunc: synthMetrics}
	jobs, want := make([]Job, s.Total()), make([]Metrics, s.Total())
	for i := range jobs {
		jobs[i], _ = s.JobAt(int64(i))
		if _, _, err := r.Do(jobs[i]); err != nil {
			t.Fatal(err)
		}
		if want[i], _, err = r.Do(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				i := (g + k) % len(jobs)
				m, cached, err := r.Do(jobs[i])
				if err != nil || !cached || !reflect.DeepEqual(m, want[i]) {
					t.Errorf("goroutine %d, job %d: cached=%v err=%v, resolved %+v, want %+v", g, i, cached, err, m, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzCacheEntry checks the codec against encoding/json two ways. Read as
// an entry, an input the decoder accepts is one json.Unmarshal and valid()
// accept too, with a DeepEqual record. Read as a record (a flag byte per
// table key, eight bytes per float), the input builds a record the encoder
// writes as json.Marshal does, refusing the same ones, and whose bytes
// decode back to it.
func FuzzCacheEntry(f *testing.F) {
	s, err := ParseSpec([]byte(`{"name":"fuzz","seeds":{"count":1}}`))
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		j, _ := s.JobAt(i)
		if data, err := json.Marshal(synthMetrics(j)); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"poor":{},"series":{"recovery_total_ms":null,"recovery_detect_ms":[]},"scalars":{},"schema":"sweep-metrics-v2"}`))
	f.Add([]byte(` {"schema":"sweep-metrics-v2","scalars":{"cross_mos":1},"scalars":{"cross_mos":2e-7},"poor":{"cross":true}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := decodeCallEntry(data); err == nil {
			ref, err := refDecodeEntry(data)
			if err != nil {
				t.Fatalf("decoder accepted %q, reference refused it: %v", data, err)
			}
			if !reflect.DeepEqual(m, ref) {
				t.Fatalf("decoder read %+v, reference %+v from %q", m, ref, data)
			}
		}

		m := fuzzRecord(data)
		want, refErr := json.Marshal(m)
		got, err := appendCallEntry(nil, m)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("encoder error %v, json.Marshal error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote %s, json.Marshal %s", got, want)
		}
		back, err := decodeCallEntry(got)
		if len(m.Series) == 0 {
			m.Series = nil // omitted when empty, so it reads back nil
		}
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%s read back as %+v (%v)", got, back, err)
		}
	})
}

// fuzzRecord builds a record of table keys from data: per key a flag byte
// says whether it is present (for a series, also whether nil, and how
// long), and each float is the float64 of the next eight bytes.
func fuzzRecord(data []byte) Metrics {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	float := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	m := Metrics{Schema: MetricsSchema, Scalars: map[string]float64{}, Poor: map[string]bool{}}
	for _, k := range entryScalarKeys {
		if next()&1 != 0 {
			m.Scalars[k] = float()
		}
	}
	if next()&1 != 0 {
		m.Series = map[string][]float64{}
		for _, k := range entrySeriesKeys {
			switch flag := next(); {
			case flag&1 == 0:
			case flag&2 == 0:
				m.Series[k] = nil
			default:
				s := make([]float64, flag>>2%5)
				for i := range s {
					s[i] = float()
				}
				m.Series[k] = s
			}
		}
	}
	for _, k := range entryPoorKeys {
		if flag := next(); flag&1 != 0 {
			m.Poor[k] = flag&2 != 0
		}
	}
	return m
}
