package analyze

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// FuzzAnalyze feeds arbitrary JSONL to the engine and asserts its
// invariants across all three families: it never panics; its decode-kind
// violations identify exactly the non-blank lines obs.DecodeEvent rejects
// — no silent acceptance of malformed lines, no spurious rejection of
// valid ones; it counts every line; every decoded event has exactly one
// owning family; and ChromeTrace renders the same input as valid JSON.
func FuzzAnalyze(f *testing.F) {
	jsonl := func(evs []obs.Event) []byte {
		var lines [][]byte
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				f.Fatal(err)
			}
			lines = append(lines, line)
		}
		return bytes.Join(lines, []byte("\n"))
	}
	samples := [][]obs.Event{obs.SampleEvents(), obs.SampleFleetEvents(), obs.SampleSLOEvents()}
	var mixed []obs.Event
	for i := 0; i < len(samples[0]) || i < len(samples[1]) || i < len(samples[2]); i++ {
		for _, s := range samples {
			if i < len(s) {
				mixed = append(mixed, s[i])
			}
		}
	}
	for _, s := range samples {
		f.Add(jsonl(s))
	}
	f.Add(jsonl(mixed))
	f.Add([]byte(""))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte("not json\n" + `{"t_us":1,"ev":"warp","seq":-1}` + "\n"))
	f.Add([]byte(`{"t_us":100,"ev":"link-switch","node":"c","seq":1,"detail":"to-secondary"}` + "\n" +
		`{"t_us":200,"ev":"retrieve-from-secondary","node":"c","seq":1,"dur_us":100}`))
	f.Add([]byte(`{"t_us":9223372036854775807,"ev":"playout-miss","node":"c","seq":0}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Analyze(bytes.NewReader(data),
			Options{MaxViolations: -1, KeepEpisodes: true, WindowUS: 1000})
		if err != nil {
			// Only a reader failure reaches here; bytes.Reader cannot fail
			// short of a line exceeding the scanner limit.
			if len(data) < 4*1024*1024 {
				t.Fatalf("Analyze error on small input: %v", err)
			}
			return
		}
		rep := res.Report
		decodeViol := make(map[int64]bool)
		for _, v := range rep.Violations {
			if v.Kind == VDecode {
				if decodeViol[v.Line] {
					t.Errorf("duplicate decode violation for line %d", v.Line)
				}
				decodeViol[v.Line] = true
			}
		}
		lines := bytes.Split(data, []byte("\n"))
		// A trailing newline yields a final empty fragment the scanner
		// never sees as a line.
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		for i, line := range lines {
			ln := int64(i + 1)
			trimmed := bytes.TrimSpace(line)
			if len(trimmed) == 0 {
				if decodeViol[ln] {
					t.Errorf("line %d: blank line flagged as decode violation", ln)
				}
				continue
			}
			_, derr := obs.DecodeEvent(trimmed)
			if (derr != nil) != decodeViol[ln] {
				t.Errorf("line %d: DecodeEvent err=%v but decode violation=%v (line %q)",
					ln, derr, decodeViol[ln], trimmed)
			}
		}
		if int64(len(lines)) != rep.Lines {
			t.Errorf("lines = %d, report says %d", len(lines), rep.Lines)
		}

		var owned int64
		for _, n := range res.Owned {
			owned += n
		}
		if owned != rep.Events {
			t.Errorf("family event counts %v sum to %d, want the %d decoded events", res.Owned, owned, rep.Events)
		}

		var out bytes.Buffer
		if err := ChromeTrace(bytes.NewReader(data), &out); err != nil {
			t.Fatalf("ChromeTrace: %v", err)
		}
		if !json.Valid(out.Bytes()) {
			t.Errorf("ChromeTrace output is not valid JSON:\n%s", out.Bytes())
		}
	})
}
