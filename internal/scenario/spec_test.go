package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodeSpecDefaults(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"schema":"scenario-v1","name":"c","seed":7,"corpus":{"severity":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 1 || s.Profile != "g711" || s.DurationS != 120 {
		t.Errorf("defaults: count=%d profile=%q duration=%g", s.Count, s.Profile, s.DurationS)
	}
	if n := len(s.Corpus.Impairments); n != 5 {
		t.Errorf("default impairment mix has %d entries, want 5", n)
	}
	if n := len(s.Corpus.Devices); n != 2 {
		t.Errorf("default device mix has %d entries, want 2", n)
	}
	if s.Corpus.Severity != (Range{Lo: 1, Hi: 1}) {
		t.Errorf("severity = %+v, want [1,1]", s.Corpus.Severity)
	}
	if s.Hash() == "" {
		t.Error("normalized spec has empty hash")
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := []struct{ name, doc, wantSub string }{
		{"bad schema",
			`{"schema":"scenario-v2","name":"x","corpus":{}}`,
			`schema: got "scenario-v2"`},
		{"missing name",
			`{"schema":"scenario-v1","corpus":{}}`,
			"name: required"},
		{"negative count",
			`{"schema":"scenario-v1","name":"x","count":-3,"corpus":{}}`,
			"count: -3 outside"},
		{"huge count",
			`{"schema":"scenario-v1","name":"x","count":2000000,"corpus":{}}`,
			"count: 2000000 outside"},
		{"unknown profile",
			`{"schema":"scenario-v1","name":"x","profile":"opus","corpus":{}}`,
			`profile: unknown "opus"`},
		{"negative duration",
			`{"schema":"scenario-v1","name":"x","duration_s":-5,"corpus":{}}`,
			"duration_s: -5 outside [0.1, 7200]"},
		{"nan duration yaml",
			"schema: scenario-v1\nname: x\nduration_s: .nan\ncorpus:\n  severity: 1\n",
			`"duration_s": non-finite`},
		{"spine and corpus",
			`{"schema":"scenario-v1","name":"x","spine":{"draw":{"impairment":"none"}},"corpus":{}}`,
			"spine and corpus are mutually exclusive"},
		{"neither section",
			`{"schema":"scenario-v1","name":"x"}`,
			"needs a spine or a corpus"},
		{"spine both forms",
			`{"schema":"scenario-v1","name":"x","spine":{"controlled":{},"draw":{"impairment":"none"}}}`,
			"controlled and draw are mutually exclusive"},
		{"spine empty",
			`{"schema":"scenario-v1","name":"x","spine":{}}`,
			"spine needs a controlled or a draw"},
		{"unknown impairment",
			`{"schema":"scenario-v1","name":"x","spine":{"draw":{"impairment":"solar-flare"}}}`,
			`spine.draw.impairment: unknown "solar-flare"`},
		{"severity out of range",
			`{"schema":"scenario-v1","name":"x","spine":{"draw":{"impairment":"none","severity":9}}}`,
			"spine.draw.severity: 9 outside [0.1, 4]"},
		{"fading bad_ms zero",
			`{"schema":"scenario-v1","name":"x","spine":{"controlled":{"fading":{"on_a":true,"good_ms":400,"bad_ms":0,"depth_db":40}}}}`,
			"spine.controlled.fading.bad_ms: must be a positive duration"},
		{"fading bad_ms negative yaml",
			"schema: scenario-v1\nname: x\nspine:\n  controlled:\n    fading:\n      on_a: true\n      good_ms: 400\n      bad_ms: -600\n      depth_db: 40\n",
			"spine.controlled.fading.bad_ms: must be a positive duration"},
		{"mimo out of range",
			`{"schema":"scenario-v1","name":"x","spine":{"controlled":{"mimo_order":7}}}`,
			"spine.controlled.mimo_order: 7 outside [1, 4]"},
		{"ge bad_ms range out of bounds",
			`{"schema":"scenario-v1","name":"x","corpus":{"gilbert_elliott":{"good_ms":[500,2000],"bad_ms":[100,90000],"depth_db":30}}}`,
			"corpus.gilbert_elliott.bad_ms: [100, 90000] outside allowed"},
		{"ge inverted range",
			`{"schema":"scenario-v1","name":"x","corpus":{"gilbert_elliott":{"good_ms":[2000,500],"bad_ms":300,"depth_db":30}}}`,
			"corpus.gilbert_elliott.good_ms: lo 2000 > hi 500"},
		{"mix unknown name",
			`{"schema":"scenario-v1","name":"x","corpus":{"impairments":[{"name":"tsunami","weight":1}]}}`,
			`corpus.impairments: unknown name "tsunami"`},
		{"mix duplicate",
			`{"schema":"scenario-v1","name":"x","corpus":{"devices":[{"name":"pc","weight":1},{"name":"pc","weight":2}]}}`,
			`corpus.devices: duplicate name "pc"`},
		{"mix zero sum",
			`{"schema":"scenario-v1","name":"x","corpus":{"devices":[{"name":"pc","weight":0}]}}`,
			"corpus.devices: weights sum to zero"},
		{"topology region outside office",
			`{"schema":"scenario-v1","name":"x","corpus":{"topology":{"ap_a":{"x":[0,99],"y":[0,5]}}}}`,
			"corpus.topology.ap_a.x"},
		{"arrival pattern unknown",
			`{"schema":"scenario-v1","name":"x","corpus":{"arrivals":{"pattern":"fractal","rate_per_min":3}}}`,
			`corpus.arrivals.pattern: unknown "fractal"`},
		{"arrival rate zero",
			`{"schema":"scenario-v1","name":"x","corpus":{"arrivals":{"pattern":"poisson","rate_per_min":0}}}`,
			"corpus.arrivals.rate_per_min"},
		{"unknown field",
			`{"schema":"scenario-v1","name":"x","corpus":{},"chaos":true}`,
			`unknown field "chaos"`},
		{"trailing content",
			`{"schema":"scenario-v1","name":"x","corpus":{}} {"more":1}`,
			"trailing content"},
		{"trailing brace",
			`{"schema":"scenario-v1","name":"x","corpus":{}} }`,
			"trailing content"},
		{"trailing bracket",
			`{"schema":"scenario-v1","name":"x","corpus":{}} ]`,
			"trailing content"},
		{"empty document", "   \n\t\n", "empty"},
		{"second yaml document",
			"schema: scenario-v1\nname: x\ncorpus:\n  severity: 1\n---\nseed: 9\n",
			`yaml: line 5: a second document`},
		{"range bad shape",
			`{"schema":"scenario-v1","name":"x","corpus":{"severity":[1,2,3]}}`,
			"want a number or [lo, hi]"},
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.wantSub)
		}
	}
}

// TestHashCanonical: semantically equal documents share a hash regardless
// of syntax (YAML vs JSON) or whether defaults are spelled out. The
// generator folds the hash into every stream name, so this is what makes
// "same spec, any encoding" yield the same corpus.
func TestHashCanonical(t *testing.T) {
	minimal := `{"schema":"scenario-v1","name":"c","seed":7,"corpus":{"severity":1}}`
	spelled := `{"schema":"scenario-v1","name":"c","seed":7,"count":1,"profile":"g711","duration_s":120,` +
		`"corpus":{"impairments":[{"name":"none","weight":1},{"name":"weak-link","weight":1},` +
		`{"name":"mobility","weight":1},{"name":"microwave","weight":1},{"name":"congestion","weight":1}],` +
		`"severity":[1,1],"devices":[{"name":"pc","weight":1},{"name":"mobile","weight":1}]}}`
	yaml := "schema: scenario-v1\nname: c\nseed: 7\ncorpus:\n  severity: 1\n"
	// A "---" may open the one document, after comments and blank lines.
	marked := "# spec\n\n--- # one document\n" + yaml

	hashes := map[string]string{}
	for name, doc := range map[string]string{"minimal": minimal, "spelled": spelled, "yaml": yaml, "yaml after ---": marked} {
		s, err := DecodeSpec([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hashes[name] = s.Hash()
	}
	for _, h := range hashes {
		if h != hashes["minimal"] {
			t.Errorf("hashes differ: %v", hashes)
			break
		}
	}

	other, err := DecodeSpec([]byte(`{"schema":"scenario-v1","name":"c","seed":8,"corpus":{"severity":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == hashes["minimal"] {
		t.Error("different seed produced the same hash")
	}
}

// TestRangeForms pins what Range.UnmarshalJSON makes of each form a range
// may take, and its error for each it may not.
func TestRangeForms(t *testing.T) {
	cases := []struct {
		in   string
		want Range
		err  string
	}{
		{in: "2", want: Range{2, 2}},
		{in: "[1]", want: Range{1, 1}},
		{in: "[1, 2]", want: Range{1, 2}},
		{in: "[1,2,3]", err: "want a number or [lo, hi], got 3 elements"},
		{in: `"x"`, err: "want a number or [lo, hi]"},
		{in: "null", want: Range{}},
	}
	for _, c := range cases {
		r := Range{Lo: -1, Hi: -1}
		err := r.UnmarshalJSON([]byte(c.in))
		switch {
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("%s: error %v, want %q", c.in, err, c.err)
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.in, err)
		case c.err == "" && r != c.want:
			t.Errorf("%s: got %+v, want %+v", c.in, r, c.want)
		}
	}
}

func TestRangeUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want Range
	}{
		{"3", Range{3, 3}},
		{"[3]", Range{3, 3}},
		{"[1, 5.5]", Range{1, 5.5}},
	}
	for _, c := range cases {
		var r Range
		if err := json.Unmarshal([]byte(c.in), &r); err != nil {
			t.Errorf("%s: %v", c.in, err)
		} else if r != c.want {
			t.Errorf("%s: got %+v, want %+v", c.in, r, c.want)
		}
	}
	var r Range
	if err := json.Unmarshal([]byte(`"wide"`), &r); err == nil {
		t.Error(`accepted "wide" as a range`)
	}
	out, err := json.Marshal(Range{1, 5.5})
	if err != nil || string(out) != "[1,5.5]" {
		t.Errorf("marshal = %s, %v; want [1,5.5]", out, err)
	}
}
