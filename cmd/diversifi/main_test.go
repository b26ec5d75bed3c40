package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/traffic"
)

// TestScenarioReplay writes a generated call of every impairment with
// -scenario-out and replays it with -scenario under default flags: the
// file must hold exactly the generated scenario, and the replay must print
// its impairment, seed, profile and duration, score with its profile, and
// so reproduce the original report line for line.
func TestScenarioReplay(t *testing.T) {
	file := filepath.Join(t.TempDir(), "call.json")
	for _, strategy := range []string{"stronger", "cross-link", "diversifi"} {
		t.Run(strategy, func(t *testing.T) {
			for _, imp := range core.AllImpairments {
				var gen, replay bytes.Buffer
				if err := run([]string{"-impairment", imp.String(), "-seed", "3", "-profile", "highrate",
					"-duration", "20s", "-strategy", strategy, "-scenario-out", file}, &gen); err != nil {
					t.Fatal(err)
				}
				want := core.RandomScenario(rng.New(3), imp, traffic.HighRate, 3).WithDuration(20 * sim.Second)
				if sc, err := loadScenario(file); err != nil || !reflect.DeepEqual(sc, want) {
					t.Fatalf("%s: file decodes to %+v (err %v), want %+v", imp, sc, err, want)
				}
				if err := run([]string{"-strategy", strategy, "-scenario", file}, &replay); err != nil {
					t.Fatal(err)
				}
				header := fmt.Sprintf("scenario:    %s, seed 3, HighRate5M stream, 20s call\n", imp)
				if !strings.HasPrefix(gen.String(), header) {
					t.Errorf("generated call's header:\n%s\nwant prefix %q", gen.String(), header)
				}
				if replay.String() != gen.String() {
					t.Errorf("%s: replay differs from the generated call:\n%s\nwant:\n%s", imp, replay.String(), gen.String())
				}
			}
		})
	}
}

// oldFormatScenario is a scenario file in the float-seconds snake_case
// encoding that -scenario-out wrote before the file became core.Scenario's
// own JSON encoding.
const oldFormatScenario = `{"impairment": "congestion", "profile": "G.711", "duration_s": 2,
  "mimo_order": 1, "seed": 2, "ap_a": [2, 2], "ap_b": [28, 13], "chan_a": [0, 1], "chan_b": [0, 11],
  "client_pos": [8.609559311469686, 12.631401624892883], "mobile": false,
  "link_a": {"extra_loss_db": 0.13730595847590088, "shadow_db": 4.747776444715511, "shadow_decorr_s": 8.22977,
    "fade_good_s": 39.171583, "fade_bad_s": 0.559497, "fade_depth_db": 37.33440904585617},
  "link_b": {"extra_loss_db": 2.969157562876592, "shadow_db": 5.14800849583673, "shadow_decorr_s": 4.766703,
    "fade_good_s": 32.45021, "fade_bad_s": 0.271853, "fade_depth_db": 29.74771510717133},
  "congest_a": true, "congest_b": true, "congest_hit": 0.6902593419180856, "congest_busy": 0.7539105351422567,
  "has_oven": false, "oven_pos": [0, 0],
  "late_shift_db": 19.4483075726409, "late_at_s": 59.9453, "late_on_stronger": false}`

// TestScenarioRejectsBadFiles: a scenario file is input from outside the
// program, so -scenario refuses an unknown impairment or profile, broken
// JSON, an invalid channel, a document in the old format, an unknown field
// and content after the document.
func TestScenarioRejectsBadFiles(t *testing.T) {
	encode := func(edit func(*core.Scenario)) string {
		sc := core.ControlledScenario(1, traffic.G711, 2*sim.Second, 0, 6)
		edit(&sc)
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	file := filepath.Join(t.TempDir(), "call.json")
	for _, tc := range []struct{ name, doc, want string }{
		{"unknown impairment", encode(func(sc *core.Scenario) { sc.Impairment = 99 }), "unknown impairment 99"},
		{"unknown profile", encode(func(sc *core.Scenario) { sc.Profile.Name = "nope" }), `unknown profile "nope"`},
		{"bad JSON", `{`, "bad scenario file"},
		{"invalid channel", encode(func(sc *core.Scenario) { sc.ChanA.Number = 99 }), "invalid channel"},
		{"old format", oldFormatScenario, "bad scenario file"},
		{"unknown field", `{"Severity": 1,` + encode(func(*core.Scenario) {})[1:], `unknown field "Severity"`},
		{"trailing content", encode(func(*core.Scenario) {}) + "{}", "trailing content"},
		{"trailing brace", encode(func(*core.Scenario) {}) + " }", "trailing content"},
		{"trailing bracket", encode(func(*core.Scenario) {}) + " ]", "trailing content"},
	} {
		if err := os.WriteFile(file, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"-strategy", "stronger", "-scenario", file}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a rejected file still printed a report:\n%s", tc.name, out.String())
		}
	}
	// The unedited document loads, so each case above fails on its own edit.
	if err := os.WriteFile(file, []byte(encode(func(*core.Scenario) {})), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-strategy", "stronger", "-scenario", file}, new(bytes.Buffer)); err != nil {
		t.Errorf("valid scenario file rejected: %v", err)
	}
}

// TestUsageErrors checks that a bad command line is a usage error, and
// that only a flag the flag package rejected counts as already printed, so
// main reports every error exactly once.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		printed bool
	}{
		{[]string{"-impairment", "quantum"}, false},
		{[]string{"-strategy", "telepathy"}, false},
		{[]string{"-profile", "g729"}, false},
		{[]string{"-no-such-flag"}, true},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("%v: no error", tc.args)
		} else if ue, ok := err.(usageError); !ok {
			t.Errorf("%v: %v is not a usage error", tc.args, err)
		} else if ue.printed != tc.printed {
			t.Errorf("%v: printed = %v, want %v", tc.args, ue.printed, tc.printed)
		}
	}
}
