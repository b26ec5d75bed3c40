package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioReplay writes a generated call with -scenario-out and
// replays it with -scenario under default flags: the replay must print the
// loaded scenario's impairment, seed, profile and duration, score with its
// profile, and so reproduce the original report line for line.
func TestScenarioReplay(t *testing.T) {
	file := filepath.Join(t.TempDir(), "call.json")
	for _, strategy := range []string{"stronger", "cross-link", "diversifi"} {
		t.Run(strategy, func(t *testing.T) {
			var gen, replay bytes.Buffer
			if err := run([]string{"-impairment", "weak-link", "-seed", "3", "-profile", "highrate",
				"-duration", "20s", "-strategy", strategy, "-scenario-out", file}, &gen); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-strategy", strategy, "-scenario", file}, &replay); err != nil {
				t.Fatal(err)
			}
			const header = "scenario:    weak-link, seed 3, HighRate5M stream, 20s call\n"
			if !strings.HasPrefix(gen.String(), header) {
				t.Errorf("generated call's header:\n%s\nwant prefix %q", gen.String(), header)
			}
			if replay.String() != gen.String() {
				t.Errorf("replay differs from the generated call:\n%s\nwant:\n%s", replay.String(), gen.String())
			}
		})
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
