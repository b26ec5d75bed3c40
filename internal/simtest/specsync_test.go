package simtest

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// TestSpecEquivalence proves each golden-suite scenario is expressible as
// a declarative scenario-v1 spec: for every suite entry there is a
// committed example spec (examples/scenarios/<name>.yaml) whose
// Generate(0) compiles to the *identical* core.Scenario — and, run
// through the harness, reproduces the identical golden capture,
// byte-for-byte against the same fixtures TestSeededEquivalence checks.
//
// This is the sync test that ties the spec engine to the determinism
// spine: if the generator's derivation ever drifts from the harness's
// (stream names, draw order, duration handling), the Params comparison
// names the field; if compilation is equal but behaviour diverges, the
// fixture diff names the event.
func TestSpecEquivalence(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "scenarios", sc.Name+".yaml")
			spec, err := scenario.LoadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != sc.Name || spec.Seed != sc.Seed {
				t.Fatalf("spec identity (%s, %d) != suite identity (%s, %d)",
					spec.Name, spec.Seed, sc.Name, sc.Seed)
			}
			gen := spec.Generate(0)
			if !reflect.DeepEqual(gen.Scenario, sc.Core) {
				t.Fatalf("spec compiles to a different scenario\n got: %+v\nwant: %+v",
					gen.Scenario, sc.Core)
			}

			// Belt and braces: run the spec-compiled scenario through the
			// harness and hold it to the same golden fixtures. Equal values
			// make this a foregone conclusion today; it stays meaningful if
			// Scenario ever grows behaviour not captured by its value.
			capture := Scenario{Name: sc.Name, Seed: sc.Seed, Core: gen.Scenario, Mode: sc.Mode}.
				Run(sc.Name)
			metrics := snapshotJSON(t, capture)
			compareFixture(t, filepath.Join("testdata", sc.Name+".metrics.json"), metrics)
			compareFixture(t, filepath.Join("testdata", sc.Name+".trace.jsonl"), capture.Trace)
		})
	}
}

// TestSpecEquivalenceCoversSuite pins the example directory to the suite:
// every suite scenario has a spec, and the committed spine specs carry
// the harness's call shape (5 s of G.711) so a spec edit cannot silently
// decouple them from the goldens.
func TestSpecEquivalenceCoversSuite(t *testing.T) {
	for _, sc := range Scenarios() {
		path := filepath.Join("..", "..", "examples", "scenarios", sc.Name+".yaml")
		spec, err := scenario.LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		if spec.DurationS != 5 || spec.Profile != "g711" {
			t.Errorf("%s: spec call shape (%gs, %s) != harness shape (5s, g711)",
				sc.Name, spec.DurationS, spec.Profile)
		}
		if spec.Spine == nil {
			t.Errorf("%s: suite spec must be a spine spec", sc.Name)
		}
		if p := spec.Generate(0).Scenario; p.Duration != callDuration {
			t.Errorf("%s: compiled duration %v != harness callDuration %v",
				sc.Name, p.Duration, callDuration)
		}
	}
}

// TestRunLiveMatchesRun guards the harness refactor that exposed Core and
// Mode: the derived run path must be byte-stable across invocation styles.
func TestRunLiveMatchesRun(t *testing.T) {
	sc := Scenarios()[0]
	a := sc.Run("x")
	b := sc.RunLive("x", nil)
	if !bytes.Equal(a.Trace, b.Trace) {
		t.Fatal("Run and RunLive produced different traces")
	}
}
