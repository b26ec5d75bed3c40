package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// scenarioAxisDoc is a sweep spec with an embedded scenario-v1 corpus:
// six generated scenarios crossed with two seeds per scenario.
const scenarioAxisDoc = `{
  "name": "scn-axis",
  "seeds": {"start": 100, "count": 2},
  "scenarios": {
    "schema": "scenario-v1",
    "name": "mini-corpus",
    "seed": 7,
    "count": 6,
    "duration_s": 5,
    "corpus": {
      "severity": [0.5, 1.5]
    }
  }
}`

func parseScenarioAxis(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(scenarioAxisDoc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioAxisGrid(t *testing.T) {
	s := parseScenarioAxis(t)
	if s.ScenarioSpec() == nil {
		t.Fatal("ScenarioSpec() = nil after normalize")
	}
	if got := s.Total(); got != 12 {
		t.Fatalf("Total() = %d, want 6 scenarios × 2 seeds = 12", got)
	}
	// The embedded spec owns the call shape and normalize copies it up.
	if s.Profile != "g711" || s.DurationS != 5 || s.Severity != 1 {
		t.Fatalf("call shape (%s, %g, %g) not copied from the embedded spec",
			s.Profile, s.DurationS, s.Severity)
	}
	for _, key := range s.CellKeys() {
		if !strings.HasSuffix(key, "/"+DensityScenario) {
			t.Errorf("cell key %q lacks the %q pseudo density", key, DensityScenario)
		}
	}
	if int64(len(s.CellKeys())) != s.CellCount() {
		t.Errorf("CellCount() = %d != len(CellKeys()) = %d", s.CellCount(), len(s.CellKeys()))
	}
}

func TestScenarioAxisJobs(t *testing.T) {
	s := parseScenarioAxis(t)
	keys := map[string]int64{}
	cells := map[string]bool{}
	known := map[string]bool{}
	for _, ck := range s.CellKeys() {
		known[ck] = true
	}
	for i := int64(0); i < s.Total(); i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if j.ScenarioIndex != i/2 {
			t.Errorf("job %d: ScenarioIndex = %d, want %d (scenario-major layout)",
				i, j.ScenarioIndex, i/2)
		}
		if j.Seed != 100+i%2 {
			t.Errorf("job %d: Seed = %d, want %d (seed-minor layout)", i, j.Seed, 100+i%2)
		}
		if j.Density != DensityScenario {
			t.Errorf("job %d: Density = %q, want %q", i, j.Density, DensityScenario)
		}
		// Cell labels come from the generator's metadata, so aggregation
		// groups scenario jobs by drawn impairment and device class.
		m := s.ScenarioSpec().MetaAt(int(j.ScenarioIndex))
		if j.Impairment != m.Impairment.String() || j.Device != m.Device {
			t.Errorf("job %d: cell (%s, %s) != generator meta (%s, %s)",
				i, j.Impairment, j.Device, m.Impairment, m.Device)
		}
		if !known[j.CellKey()] {
			t.Errorf("job %d: cell %q not enumerated by CellKeys()", i, j.CellKey())
		}
		cells[j.CellKey()] = true
		if prev, dup := keys[j.Key()]; dup {
			t.Errorf("jobs %d and %d share content key %s", prev, i, j.Key())
		}
		keys[j.Key()] = i
	}
	if len(cells) == 0 {
		t.Fatal("no cells observed")
	}
	if _, err := s.JobAt(s.Total()); err == nil {
		t.Error("JobAt(Total()) should be out of range")
	}
}

// TestScenarioAxisRoundTrip exercises the control-plane path: the
// coordinator marshals the normalized spec and the worker's FetchSpec
// re-parses and re-normalizes it. The round trip must preserve the hash
// and every derived job.
func TestScenarioAxisRoundTrip(t *testing.T) {
	s := parseScenarioAxis(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("re-parse of a normalized scenario-axis spec failed: %v", err)
	}
	if s.Hash() != s2.Hash() {
		t.Fatalf("hash changed across round trip: %s != %s", s.Hash(), s2.Hash())
	}
	for i := int64(0); i < s.Total(); i++ {
		a, _ := s.JobAt(i)
		b, _ := s2.JobAt(i)
		if a.Key() != b.Key() {
			t.Fatalf("job %d: key changed across round trip", i)
		}
	}
}

func TestScenarioAxisRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{
			"classic axes alongside scenarios",
			`{"name":"x","seeds":{"count":1},"impairments":["none"],
			  "scenarios":{"schema":"scenario-v1","name":"m","corpus":{}}}`,
			"mutually exclusive",
		},
		{
			"conflicting profile",
			`{"name":"x","seeds":{"count":1},"profile":"highrate",
			  "scenarios":{"schema":"scenario-v1","name":"m","profile":"g711","corpus":{}}}`,
			"profile",
		},
		{
			"conflicting duration",
			`{"name":"x","seeds":{"count":1},"duration_s":9,
			  "scenarios":{"schema":"scenario-v1","name":"m","duration_s":5,"corpus":{}}}`,
			"duration_s",
		},
		{
			"severity override",
			`{"name":"x","seeds":{"count":1},"severity":2,
			  "scenarios":{"schema":"scenario-v1","name":"m","corpus":{}}}`,
			"severity",
		},
		{
			"missing seeds",
			`{"name":"x","scenarios":{"schema":"scenario-v1","name":"m","corpus":{}}}`,
			"seeds.count",
		},
		{
			"invalid embedded spec",
			`{"name":"x","seeds":{"count":1},"scenarios":{"schema":"scenario-v1","name":"m"}}`,
			"spine or a corpus",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.doc))
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestScenarioAxisScenarioDeterminism: a job's simulated call is a pure
// function of its identity — the generated draw is fixed per
// ScenarioIndex, and only the in-simulator seed varies along the seed
// axis.
func TestScenarioAxisScenarioDeterminism(t *testing.T) {
	s := parseScenarioAxis(t)
	j0, _ := s.JobAt(0)
	j1, _ := s.JobAt(1) // same scenario, next seed
	j2, _ := s.JobAt(2) // next scenario

	a, b := j0.Scenario(), j0.Scenario()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Job.Scenario() is not deterministic")
	}

	c := j1.Scenario()
	if c.Seed == a.Seed {
		t.Error("seed axis did not change the call's in-simulator seed")
	}
	c.Seed = a.Seed
	if !reflect.DeepEqual(a, c) {
		t.Errorf("seed-axis neighbours differ beyond the seed\n got: %+v\nwant: %+v",
			c, a)
	}

	d := j2.Scenario()
	gen := s.ScenarioSpec().Generate(1).Scenario
	gen.Seed = d.Seed
	if !reflect.DeepEqual(d, gen) {
		t.Errorf("job scenario != generator output for index 1\n got: %+v\nwant: %+v",
			d, gen)
	}
}

// TestScenarioAxisRunnerDo runs one scenario-axis job through the real
// simulator end to end.
func TestScenarioAxisRunnerDo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full simulator")
	}
	s := parseScenarioAxis(t)
	j, _ := s.JobAt(0)
	r := &Runner{}
	m, cached, err := r.Do(j)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("no cache configured, result cannot be cached")
	}
	if !m.valid() {
		t.Fatalf("invalid metrics: %+v", m)
	}
	for _, strat := range []string{StrategyStronger, StrategyCross, StrategyDiversiFi} {
		if _, ok := m.Scalars[metricKey(strat, "mos")]; !ok {
			t.Errorf("missing MOS scalar for strategy %s", strat)
		}
	}
}
