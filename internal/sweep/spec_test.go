package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"t","seeds":{"start":1,"count":10}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Impairments) != 5 || len(s.DeviceClasses) != 2 || len(s.APDensities) != 3 {
		t.Errorf("default axes: got %d/%d/%d impairments/devices/densities",
			len(s.Impairments), len(s.DeviceClasses), len(s.APDensities))
	}
	if s.Profile != "g711" || s.Severity != 1.0 || s.DurationS != 120 {
		t.Errorf("default call shape: %q / %g / %g", s.Profile, s.Severity, s.DurationS)
	}
	if got := s.Total(); got != 5*2*3*10 {
		t.Errorf("Total = %d, want %d", got, 5*2*3*10)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ name, doc, wantSub string }{
		{"no name", `{"seeds":{"count":1}}`, "needs a name"},
		{"no seeds", `{"name":"t"}`, "seeds.count"},
		{"bad impairment", `{"name":"t","seeds":{"count":1},"impairments":["quantum"]}`, "unknown impairment"},
		{"dup impairment", `{"name":"t","seeds":{"count":1},"impairments":["none","none"]}`, "duplicate impairment"},
		{"bad device", `{"name":"t","seeds":{"count":1},"device_classes":["toaster"]}`, "unknown device class"},
		{"bad density", `{"name":"t","seeds":{"count":1},"ap_densities":["urban"]}`, "unknown ap density"},
		{"bad profile", `{"name":"t","seeds":{"count":1},"profile":"opus"}`, "unknown profile"},
		{"negative severity", `{"name":"t","seeds":{"count":1},"severity":-1}`, "severity"},
		{"short call", `{"name":"t","seeds":{"count":1},"duration_s":0.5}`, "duration_s"},
		{"unknown field", `{"name":"t","seeds":{"count":1},"wat":true}`, "wat"},
		{"trailing garbage", `{"name":"x","seeds":{"count":1}} garbage`, "trailing content"},
		{"second document", `{"name":"x","seeds":{"count":1}} {"name":"y","seeds":{"count":1}}`, "trailing content"},
		{"trailing brace", `{"name":"x","seeds":{"count":1}} }`, "trailing content"},
		{"trailing bracket", `{"name":"x","seeds":{"count":1}} ]`, "trailing content"},
	}
	for _, c := range cases {
		if _, err := ParseSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.wantSub)
		}
	}
}

// TestSpecHashNormalized: spelling out the default axes must not change the
// hash — the job stream is the same sweep.
func TestSpecHashNormalized(t *testing.T) {
	a, err := ParseSpec([]byte(`{"name":"t","seeds":{"count":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(`{"name":"t","seeds":{"count":4},
		"impairments":["none","weak-link","mobility","microwave","congestion"],
		"device_classes":["pc","mobile"],"ap_densities":["dense","typical","sparse"],
		"profile":"g711","severity":1.0,"duration_s":120}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("hash differs for semantically equal specs: %s vs %s", a.Hash(), b.Hash())
	}
	c, _ := ParseSpec([]byte(`{"name":"t","seeds":{"count":5}}`))
	if a.Hash() == c.Hash() {
		t.Error("hash unchanged when seed count changed")
	}
}

// TestJobAtCoversGrid walks the whole stream and checks it is a bijection
// onto the grid: every (cell, seed) exactly once, consecutive indices
// sharing a cell (seed-minor layout).
func TestJobAtCoversGrid(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"t","seeds":{"start":100,"count":7},
		"impairments":["none","mobility"],"device_classes":["pc","mobile"],
		"ap_densities":["dense","sparse"]}`))
	if err != nil {
		t.Fatal(err)
	}
	total := s.Total()
	if total != 2*2*2*7 {
		t.Fatalf("Total = %d", total)
	}
	seen := map[string]bool{}
	var prev Job
	for i := int64(0); i < total; i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("%s#%d", j.CellKey(), j.Seed)
		if seen[id] {
			t.Fatalf("index %d revisits %s seed %d", i, j.CellKey(), j.Seed)
		}
		seen[id] = true
		if j.Seed < 100 || j.Seed >= 107 {
			t.Fatalf("seed %d outside range", j.Seed)
		}
		if i > 0 && i%s.Seeds.Count != 0 && j.CellKey() != prev.CellKey() {
			t.Fatalf("index %d switched cell mid-seed-block", i)
		}
		prev = j
	}
	if int64(len(seen)) != total {
		t.Fatalf("covered %d of %d grid points", len(seen), total)
	}
	if _, err := s.JobAt(total); err == nil {
		t.Error("JobAt(total) accepted")
	}
	if _, err := s.JobAt(-1); err == nil {
		t.Error("JobAt(-1) accepted")
	}
}

// TestJobKeyContentAddressed: the key must depend on call physics only —
// two specs with different names/axis layouts but the same physical call
// share a key (and therefore a cache entry), while changing any physical
// knob splits it.
func TestJobKeyContentAddressed(t *testing.T) {
	a, _ := ParseSpec([]byte(`{"name":"alpha","seeds":{"count":3},
		"impairments":["mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`))
	b, _ := ParseSpec([]byte(`{"name":"beta","seeds":{"count":3},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`))
	ja, _ := a.JobAt(0) // mobility/pc/typical seed 0
	jb, _ := b.JobAt(3) // mobility/pc/typical seed 0 (second impairment block)
	if ja.CellKey() != jb.CellKey() {
		t.Fatalf("cell mismatch: %s vs %s", ja.CellKey(), jb.CellKey())
	}
	if ja.Key() != jb.Key() {
		t.Errorf("same physics, different keys: %s vs %s", ja.Key(), jb.Key())
	}
	c, _ := ParseSpec([]byte(`{"name":"alpha","seeds":{"count":3},"severity":1.5,
		"impairments":["mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`))
	jc, _ := c.JobAt(0)
	if jc.Key() == ja.Key() {
		t.Error("severity change did not change the job key")
	}
}

// TestJobKeyMatchesFmt pins Key and the seeds it derives to the bytes of
// the fmt.Sprintf formulation they replaced, over every job of a grid spec
// whose severities need %.6g's rounding and a fractional duration, and of
// a scenario spec; a key allocates only its string.
func TestJobKeyMatchesFmt(t *testing.T) {
	refKey := func(j Job) string {
		var in string
		if j.spec.scn != nil {
			in = fmt.Sprintf("%s|scn=%s|i=%d|seed=%d", SpecSchema, j.spec.scn.Hash(), j.ScenarioIndex, j.Seed)
		} else {
			sev := j.spec.Severity * densityByName(j.Density).Severity
			in = fmt.Sprintf("%s|imp=%s|dev=%s|sev=%.6g|prof=%s|dur=%g|seed=%d",
				SpecSchema, j.Impairment, j.Device, sev, j.spec.Profile, j.spec.DurationS, j.Seed)
		}
		h := sha256.Sum256([]byte(in))
		return hex.EncodeToString(h[:16])
	}
	refSeeds := func(j Job) (int64, int64) {
		h := sha256.Sum256([]byte("seeds|" + refKey(j)))
		return int64(binary.LittleEndian.Uint64(h[0:8])), int64(binary.LittleEndian.Uint64(h[8:16]))
	}
	grid, err := ParseSpec([]byte(`{"name":"keys","severity":0.123456789,"duration_s":7.25,
		"profile":"highrate","seeds":{"start":-2,"count":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Spec{grid, parseScenarioAxis(t)} {
		for i := int64(0); i < s.Total(); i++ {
			j, err := s.JobAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := j.Key(), refKey(j); got != want {
				t.Errorf("%s job %d: key %s, fmt reference %s", s.Name, i, got, want)
			}
			sc, call := j.seeds()
			if wsc, wcall := refSeeds(j); sc != wsc || call != wcall {
				t.Errorf("%s job %d: seeds (%d, %d), fmt reference (%d, %d)", s.Name, i, sc, call, wsc, wcall)
			}
		}
		j, _ := s.JobAt(0)
		if n := testing.AllocsPerRun(100, func() { _ = j.Key() }); n != 1 {
			t.Errorf("%s: Key allocates %v objects, want 1 (its string)", s.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { j.seeds() }); n != 0 {
			t.Errorf("%s: seeds allocates %v objects, want 0", s.Name, n)
		}
	}
}

// TestLazyStreamHuge: a 10^8-job spec must expand lazily — indexing the far
// end of the stream allocates nothing proportional to the job count.
func TestLazyStreamHuge(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"huge","seeds":{"count":3500000}}`))
	if err != nil {
		t.Fatal(err)
	}
	total := s.Total()
	if total != 30*3500000 {
		t.Fatalf("Total = %d", total)
	}
	j, err := s.JobAt(total - 1)
	if err != nil {
		t.Fatal(err)
	}
	if j.Impairment != "congestion" || j.Device != "mobile" || j.Density != "sparse" {
		t.Errorf("last job cell = %s", j.CellKey())
	}
	if j.Seed != 3500000-1 {
		t.Errorf("last job seed = %d", j.Seed)
	}
}
