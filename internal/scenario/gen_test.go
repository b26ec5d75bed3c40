package scenario

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/traffic"
)

func mustDecode(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := DecodeSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const corpusDoc = `{
  "schema": "scenario-v1", "name": "gen-test", "seed": 31, "count": 64,
  "duration_s": 30,
  "corpus": {
    "severity": [0.5, 2],
    "gilbert_elliott": {"good_ms": [500, 2000], "bad_ms": [100, 600], "depth_db": [20, 45]},
    "microwave": {"start_s": [1, 5], "dur_s": [2, 10], "region": {"x": [10, 20], "y": [5, 10]}},
    "congestion": {"busy": [0.3, 0.9], "hit": [0.2, 0.8], "both_prob": 0.5},
    "mobility": {"speed_mps": [0.5, 3], "pause_s": [0, 10]},
    "topology": {"ap_a": {"x": [0, 5], "y": [0, 5]}, "ap_b": {"x": [25, 30], "y": [10, 15]}, "min_ap_separation_m": 20},
    "arrivals": {"pattern": "poisson", "rate_per_min": 6}
  }
}`

// TestGenerateDeterministic: Generate(i) is a pure function of (spec, i) —
// repeated and concurrent calls agree, and a re-decoded copy of the same
// document generates the identical corpus.
func TestGenerateDeterministic(t *testing.T) {
	s := mustDecode(t, corpusDoc)
	s2 := mustDecode(t, corpusDoc)
	if s.Hash() != s2.Hash() {
		t.Fatalf("same document, different hashes: %s vs %s", s.Hash(), s2.Hash())
	}
	first := s.GenerateAll()
	again := s2.GenerateAll()
	if !reflect.DeepEqual(first, again) {
		t.Fatal("re-decoded spec generated a different corpus")
	}

	var wg sync.WaitGroup
	conc := make([]Generated, s.Count)
	for i := 0; i < s.Count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i] = s.Generate(i)
		}(i)
	}
	wg.Wait()
	for i := range conc {
		conc[i].Start = first[i].Start // Generate leaves Start zero by contract
		if !reflect.DeepEqual(conc[i], first[i]) {
			t.Fatalf("concurrent Generate(%d) diverged", i)
		}
	}
}

func TestMetaAtMatchesGenerate(t *testing.T) {
	s := mustDecode(t, corpusDoc)
	for i := 0; i < s.Count; i++ {
		if m := s.MetaAt(i); m != s.Generate(i).Meta {
			t.Fatalf("MetaAt(%d) = %+v != Generate Meta %+v", i, m, s.Generate(i).Meta)
		}
	}
}

// TestCorpusOverridesRespected: every explicit range in the corpus spec
// bounds the corresponding parameter of every generated scenario.
func TestCorpusOverridesRespected(t *testing.T) {
	s := mustDecode(t, corpusDoc)
	c := s.Corpus
	sawOven, sawCongest, sawMobile := false, false, false
	for _, g := range s.GenerateAll() {
		p := g.Scenario
		if !c.Severity.Contains(g.Severity) {
			t.Fatalf("scenario %d: severity %g outside %+v", g.Index, g.Severity, c.Severity)
		}
		if want := deviceMIMO[g.Device]; p.MIMOOrder != want {
			t.Fatalf("scenario %d: device %q but MIMO order %d", g.Index, g.Device, p.MIMOOrder)
		}
		if p.Duration != sim.FromSeconds(30) {
			t.Fatalf("scenario %d: duration %v", g.Index, p.Duration)
		}
		for _, l := range [2]core.ScenarioLink{p.LinkA, p.LinkB} {
			if !c.GE.GoodMS.Contains(float64(l.FadeGood) / 1000) {
				t.Fatalf("scenario %d: fade good %v outside %+v ms", g.Index, l.FadeGood, c.GE.GoodMS)
			}
			if !c.GE.BadMS.Contains(float64(l.FadeBad) / 1000) {
				t.Fatalf("scenario %d: fade bad %v outside %+v ms", g.Index, l.FadeBad, c.GE.BadMS)
			}
			if !c.GE.DepthDB.Contains(l.FadeDepthDB) {
				t.Fatalf("scenario %d: fade depth %g outside %+v", g.Index, l.FadeDepthDB, c.GE.DepthDB)
			}
		}
		if t1 := c.Topology; t1 != nil {
			if !t1.APA.X.Contains(p.APA.X) || !t1.APA.Y.Contains(p.APA.Y) {
				t.Fatalf("scenario %d: AP A at %+v outside region", g.Index, p.APA)
			}
			if !t1.APB.X.Contains(p.APB.X) || !t1.APB.Y.Contains(p.APB.Y) {
				t.Fatalf("scenario %d: AP B at %+v outside region", g.Index, p.APB)
			}
			if d := p.APA.DistanceTo(p.APB); d < t1.MinAPSeparationM {
				t.Fatalf("scenario %d: AP separation %.1f m < %g m", g.Index, d, t1.MinAPSeparationM)
			}
		}
		if p.Oven {
			sawOven = true
			if !c.Microwave.StartS.Contains(p.OvenStart.Seconds()) {
				t.Fatalf("scenario %d: oven start %v outside %+v s", g.Index, p.OvenStart, c.Microwave.StartS)
			}
			if !c.Microwave.DurS.Contains(p.OvenDur.Seconds()) {
				t.Fatalf("scenario %d: oven dur %v outside %+v s", g.Index, p.OvenDur, c.Microwave.DurS)
			}
			r := c.Microwave.Region
			if !r.X.Contains(p.OvenPos.X) || !r.Y.Contains(p.OvenPos.Y) {
				t.Fatalf("scenario %d: oven at %+v outside region", g.Index, p.OvenPos)
			}
		}
		if p.CongestA {
			sawCongest = true
			if !c.Congestion.Busy.Contains(p.CongestBusy) || !c.Congestion.Hit.Contains(p.CongestHit) {
				t.Fatalf("scenario %d: congestion busy=%g hit=%g outside spec", g.Index, p.CongestBusy, p.CongestHit)
			}
		}
		if p.Mobile {
			sawMobile = true
			if !c.Mobility.SpeedMPS.Contains(p.WalkSpeed) {
				t.Fatalf("scenario %d: walk speed %g outside %+v", g.Index, p.WalkSpeed, c.Mobility.SpeedMPS)
			}
			if !c.Mobility.PauseS.Contains(p.WalkPause.Seconds()) {
				t.Fatalf("scenario %d: walk pause %v outside %+v s", g.Index, p.WalkPause, c.Mobility.PauseS)
			}
		}
	}
	// 64 draws over a uniform 5-class mix miss a class with prob < 1e-6.
	if !sawOven || !sawCongest || !sawMobile {
		t.Errorf("corpus never exercised some impairment: oven=%v congest=%v mobile=%v",
			sawOven, sawCongest, sawMobile)
	}
}

// TestSpineDrawMatchesSimtestDerivation: a spine draw spec at stream
// "simtest/corpus" reproduces the golden suite's scenario derivation
// exactly — the same construction simtest uses for its random scenarios.
func TestSpineDrawMatchesSimtestDerivation(t *testing.T) {
	s := mustDecode(t, `{
	  "schema": "scenario-v1", "name": "microwave", "seed": 202, "duration_s": 5,
	  "spine": {"draw": {"impairment": "microwave", "stream": "simtest/corpus"}}
	}`)
	got := s.Generate(0).Scenario
	want := core.RandomScenarioSeverity(rng.Named(202, "simtest/corpus"),
		core.ImpMicrowave, traffic.G711, 202, 1.0).WithDuration(5 * sim.Second)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spine draw scenario differs from simtest derivation\n got %+v\nwant %+v",
			got, want)
	}
}

// TestSpineControlledMatchesConstructor: the controlled spine form is
// core.ControlledScenario exactly, including millisecond-exact fading.
func TestSpineControlledMatchesConstructor(t *testing.T) {
	s := mustDecode(t, `{
	  "schema": "scenario-v1", "name": "head-drop", "seed": 606, "duration_s": 5,
	  "spine": {"controlled": {"extra_loss_b_db": 6,
	    "fading": {"on_a": true, "good_ms": 400, "bad_ms": 600, "depth_db": 40}}}
	}`)
	got := s.Generate(0).Scenario
	want := core.ControlledScenario(606, traffic.G711, 5*sim.Second, 0, 6).
		WithMIMO(1).
		WithFading(true, 400*sim.Millisecond, 600*sim.Millisecond, 40)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("controlled spine differs from constructor\n got %+v\nwant %+v",
			got, want)
	}
	// The millisecond encoding must land on the exact microsecond values the
	// golden scenarios use (float seconds would truncate 0.6 s to 599999 µs).
	if got.LinkA.FadeGood != 400*sim.Millisecond || got.LinkA.FadeBad != 600*sim.Millisecond {
		t.Errorf("fading sojourns %v/%v not millisecond-exact", got.LinkA.FadeGood, got.LinkA.FadeBad)
	}
}

// TestSpineSeedIncrement: spine scenario i runs at seed Seed+i, so a spine
// spec with count N is N independent repetitions of the pinned call.
func TestSpineSeedIncrement(t *testing.T) {
	s := mustDecode(t, `{
	  "schema": "scenario-v1", "name": "reps", "seed": 100, "count": 3, "duration_s": 5,
	  "spine": {"controlled": {"extra_loss_b_db": 6}}
	}`)
	for i := 0; i < 3; i++ {
		g := s.Generate(i)
		if g.Seed != 100+int64(i) {
			t.Errorf("Generate(%d).Seed = %d, want %d", i, g.Seed, 100+int64(i))
		}
	}
}

func TestArrivalsMonotone(t *testing.T) {
	s := mustDecode(t, corpusDoc)
	starts := s.Arrivals(s.Count)
	prev := sim.Duration(-1)
	for i, d := range starts {
		if d <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, d, prev)
		}
		prev = d
	}
	// Without an arrivals section, the timeline is all zeros.
	s2 := mustDecode(t, `{"schema":"scenario-v1","name":"x","count":4,"corpus":{"severity":1}}`)
	for i, d := range s2.Arrivals(4) {
		if d != 0 {
			t.Errorf("no-arrivals spec: start %d = %v, want 0", i, d)
		}
	}
}

func TestMixesNormalized(t *testing.T) {
	s := mustDecode(t, corpusDoc)
	for name, mix := range map[string][]Weighted{
		"impairments": s.ImpairmentMix(), "devices": s.DeviceMix(),
	} {
		sum := 0.0
		for _, w := range mix {
			sum += w.Weight
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s mix sums to %g", name, sum)
		}
	}
	spine := mustDecode(t, `{
	  "schema": "scenario-v1", "name": "m", "seed": 202, "duration_s": 5,
	  "spine": {"draw": {"impairment": "microwave", "stream": "simtest/corpus"}}
	}`)
	if mix := spine.ImpairmentMix(); len(mix) != 1 || mix[0].Name != "microwave" {
		t.Errorf("spine impairment mix = %+v", mix)
	}
	if mix := spine.DeviceMix(); len(mix) != 1 {
		t.Errorf("spine device mix = %+v", mix)
	}
}
