package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/sim/rng"
)

// Meta is the cheap-to-compute identity of one generated scenario: the
// axes a sweep groups cells by, derived from the first few draws of the
// index's stream without materializing the full scenario.
type Meta struct {
	Index      int
	Seed       int64 // the scenario's in-simulator seed
	Impairment core.Impairment
	Device     string // "pc" | "mobile"
	MIMOOrder  int
	Severity   float64
}

// DeviceClass returns the population-model class of the drawn device.
func (m Meta) DeviceClass() population.DeviceClass {
	if m.Device == "pc" {
		return population.PC
	}
	return population.Mobile
}

// Generated is one compiled scenario of a spec's corpus.
type Generated struct {
	Meta
	// Start is the scenario's offset in the corpus arrival timeline
	// (zero when the spec has no arrivals section).
	Start sim.Duration
	// Scenario is the fully determined simulated call.
	Scenario core.Scenario
}

// genStream returns the named per-index stream: every draw that shapes
// scenario i comes from a stream keyed by (spec seed, spec hash, i), the
// same named-stream scheme the simulator uses for its substrates.
func (s *Spec) genStream(i int) *rng.Stream {
	return rng.Named(s.Seed, fmt.Sprintf("scenario/%s/gen/%d", s.hash, i))
}

// spineSeed is the pinned seed of spine scenario i: the document seed
// itself for i = 0 (the golden-equivalence case), consecutive seeds after.
func (s *Spec) spineSeed(i int) int64 { return s.Seed + int64(i) }

// MetaAt computes scenario i's identity without building it.
func (s *Spec) MetaAt(i int) Meta {
	if s.Spine != nil {
		sc := s.compileSpine(i)
		return spineMeta(i, sc)
	}
	g := s.genStream(i)
	m, _ := s.corpusMeta(i, g)
	return m
}

func spineMeta(i int, sc core.Scenario) Meta {
	dev := "mobile"
	if sc.MIMOOrder >= 2 {
		dev = "pc"
	}
	return Meta{
		Index:      i,
		Seed:       sc.Seed,
		Impairment: sc.Impairment,
		Device:     dev,
		MIMOOrder:  sc.MIMOOrder,
		Severity:   1,
	}
}

// corpusMeta draws the axes of corpus scenario i from g, leaving g
// positioned for the scenario body draws.
func (s *Spec) corpusMeta(i int, g *rng.Stream) (Meta, *rng.Stream) {
	c := s.Corpus
	// The draw order (seed, impairment, device, severity) is part of every
	// generated corpus.
	seed := int64(g.Uint64())
	imp, _ := core.ImpairmentByName(drawWeighted(g, c.Impairments))
	m := Meta{
		Index:      i,
		Seed:       seed,
		Impairment: imp,
		Device:     drawWeighted(g, c.Devices),
		Severity:   drawRange(g, c.Severity),
	}
	m.MIMOOrder = deviceMIMO[m.Device]
	return m, g
}

// Generate compiles scenario i of the spec. It is a pure function of the
// normalized spec and i, safe for concurrent use. The Start field is only
// filled by GenerateAll — computing the i-th arrival alone would cost the
// whole prefix of the arrival process anyway.
func (s *Spec) Generate(i int) Generated {
	if i < 0 {
		panic(fmt.Sprintf("scenario: Generate(%d): negative index", i))
	}
	if s.hash == "" {
		panic("scenario: Generate on an unnormalized spec (use DecodeSpec)")
	}
	if s.Spine != nil {
		sc := s.compileSpine(i)
		return Generated{Meta: spineMeta(i, sc), Scenario: sc}
	}
	g := s.genStream(i)
	m, _ := s.corpusMeta(i, g)
	return Generated{Meta: m, Scenario: s.compileCorpus(m, g)}
}

// GenerateAll compiles the spec's whole corpus (Count scenarios), with
// arrival offsets filled in.
func (s *Spec) GenerateAll() []Generated {
	out := make([]Generated, s.Count)
	starts := s.Arrivals(s.Count)
	for i := range out {
		out[i] = s.Generate(i)
		out[i].Start = starts[i]
	}
	return out
}

func (s *Spec) compileSpine(i int) core.Scenario {
	seed := s.spineSeed(i)
	prof := s.TrafficProfile()
	dur := sim.FromSeconds(s.DurationS)
	if c := s.Spine.Controlled; c != nil {
		sc := core.ControlledScenario(seed, prof, dur, c.ExtraLossADB, c.ExtraLossBDB).
			WithMIMO(c.MIMOOrder)
		if f := c.Fading; f != nil {
			sc = sc.WithFading(f.OnA, sim.FromMillis(f.GoodMS), sim.FromMillis(f.BadMS), f.DepthDB)
		}
		return sc
	}
	d := s.Spine.Draw
	imp, _ := core.ImpairmentByName(d.Impairment)
	return core.RandomScenarioSeverity(rng.Named(seed, d.Stream), imp, prof, seed, d.Severity).
		WithDuration(dur)
}

// compileCorpus builds corpus scenario m: a paper-distribution draw at the
// drawn severity, then the spec's explicit overrides applied field-wise.
func (s *Spec) compileCorpus(m Meta, g *rng.Stream) core.Scenario {
	c := s.Corpus
	sc := core.RandomScenarioSeverity(g, m.Impairment, s.TrafficProfile(), m.Seed, m.Severity).
		WithDuration(sim.FromSeconds(s.DurationS))
	sc.MIMOOrder = m.MIMOOrder

	if t := c.Topology; t != nil {
		applyTopology(&sc, t, g)
	}
	if ge := c.GE; ge != nil {
		for _, l := range [2]*core.ScenarioLink{&sc.LinkA, &sc.LinkB} {
			l.FadeGood = sim.FromMillis(drawRange(g, ge.GoodMS))
			l.FadeBad = sim.FromMillis(drawRange(g, ge.BadMS))
			l.FadeDepthDB = drawRange(g, ge.DepthDB)
		}
	}
	if mw := c.Microwave; mw != nil && sc.Oven {
		if mw.Region != nil {
			sc.OvenPos = drawPos(g, mw.Region)
		}
		sc.OvenStart = sim.Time(sim.FromSeconds(drawRange(g, mw.StartS)))
		sc.OvenDur = sim.FromSeconds(drawRange(g, mw.DurS))
	}
	if cg := c.Congestion; cg != nil && sc.CongestA {
		sc.CongestBusy = drawRange(g, cg.Busy)
		sc.CongestHit = drawRange(g, cg.Hit)
		sc.CongestB = g.Float64() < cg.BothProb
	}
	if mb := c.Mobility; mb != nil && sc.Mobile {
		sc.WalkSpeed = drawRange(g, mb.SpeedMPS)
		sc.WalkPause = sim.FromSeconds(drawRange(g, mb.PauseS))
	}
	return sc
}

// applyTopology draws AP and client placements, honoring the minimum AP
// separation with a bounded deterministic rejection loop (best draw wins
// if the bound is never met).
func applyTopology(sc *core.Scenario, t *TopologySpec, g *rng.Stream) {
	if t.APA != nil || t.APB != nil {
		bestA, bestB, bestDist := sc.APA, sc.APB, -1.0
		for attempt := 0; attempt < 64; attempt++ {
			a, b := sc.APA, sc.APB
			if t.APA != nil {
				a = drawPos(g, t.APA)
			}
			if t.APB != nil {
				b = drawPos(g, t.APB)
			}
			d := a.DistanceTo(b)
			if d > bestDist {
				bestA, bestB, bestDist = a, b, d
			}
			if d >= t.MinAPSeparationM {
				bestA, bestB = a, b
				break
			}
		}
		sc.APA, sc.APB = bestA, bestB
	}
	if t.Client != nil {
		sc.ClientPos = drawPos(g, t.Client)
	}
}

func drawRange(g *rng.Stream, r Range) float64 {
	if r.Lo == r.Hi {
		return r.Lo
	}
	return r.Lo + g.Float64()*(r.Hi-r.Lo)
}

func drawPos(g *rng.Stream, r *RegionSpec) phy.Position {
	return phy.Position{X: drawRange(g, r.X), Y: drawRange(g, r.Y)}
}

// drawWeighted picks a name from a validated mix (weights sum > 0).
func drawWeighted(g *rng.Stream, mix []Weighted) string {
	sum := 0.0
	for _, w := range mix {
		sum += w.Weight
	}
	x := g.Float64() * sum
	for _, w := range mix {
		x -= w.Weight
		if x < 0 {
			return w.Name
		}
	}
	return mix[len(mix)-1].Name
}

// Arrivals returns the corpus timeline offsets of scenarios 0..n-1: the
// first n arrivals of the spec's arrival process, or all zeros when the
// spec has none. The process draws from its own named stream, so the
// timeline is independent of the per-scenario parameter draws.
func (s *Spec) Arrivals(n int) []sim.Duration {
	out := make([]sim.Duration, n)
	if s.Corpus == nil || s.Corpus.Arrivals == nil {
		return out
	}
	a := s.Corpus.Arrivals
	g := rng.Named(s.Seed, fmt.Sprintf("scenario/%s/arrivals", s.hash))
	meanS := 60 / a.RatePerMin
	t := 0.0
	for i := 0; i < n; i++ {
		switch a.Pattern {
		case "poisson":
			t += g.ExpFloat64() * meanS
		case "bursty":
			// Two-phase hyperexponential preserving the overall mean:
			// a BurstFrac fraction of gaps are BurstFactor× shorter.
			shortMean := meanS / a.BurstFactor
			longMean := (meanS - a.BurstFrac*shortMean) / (1 - a.BurstFrac)
			if g.Float64() < a.BurstFrac {
				t += g.ExpFloat64() * shortMean
			} else {
				t += g.ExpFloat64() * longMean
			}
		case "diurnal":
			// Lewis thinning of the sinusoidal rate r(t) = r0(1 + A sin),
			// A = (P-1)/(P+1) so peak/trough = P.
			amp := (a.PeakToTrough - 1) / (a.PeakToTrough + 1)
			rateMax := (1 / meanS) * (1 + amp)
			for {
				t += g.ExpFloat64() / rateMax
				rate := (1 / meanS) * (1 + amp*math.Sin(2*math.Pi*t/a.PeriodS))
				if g.Float64() < rate/rateMax {
					break
				}
			}
		}
		out[i] = sim.FromSeconds(t)
	}
	return out
}

// ImpairmentMix returns the normalized impairment weights of the spec's
// generated space (spine specs: the single pinned impairment, weight 1).
// The sweep engine uses it to enumerate the cells a scenario axis spans.
func (s *Spec) ImpairmentMix() []Weighted {
	if s.Spine != nil {
		return []Weighted{{Name: s.MetaAt(0).Impairment.String(), Weight: 1}}
	}
	sum := 0.0
	for _, w := range s.Corpus.Impairments {
		sum += w.Weight
	}
	out := make([]Weighted, 0, len(s.Corpus.Impairments))
	for _, w := range s.Corpus.Impairments {
		if w.Weight > 0 {
			out = append(out, Weighted{Name: w.Name, Weight: w.Weight / sum})
		}
	}
	return out
}

// DeviceMix returns the normalized device weights of the generated space.
func (s *Spec) DeviceMix() []Weighted {
	if s.Spine != nil {
		return []Weighted{{Name: s.MetaAt(0).Device, Weight: 1}}
	}
	sum := 0.0
	for _, w := range s.Corpus.Devices {
		sum += w.Weight
	}
	out := make([]Weighted, 0, len(s.Corpus.Devices))
	for _, w := range s.Corpus.Devices {
		if w.Weight > 0 {
			out = append(out, Weighted{Name: w.Name, Weight: w.Weight / sum})
		}
	}
	return out
}
