// Package scenario is the declarative scenario engine: a versioned
// JSON/YAML spec document ("scenario-v1") compiles into core.Scenario
// values — impairment processes with explicit Gilbert–Elliott parameter
// ranges, microwave duty cycles, congestion cross-traffic, mobility
// traces, AP topologies, diurnal/bursty call-arrival patterns, and
// device-class mixes drawn from the internal/population classes — all
// derived deterministically from the spec hash and seed via the same
// named-stream RNG scheme (internal/sim/rng) the simulator itself uses.
//
// A spec describes either a *spine* (one exactly pinned call — the six
// simtest golden scenarios are each expressible this way, proven by the
// spec-equivalence test in internal/simtest) or a *corpus* (a parameter
// space from which any number of scenarios generate by index). Corpus
// outputs are checked by statistical property, not by golden file: the
// acceptance harness in internal/scenario/stattest runs hundreds of
// generated scenarios under fixed seeds and asserts distributional
// invariants — loss-burst statistics matching the configured
// Gilbert–Elliott ranges, cross-link loss correlation staying in the
// paper's weak-correlation regime (Fig. 4), inter-arrival CDFs, topology
// placement targets — with explicit confidence bounds.
//
// Determinism contract: Generate(i) is a pure function of (normalized
// spec, i). Two textually different but semantically equal documents
// (YAML vs JSON, defaults spelled out or omitted) share a Hash and
// therefore generate identical corpora. See docs/SCENARIOS.md.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/traffic"
)

// SpecSchema is the version tag every spec document must carry.
const SpecSchema = "scenario-v1"

// MaxCount bounds a spec's corpus size; generation is lazy, so the bound
// exists only to catch typos (a billion-scenario corpus is a typo).
const MaxCount = 1_000_000

// Range is a closed interval [Lo, Hi] a generator draws from uniformly.
// In a document it is either a two-element array [lo, hi] or a single
// number n (meaning the degenerate range [n, n]).
type Range struct {
	Lo, Hi float64
}

// UnmarshalJSON accepts 3, [3] and [1, 5]. It decodes the value once, as
// the form its first byte names.
func (r *Range) UnmarshalJSON(data []byte) error {
	if v := bytes.TrimLeft(data, " \t\r\n"); len(v) == 0 || v[0] != '[' {
		var one float64
		if err := json.Unmarshal(data, &one); err != nil {
			return fmt.Errorf("want a number or [lo, hi]")
		}
		*r = Range{Lo: one, Hi: one}
		return nil
	}
	var pair []float64
	if err := json.Unmarshal(data, &pair); err != nil {
		return fmt.Errorf("want a number or [lo, hi]")
	}
	switch len(pair) {
	case 1:
		*r = Range{Lo: pair[0], Hi: pair[0]}
	case 2:
		*r = Range{Lo: pair[0], Hi: pair[1]}
	default:
		return fmt.Errorf("want a number or [lo, hi], got %d elements", len(pair))
	}
	return nil
}

// MarshalJSON emits the canonical [lo, hi] form.
func (r Range) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]float64{r.Lo, r.Hi})
}

// IsZero reports whether the range was omitted from the document.
func (r Range) IsZero() bool { return r.Lo == 0 && r.Hi == 0 }

// Contains reports whether x lies in [Lo, Hi].
func (r Range) Contains(x float64) bool { return x >= r.Lo && x <= r.Hi }

// Mid returns the range midpoint.
func (r Range) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// validate checks the range against [min, max] bounds, naming the field.
func (r Range) validate(field string, min, max float64) error {
	for _, v := range [2]float64{r.Lo, r.Hi} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: %s: non-finite bound", field)
		}
	}
	if r.Lo > r.Hi {
		return fmt.Errorf("scenario: %s: lo %g > hi %g", field, r.Lo, r.Hi)
	}
	if r.Lo < min || r.Hi > max {
		return fmt.Errorf("scenario: %s: [%g, %g] outside allowed [%g, %g]",
			field, r.Lo, r.Hi, min, max)
	}
	return nil
}

// Weighted is one (name, weight) entry of a categorical mix.
type Weighted struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Spec is a parsed, validated scenario-v1 document.
type Spec struct {
	Schema    string  `json:"schema"`
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Count     int     `json:"count,omitempty"`      // corpus size; default 1
	Profile   string  `json:"profile,omitempty"`    // g711 | highrate
	DurationS float64 `json:"duration_s,omitempty"` // call length; default 120

	// Exactly one of Spine and Corpus is set.
	Spine  *SpineSpec  `json:"spine,omitempty"`
	Corpus *CorpusSpec `json:"corpus,omitempty"`

	// hash is the canonical fingerprint, computed once by normalize; the
	// generator folds it into every per-index stream name.
	hash string
}

// SpineSpec pins one exact call: either a controlled lab scenario or a
// single corpus draw at a named stream — the two forms the simtest golden
// suite uses. With Count > 1, scenario i runs at seed Seed+i.
type SpineSpec struct {
	Controlled *ControlledSpec `json:"controlled,omitempty"`
	Draw       *DrawSpec       `json:"draw,omitempty"`
}

// ControlledSpec is core.ControlledScenario as a document: fixed geometry,
// no shadowing, negligible fading, explicit per-link attenuation, plus an
// optional Gilbert–Elliott override on one link.
type ControlledSpec struct {
	ExtraLossADB float64     `json:"extra_loss_a_db"`
	ExtraLossBDB float64     `json:"extra_loss_b_db"`
	MIMOOrder    int         `json:"mimo_order,omitempty"` // default 1
	Fading       *FadingSpec `json:"fading,omitempty"`
}

// FadingSpec puts explicit Gilbert–Elliott fading on one link. Sojourn
// means are in milliseconds, which the simulator's microsecond clock
// represents exactly for whole-millisecond values (float seconds would
// not: 0.6 s is not an exact float64).
type FadingSpec struct {
	OnA     bool    `json:"on_a"`
	GoodMS  float64 `json:"good_ms"`
	BadMS   float64 `json:"bad_ms"`
	DepthDB float64 `json:"depth_db"`
}

// DrawSpec is one corpus-level draw of the paper's random scenario
// distribution: the impairment class picks the §4 situation, severity
// scales it, and the named stream seeds the draw. Stream "simtest/corpus"
// reproduces the golden suite's derivation exactly.
type DrawSpec struct {
	Impairment string  `json:"impairment"`
	Severity   float64 `json:"severity,omitempty"` // default 1.0
	Stream     string  `json:"stream,omitempty"`   // default "scenario/corpus"
}

// CorpusSpec is a generated scenario space. Every sub-spec is optional;
// omitted dimensions follow the paper's corpus distribution
// (core.RandomScenarioSeverity) unchanged.
type CorpusSpec struct {
	// Impairments weights the impairment mix (default: uniform over all
	// five classes).
	Impairments []Weighted `json:"impairments,omitempty"`
	// Severity scales each scenario's impairment severity (default [1,1]).
	Severity Range `json:"severity,omitempty"`
	// Devices weights the population device-class mix (pc → 2×2 MIMO,
	// mobile → single chain; default 1:1). Classes mirror
	// internal/population's DeviceClass split.
	Devices []Weighted `json:"devices,omitempty"`

	GE         *GESpec         `json:"gilbert_elliott,omitempty"`
	Microwave  *MicrowaveSpec  `json:"microwave,omitempty"`
	Congestion *CongestionSpec `json:"congestion,omitempty"`
	Mobility   *MobilitySpec   `json:"mobility,omitempty"`
	Topology   *TopologySpec   `json:"topology,omitempty"`
	Arrivals   *ArrivalSpec    `json:"arrivals,omitempty"`
}

// GESpec overrides both links' Gilbert–Elliott fade processes with
// explicit parameter ranges: mean Good/Bad sojourns (ms) and fade depth
// (dB). The acceptance harness asserts generated chains reproduce the
// implied duty cycle and burst-length statistics.
type GESpec struct {
	GoodMS  Range `json:"good_ms"`
	BadMS   Range `json:"bad_ms"`
	DepthDB Range `json:"depth_db"`
}

// MicrowaveSpec pins the oven's duty cycle and placement for microwave
// scenarios: the on-interval starts in StartS and lasts DurS (seconds of
// call time); Region bounds the oven's position (default: whole office).
type MicrowaveSpec struct {
	StartS Range       `json:"start_s"`
	DurS   Range       `json:"dur_s"`
	Region *RegionSpec `json:"region,omitempty"`
}

// CongestionSpec overrides congestion cross-traffic intensity: the busy
// fraction and per-attempt collision probability during saturated
// periods, and the probability that both channels are congested.
type CongestionSpec struct {
	Busy     Range   `json:"busy"`
	Hit      Range   `json:"hit"`
	BothProb float64 `json:"both_prob,omitempty"` // default 0.6, as the paper's corpus
}

// MobilitySpec overrides the random-waypoint walk for mobility scenarios.
type MobilitySpec struct {
	SpeedMPS Range `json:"speed_mps"`
	PauseS   Range `json:"pause_s"`
}

// RegionSpec is an axis-aligned rectangle inside the §6.1 office.
type RegionSpec struct {
	X Range `json:"x"`
	Y Range `json:"y"`
}

// TopologySpec overrides AP and client placement — the density axis of
// the generated space. Regions default to the paper's geometry (APs at
// diagonal corners, client anywhere).
type TopologySpec struct {
	APA    *RegionSpec `json:"ap_a,omitempty"`
	APB    *RegionSpec `json:"ap_b,omitempty"`
	Client *RegionSpec `json:"client,omitempty"`
	// MinAPSeparationM redraws AP placements (bounded attempts) until the
	// APs are at least this far apart.
	MinAPSeparationM float64 `json:"min_ap_separation_m,omitempty"`
}

// ArrivalSpec gives the corpus a call-arrival process: scenario i starts
// at the i-th arrival. Patterns: "poisson" (memoryless at RatePerMin),
// "diurnal" (sinusoidal rate with the given peak-to-trough ratio over
// PeriodS, via Lewis thinning), "bursty" (two-phase hyperexponential:
// fraction BurstFrac of gaps are BurstFactor× shorter, preserving the
// overall mean rate).
type ArrivalSpec struct {
	Pattern    string  `json:"pattern"`
	RatePerMin float64 `json:"rate_per_min"`

	// Diurnal knobs.
	PeakToTrough float64 `json:"peak_to_trough,omitempty"` // default 4
	PeriodS      float64 `json:"period_s,omitempty"`       // default 86400

	// Bursty knobs.
	BurstFactor float64 `json:"burst_factor,omitempty"` // default 10
	BurstFrac   float64 `json:"burst_frac,omitempty"`   // default 0.5
}

// deviceMIMO maps the population device classes onto spatial diversity
// order, the same mapping the sweep engine uses.
var deviceMIMO = map[string]int{"pc": 2, "mobile": 1}

// TrafficProfile returns the spec's traffic profile.
func (s *Spec) TrafficProfile() traffic.Profile {
	p, _ := traffic.ProfileByKey(s.Profile)
	return p
}

// normalize applies defaults, validates every field (naming it in the
// error), and computes the canonical hash. Called by DecodeSpec.
func (s *Spec) normalize() error {
	if s.Schema != SpecSchema {
		return fmt.Errorf("scenario: schema: got %q, want %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name: required")
	}
	if s.Count == 0 {
		s.Count = 1
	}
	if s.Count < 0 || s.Count > MaxCount {
		return fmt.Errorf("scenario: count: %d outside [1, %d]", s.Count, MaxCount)
	}
	if s.Profile == "" {
		s.Profile = "g711"
	}
	if _, ok := traffic.ProfileByKey(s.Profile); !ok {
		return fmt.Errorf("scenario: profile: unknown %q (known: g711, highrate)", s.Profile)
	}
	if s.DurationS == 0 {
		s.DurationS = 120
	}
	if bad := nonFinite(s.DurationS); bad || s.DurationS < 0.1 || s.DurationS > 7200 {
		return fmt.Errorf("scenario: duration_s: %g outside [0.1, 7200]", s.DurationS)
	}
	switch {
	case s.Spine != nil && s.Corpus != nil:
		return fmt.Errorf("scenario: spine and corpus are mutually exclusive")
	case s.Spine != nil:
		if err := s.Spine.validate(); err != nil {
			return err
		}
	case s.Corpus != nil:
		if err := s.Corpus.validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("scenario: spec needs a spine or a corpus section")
	}
	s.hash = s.computeHash()
	return nil
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func (sp *SpineSpec) validate() error {
	switch {
	case sp.Controlled != nil && sp.Draw != nil:
		return fmt.Errorf("scenario: spine: controlled and draw are mutually exclusive")
	case sp.Controlled != nil:
		c := sp.Controlled
		for field, v := range map[string]float64{
			"spine.controlled.extra_loss_a_db": c.ExtraLossADB,
			"spine.controlled.extra_loss_b_db": c.ExtraLossBDB,
		} {
			if nonFinite(v) || v < 0 || v > 120 {
				return fmt.Errorf("scenario: %s: %g outside [0, 120]", field, v)
			}
		}
		if c.MIMOOrder == 0 {
			c.MIMOOrder = 1
		}
		if c.MIMOOrder < 1 || c.MIMOOrder > 4 {
			return fmt.Errorf("scenario: spine.controlled.mimo_order: %d outside [1, 4]", c.MIMOOrder)
		}
		if f := c.Fading; f != nil {
			if nonFinite(f.GoodMS) || f.GoodMS <= 0 {
				return fmt.Errorf("scenario: spine.controlled.fading.good_ms: must be a positive duration")
			}
			if nonFinite(f.BadMS) || f.BadMS <= 0 {
				return fmt.Errorf("scenario: spine.controlled.fading.bad_ms: must be a positive duration")
			}
			if nonFinite(f.DepthDB) || f.DepthDB < 1 || f.DepthDB > 80 {
				return fmt.Errorf("scenario: spine.controlled.fading.depth_db: %g outside [1, 80]", f.DepthDB)
			}
		}
		return nil
	case sp.Draw != nil:
		d := sp.Draw
		if _, ok := core.ImpairmentByName(d.Impairment); !ok {
			return fmt.Errorf("scenario: spine.draw.impairment: unknown %q", d.Impairment)
		}
		if d.Severity == 0 {
			d.Severity = 1.0
		}
		if nonFinite(d.Severity) || d.Severity < 0.1 || d.Severity > 4 {
			return fmt.Errorf("scenario: spine.draw.severity: %g outside [0.1, 4]", d.Severity)
		}
		if d.Stream == "" {
			d.Stream = "scenario/corpus"
		}
		return nil
	default:
		return fmt.Errorf("scenario: spine needs a controlled or a draw section")
	}
}

// validateMix checks a categorical mix: known names from known, no
// duplicates, non-negative finite weights with a positive sum.
func validateMix(field string, mix []Weighted, known map[string]bool) error {
	seen := map[string]bool{}
	sum := 0.0
	for _, w := range mix {
		if !known[w.Name] {
			return fmt.Errorf("scenario: %s: unknown name %q", field, w.Name)
		}
		if seen[w.Name] {
			return fmt.Errorf("scenario: %s: duplicate name %q", field, w.Name)
		}
		seen[w.Name] = true
		if nonFinite(w.Weight) || w.Weight < 0 {
			return fmt.Errorf("scenario: %s: weight for %q must be finite and >= 0", field, w.Name)
		}
		sum += w.Weight
	}
	if len(mix) > 0 && sum <= 0 {
		return fmt.Errorf("scenario: %s: weights sum to zero", field)
	}
	return nil
}

func (c *CorpusSpec) validate() error {
	impKnown := map[string]bool{}
	for _, imp := range core.AllImpairments {
		impKnown[imp.String()] = true
	}
	if err := validateMix("corpus.impairments", c.Impairments, impKnown); err != nil {
		return err
	}
	if len(c.Impairments) == 0 {
		for _, imp := range core.AllImpairments {
			c.Impairments = append(c.Impairments, Weighted{Name: imp.String(), Weight: 1})
		}
	}
	if err := validateMix("corpus.devices", c.Devices,
		map[string]bool{"pc": true, "mobile": true}); err != nil {
		return err
	}
	if len(c.Devices) == 0 {
		c.Devices = []Weighted{{Name: "pc", Weight: 1}, {Name: "mobile", Weight: 1}}
	}
	if c.Severity.IsZero() {
		c.Severity = Range{Lo: 1, Hi: 1}
	}
	if err := c.Severity.validate("corpus.severity", 0.1, 4); err != nil {
		return err
	}
	if g := c.GE; g != nil {
		if err := g.GoodMS.validate("corpus.gilbert_elliott.good_ms", 1, 600_000); err != nil {
			return err
		}
		if err := g.BadMS.validate("corpus.gilbert_elliott.bad_ms", 1, 60_000); err != nil {
			return err
		}
		if err := g.DepthDB.validate("corpus.gilbert_elliott.depth_db", 1, 80); err != nil {
			return err
		}
	}
	if m := c.Microwave; m != nil {
		if err := m.StartS.validate("corpus.microwave.start_s", 0, 7200); err != nil {
			return err
		}
		if err := m.DurS.validate("corpus.microwave.dur_s", 0.1, 7200); err != nil {
			return err
		}
		if m.Region != nil {
			if err := m.Region.validate("corpus.microwave.region"); err != nil {
				return err
			}
		}
	}
	if g := c.Congestion; g != nil {
		if err := g.Busy.validate("corpus.congestion.busy", 0.01, 1); err != nil {
			return err
		}
		if err := g.Hit.validate("corpus.congestion.hit", 0.01, 1); err != nil {
			return err
		}
		if g.BothProb == 0 {
			g.BothProb = 0.6
		}
		if nonFinite(g.BothProb) || g.BothProb < 0 || g.BothProb > 1 {
			return fmt.Errorf("scenario: corpus.congestion.both_prob: %g outside [0, 1]", g.BothProb)
		}
	}
	if m := c.Mobility; m != nil {
		if err := m.SpeedMPS.validate("corpus.mobility.speed_mps", 0.1, 10); err != nil {
			return err
		}
		if err := m.PauseS.validate("corpus.mobility.pause_s", 0, 120); err != nil {
			return err
		}
	}
	if t := c.Topology; t != nil {
		for field, r := range map[string]*RegionSpec{
			"corpus.topology.ap_a":   t.APA,
			"corpus.topology.ap_b":   t.APB,
			"corpus.topology.client": t.Client,
		} {
			if r == nil {
				continue
			}
			if err := r.validate(field); err != nil {
				return err
			}
		}
		diag := math.Hypot(core.OfficeWidthM, core.OfficeHeightM)
		if nonFinite(t.MinAPSeparationM) || t.MinAPSeparationM < 0 || t.MinAPSeparationM >= diag {
			return fmt.Errorf("scenario: corpus.topology.min_ap_separation_m: %g outside [0, %.1f)",
				t.MinAPSeparationM, diag)
		}
	}
	if a := c.Arrivals; a != nil {
		if err := a.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (r *RegionSpec) validate(field string) error {
	if err := r.X.validate(field+".x", 0, core.OfficeWidthM); err != nil {
		return err
	}
	return r.Y.validate(field+".y", 0, core.OfficeHeightM)
}

func (a *ArrivalSpec) validate() error {
	switch a.Pattern {
	case "poisson", "diurnal", "bursty":
	default:
		return fmt.Errorf("scenario: corpus.arrivals.pattern: unknown %q (known: poisson, diurnal, bursty)", a.Pattern)
	}
	if nonFinite(a.RatePerMin) || a.RatePerMin <= 0 || a.RatePerMin > 1e6 {
		return fmt.Errorf("scenario: corpus.arrivals.rate_per_min: %g outside (0, 1e6]", a.RatePerMin)
	}
	if a.Pattern == "diurnal" {
		if a.PeakToTrough == 0 {
			a.PeakToTrough = 4
		}
		if nonFinite(a.PeakToTrough) || a.PeakToTrough < 1 || a.PeakToTrough > 100 {
			return fmt.Errorf("scenario: corpus.arrivals.peak_to_trough: %g outside [1, 100]", a.PeakToTrough)
		}
		if a.PeriodS == 0 {
			a.PeriodS = 86_400
		}
		if nonFinite(a.PeriodS) || a.PeriodS < 60 {
			return fmt.Errorf("scenario: corpus.arrivals.period_s: %g must be >= 60", a.PeriodS)
		}
	}
	if a.Pattern == "bursty" {
		if a.BurstFactor == 0 {
			a.BurstFactor = 10
		}
		if nonFinite(a.BurstFactor) || a.BurstFactor <= 1 || a.BurstFactor > 1000 {
			return fmt.Errorf("scenario: corpus.arrivals.burst_factor: %g outside (1, 1000]", a.BurstFactor)
		}
		if a.BurstFrac == 0 {
			a.BurstFrac = 0.5
		}
		if nonFinite(a.BurstFrac) || a.BurstFrac <= 0 || a.BurstFrac >= 1 {
			return fmt.Errorf("scenario: corpus.arrivals.burst_frac: %g outside (0, 1)", a.BurstFrac)
		}
	}
	return nil
}
