package phy

import (
	"math"
	"repro/internal/sim/rng"

	"repro/internal/sim"
)

// GilbertElliott is a two-state bursty channel model. The chain alternates
// between a Good state (frames usually succeed) and a Bad state (deep fade;
// frames usually fail). Sojourn times are exponential, so the process is
// memoryless and can be advanced lazily to any query time.
//
// This is the component responsible for the *bursty* loss the paper
// measures: Bad-state sojourns of hundreds of milliseconds knock out runs
// of consecutive 20 ms-spaced VoIP packets, producing the loss bursts of
// Figures 5 and 9 and the high autocorrelation of Figure 4.
type GilbertElliott struct {
	MeanGood sim.Duration // mean sojourn in Good
	MeanBad  sim.Duration // mean sojourn in Bad
	BadSNRdB float64      // SNR penalty applied while Bad

	rng        *rng.Stream
	bad        bool
	nextSwitch sim.Time
}

// NewGilbertElliott creates a chain that starts in the Good state at time 0.
func NewGilbertElliott(rng *rng.Stream, meanGood, meanBad sim.Duration) *GilbertElliott {
	g := new(GilbertElliott)
	g.init(rng, meanGood, meanBad)
	return g
}

// init sets g to the chain NewGilbertElliott returns, drawing its first
// Good sojourn.
func (g *GilbertElliott) init(rng *rng.Stream, meanGood, meanBad sim.Duration) {
	*g = GilbertElliott{
		MeanGood: meanGood,
		MeanBad:  meanBad,
		BadSNRdB: 25, // a deep fade: typically drops the link below threshold
		rng:      rng,
	}
	g.nextSwitch = sim.Time(g.expo(meanGood))
}

func (g *GilbertElliott) expo(mean sim.Duration) sim.Duration {
	if mean <= 0 {
		return 1
	}
	d := sim.Duration(g.rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// advance evolves the chain up to time now.
func (g *GilbertElliott) advance(now sim.Time) {
	for g.nextSwitch <= now {
		g.bad = !g.bad
		mean := g.MeanGood
		if g.bad {
			mean = g.MeanBad
		}
		g.nextSwitch = g.nextSwitch.Add(g.expo(mean))
	}
}

// Bad reports whether the chain is in the Bad (deep-fade) state at now.
func (g *GilbertElliott) Bad(now sim.Time) bool {
	g.advance(now)
	return g.bad
}

// PenaltyDB returns the SNR penalty at time now (0 when Good).
func (g *GilbertElliott) PenaltyDB(now sim.Time) float64 {
	if g.Bad(now) {
		return g.BadSNRdB
	}
	return 0
}

// Shadowing is a slowly varying lognormal shadow-fading process modelled as
// a first-order autoregressive (Gudmundson) process: successive samples
// decorrelate over DecorrelationTime. It captures body blockage, doors,
// furniture — impairments that persist for seconds and, crucially, are
// independent across links to different APs.
type Shadowing struct {
	SigmaDB           float64      // standard deviation of the shadowing
	DecorrelationTime sim.Duration // time for correlation to fall to 1/e

	rng     *rng.Stream
	value   float64
	updated sim.Time
	started bool
}

// NewShadowing creates a shadowing process with the given deviation.
func NewShadowing(rng *rng.Stream, sigmaDB float64, decorrelation sim.Duration) *Shadowing {
	return &Shadowing{SigmaDB: sigmaDB, DecorrelationTime: decorrelation, rng: rng}
}

// ValueDB returns the shadowing term in dB at time now, evolving the AR(1)
// process forward as needed.
func (s *Shadowing) ValueDB(now sim.Time) float64 {
	if !s.started {
		s.value = s.rng.NormFloat64() * s.SigmaDB
		s.updated = now
		s.started = true
		return s.value
	}
	dt := now.Sub(s.updated)
	if dt <= 0 {
		return s.value
	}
	if s.DecorrelationTime <= 0 {
		s.value = s.rng.NormFloat64() * s.SigmaDB
		s.updated = now
		return s.value
	}
	rho := math.Exp(-float64(dt) / float64(s.DecorrelationTime))
	s.value = rho*s.value + math.Sqrt(1-rho*rho)*s.rng.NormFloat64()*s.SigmaDB
	s.updated = now
	return s.value
}
