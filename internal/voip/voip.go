// Package voip estimates perceived call quality from a packet trace, the
// role PESQ plays in the paper (§3.2, §4): the trace is run through a
// G.711-style playout model, losses are attributed to concealment by
// interpolation or extrapolation, and an E-model-based MOS determines
// whether the call was "poor". The poor call rate (PCR) over a corpus of
// calls is the paper's headline metric.
package voip

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Tunables of the quality model. They are package variables (not consts)
// because EXPERIMENTS.md documents a one-time calibration of the estimator
// against the paper's baseline PCR levels.
var (
	// PlayoutDelay is the receiver's fixed jitter-buffer depth.
	PlayoutDelay = 100 * sim.Millisecond
	// Bpl is the packet-loss robustness factor for G.711 with basic
	// packet-loss concealment (ITU G.113 gives 25.1 with PLC, 4.3
	// without; basic interpolation sits in between).
	Bpl = 19.0
	// PoorMOSThreshold is the MOS below which a call rates "poor" (the
	// two lowest points of the paper's 5-point scale).
	PoorMOSThreshold = 2.9
	// WorstWindow is the short-window size whose degradation dominates
	// perceived quality [38].
	WorstWindow = 5 * sim.Second
	// WorstWeight blends the worst-window R factor into the call rating.
	WorstWeight = 0.3
)

// Quality summarises one call.
type Quality struct {
	LossRate        float64 // deadline-aware loss over the whole call
	WorstWindowLoss float64 // loss over the worst 5-second window
	MeanDelayMs     float64
	JitterMs        float64
	Interpolated    int // isolated losses concealed from both neighbours
	Extrapolated    int // burst losses concealed by extrapolation only
	RFactor         float64
	MOS             float64
	Poor            bool
}

// Assess scores the call captured in tr for the given stream profile.
func Assess(tr *trace.Trace, profile traffic.Profile) Quality {
	return assess(tr.Summarize(profile.Deadline, WorstWindow))
}

// AssessMerged scores the cross-link receiver of a and b: it returns
// Assess(trace.Merge(a, b), profile) without building the merged trace.
func AssessMerged(a, b *trace.Trace, profile traffic.Profile) Quality {
	return assess(trace.SummarizeMerged(a, b, profile.Deadline, WorstWindow))
}

// assess runs a trace's one-pass summary through the playout and E-model
// quality model.
//
// Concealment classifies each lost packet: the first loss of a burst can
// be interpolated (the decoder still has fresh waveform history); the rest
// of the burst forces extrapolation, which degrades fast — this is why
// burst losses are "particularly problematic" (§4.2).
func assess(s trace.Summary) Quality {
	q := Quality{
		LossRate:        s.LossRate(),
		WorstWindowLoss: s.WorstWindowRate(),
		MeanDelayMs:     s.MeanDelayMs(),
		JitterMs:        s.JitterMs,
		Interpolated:    s.Bursts,
		Extrapolated:    s.Lost - s.Bursts,
	}
	overallR := RFromLoss(q.LossRate, burstRatio(s.Lost, s.Bursts, q.LossRate), q.MeanDelayMs)
	worstR := RFromLoss(q.WorstWindowLoss, burstRatio(s.Lost, s.Bursts, q.WorstWindowLoss), q.MeanDelayMs)
	q.RFactor = (1-WorstWeight)*overallR + WorstWeight*worstR
	q.MOS = MOSFromR(q.RFactor)
	q.Poor = q.MOS < PoorMOSThreshold
	return q
}

// burstRatio is the E-model BurstR of a call that lost lost packets in
// bursts runs: the mean observed loss-burst length over the mean burst
// length random loss would produce at rate p.
func burstRatio(lost, bursts int, p float64) float64 {
	if p <= 0 || p >= 1 || bursts == 0 {
		return 1
	}
	meanBurst := float64(lost) / float64(bursts)
	expected := 1 / (1 - p)
	br := meanBurst / expected
	if br < 1 {
		br = 1
	}
	return br
}

// RFromLoss computes the E-model transmission rating from a loss rate, a
// burst ratio (BurstR; pass 1 for random loss), and a mean one-way delay in
// milliseconds. It is the streaming form of the per-call rating: live
// monitors (internal/obs/slo) that only see windowed loss counts call it
// directly, with exactly the arithmetic the offline assessor uses.
func RFromLoss(lossRate, burstR, delayMs float64) float64 {
	ppl := lossRate * 100
	ieEff := (95.0) * ppl / (ppl/burstR + Bpl)
	d := delayMs + PlayoutDelay.Milliseconds()
	id := 0.024 * d
	if d > 177.3 {
		id += 0.11 * (d - 177.3)
	}
	r := 93.2 - ieEff - id
	if r < 0 {
		r = 0
	}
	return r
}

// MOSFromR maps an E-model R factor to a mean opinion score (ITU G.107).
func MOSFromR(r float64) float64 {
	switch {
	case r <= 0:
		return 1
	case r >= 100:
		return 4.5
	}
	return 1 + 0.035*r + r*(r-60)*(100-r)*7e-6
}

// PCR returns the poor-call rate over a corpus of assessed calls.
func PCR(calls []Quality) float64 {
	if len(calls) == 0 {
		return 0
	}
	poor := 0
	for _, c := range calls {
		if c.Poor {
			poor++
		}
	}
	return float64(poor) / float64(len(calls))
}
