// Package mac models the parts of the 802.11 MAC that shape packet delivery
// for DiversiFi: DCF medium access with binary exponential backoff, the
// retransmission chain with rate fallback, rate adaptation driven by slow
// RSSI, and the fixed latencies of power-save (PSM) signalling and channel
// switching.
//
// The key property this layer must reproduce is *temporal diversity at the
// micro scale*: the MAC retries a lost frame within a few milliseconds, so
// only fades that outlive the whole retry chain become packet losses. That
// is why same-link retransmission cannot match cross-link replication — the
// retry chain and the original transmission see the same fade (§4.2).
package mac

import (
	"fmt"
	"repro/internal/sim/rng"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
)

// 802.11 DCF timing constants (802.11n, 2.4 GHz OFDM).
const (
	SlotTime    = 9 * sim.Microsecond
	DIFS        = 34 * sim.Microsecond
	CWMin       = 16  // initial contention window, slots
	CWMax       = 512 // contention window cap
	RetryLimit  = 7   // attempts per frame, including the first
	RateFallbk1 = 3   // attempt index at which rate drops one step
	RateFallbk2 = 5   // attempt index at which rate drops to the floor
)

// ChannelSwitchLatency is the time for a NIC to retune to another channel.
// The paper measures 2.3 ms on ath9k (§6.4, Table 3).
const ChannelSwitchLatency = 2300 * sim.Microsecond

// PSMSignalLatency is the time to deliver a power-save Null frame to the AP
// (the remaining 0.5 ms of the paper's 2.8 ms total switch cost).
const PSMSignalLatency = 500 * sim.Microsecond

// AccessCategory selects 802.11e/EDCA medium-access parameters. The paper
// notes (§2) that such prioritization targets congestion and "is of little
// use in the face of wireless packet loss" — the EDCA experiment
// (`experiments edca`) demonstrates exactly that.
type AccessCategory int

const (
	// ACBestEffort is legacy DCF access (the default).
	ACBestEffort AccessCategory = iota
	// ACVoice is the highest-priority EDCA class: shorter AIFS, smaller
	// contention window, and it wins contention against best-effort
	// traffic.
	ACVoice
)

// edcaParams returns (AIFS, CWmin, busy-stretch factor) for a category.
func edcaParams(ac AccessCategory) (aifs sim.Duration, cwMin int, busyFactor float64) {
	switch ac {
	case ACVoice:
		// AIFSN=2, CW 4..8 slots; a busy medium stalls voice much less
		// because the voice queue preempts lower classes at each EDCA
		// contention round.
		return DIFS - 9*sim.Microsecond, 4, 0.4
	default:
		return DIFS, CWMin, 1.0
	}
}

// TxOutcome describes the fate of one MAC-layer frame transmission,
// including the full retry chain.
type TxOutcome struct {
	Delivered bool
	At        sim.Time // completion time (delivery or final failure)
	Attempts  int      // transmission attempts consumed (>= 1)
	Airtime   sim.Duration
	Rate      phy.Rate // rate of the final attempt
}

// Transmitter sends frames over one phy.Link, applying DCF access, retries,
// rate adaptation, and rate fallback within the retry chain. A Transmitter
// is owned by whichever node transmits on the link (the AP, for downlink).
type Transmitter struct {
	Link *phy.Link
	rng  *rng.Stream

	// AC selects the EDCA access category (default best-effort/DCF).
	AC AccessCategory

	// rateIdx is the current adapted rate index into phy.RateTable.
	rateIdx int
	// ewmaOK tracks recent frame success for rate adaptation.
	ewmaOK  float64
	started bool

	// Observability (set via SetObs; all fields nil-safe no-ops otherwise).
	obs        *obs.Registry
	node       string
	ctFrames   *obs.Counter
	ctAttempts *obs.Counter
	ctDrops    *obs.Counter
	hAccess    *obs.Histogram
	hAirtime   *obs.Histogram
}

// NewTransmitter creates a transmitter over link. rng drives backoff draws.
func NewTransmitter(link *phy.Link, rng *rng.Stream) *Transmitter {
	return &Transmitter{Link: link, rng: rng, rateIdx: 3, ewmaOK: 1}
}

// SetObs attaches an observability registry to the transmitter and labels
// its trace events with node (typically the owning AP's name). The MAC
// records frame/attempt/drop counters and access-wait/airtime histograms,
// and emits retry/drop trace events when the registry is tracing. A nil
// registry (the default) keeps the transmit path unobserved at zero cost.
func (t *Transmitter) SetObs(r *obs.Registry, node string) {
	t.obs = r
	t.node = node
	t.ctFrames = r.Counter("mac.frames")
	t.ctAttempts = r.Counter("mac.attempts")
	t.ctDrops = r.Counter("mac.frame_drops")
	t.hAccess = r.Histogram("mac.access_wait_us", nil)
	t.hAirtime = r.Histogram("mac.frame_airtime_us", nil)
}

// CurrentRate returns the rate adaptation's current choice.
func (t *Transmitter) CurrentRate() phy.Rate { return phy.RateTable[t.rateIdx] }

// adaptRate updates the rate choice from the link's slow RSSI (shadowing
// included, fast fading excluded — real rate controllers average over
// fades) and the recent delivery record.
func (t *Transmitter) adaptRate(now sim.Time) {
	snr := t.Link.RSSIdBm(now) - phy.NoiseFloorDBm
	target := 0
	for i, r := range phy.RateTable {
		if snr >= r.MinSNRdB+3 {
			target = i
		}
	}
	// Blend toward the SNR-derived target one step at a time, and step
	// down aggressively when recent frames are failing.
	switch {
	case t.ewmaOK < 0.5 && t.rateIdx > 0:
		t.rateIdx--
	case target > t.rateIdx && t.ewmaOK > 0.9:
		t.rateIdx++
	case target < t.rateIdx:
		t.rateIdx--
	}
}

// accessDelay returns one medium-access wait: AIFS plus a uniform backoff,
// stretched by medium occupancy (a busy medium freezes the backoff counter,
// which to the transmitter looks like time dilation). EDCA voice frames
// use a shorter AIFS/CW and are stalled far less by lower-priority load.
func (t *Transmitter) accessDelay(now sim.Time, cw int) sim.Duration {
	aifs, _, busyFactor := edcaParams(t.AC)
	slots := t.rng.Intn(cw)
	raw := aifs + sim.Duration(slots)*SlotTime
	busy := t.Link.BusyFraction(now) * busyFactor
	if busy >= 0.95 {
		busy = 0.95
	}
	return sim.Duration(float64(raw) / (1 - busy))
}

// Transmit sends one frame of payloadBytes starting at now and returns the
// outcome. The virtual time consumed (access + airtime across the retry
// chain) is reflected in the outcome's At field; callers schedule follow-up
// work at that time.
func (t *Transmitter) Transmit(now sim.Time, payloadBytes int) TxOutcome {
	if !t.started {
		t.started = true
		t.adaptRate(now)
	}
	_, cwStart, _ := edcaParams(t.AC)
	cw := cwStart
	cur := now
	var totalAir sim.Duration
	var rate phy.Rate
	t.ctFrames.Inc()
	tracing := t.obs.Tracing()
	for attempt := 1; attempt <= RetryLimit; attempt++ {
		idx := t.rateIdx
		if attempt >= RateFallbk2 {
			idx = 0
		} else if attempt >= RateFallbk1 && idx > 0 {
			idx--
		}
		rate = phy.RateTable[idx]
		wait := t.accessDelay(cur, cw)
		cur = cur.Add(wait)
		air := sim.Duration(phy.AirtimeUS(payloadBytes, rate))
		ok := t.Link.AttemptPriority(cur, rate, t.AC == ACVoice)
		cur = cur.Add(air)
		totalAir += air
		t.ctAttempts.Inc()
		t.hAccess.Observe(int64(wait))
		if ok {
			t.ewmaOK = 0.9*t.ewmaOK + 0.1
			t.adaptRate(cur)
			t.hAirtime.Observe(int64(totalAir))
			return TxOutcome{Delivered: true, At: cur, Attempts: attempt, Airtime: totalAir, Rate: rate}
		}
		if tracing && attempt < RetryLimit {
			t.obs.Emit(obs.Event{TUS: int64(cur), Ev: obs.EvRetry, Node: t.node, Seq: -1,
				Attempt: attempt, Detail: fmt.Sprintf("rate=%.1fMbps", rate.Mbps)})
		}
		t.ewmaOK = 0.9 * t.ewmaOK
		if cw < CWMax {
			cw *= 2
		}
	}
	t.adaptRate(cur)
	t.ctDrops.Inc()
	t.hAirtime.Observe(int64(totalAir))
	if tracing {
		t.obs.Emit(obs.Event{TUS: int64(cur), Ev: obs.EvDrop, Node: t.node, Seq: -1,
			Attempt: RetryLimit, Detail: "retry-limit"})
	}
	return TxOutcome{Delivered: false, At: cur, Attempts: RetryLimit, Airtime: totalAir, Rate: rate}
}
