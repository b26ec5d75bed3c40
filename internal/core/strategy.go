package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// The §4 strategy comparison works exactly as the paper's does: a two-NIC
// run records the full stream on both links, and each strategy's receiver
// trace is synthesized from those recordings. Stronger and Better are
// selection strategies; Divert is fine-grained selection; CrossLink is
// replication (the union of both links).

// Stronger returns the trace of the higher-RSSI link — what a stock OS
// association policy delivers.
func (d DualCall) Stronger() *trace.Trace { return d.StrongerTrace() }

// CrossLink returns the merged trace: a packet is lost only if both links
// lost it, and the earliest copy's timing wins.
func (d DualCall) CrossLink() *trace.Trace {
	return trace.Merge(d.TraceA, d.TraceB)
}

// Better samples both links for samplePeriod (the paper uses 5 s), then
// settles on whichever lost less during the trial for the rest of the
// call. During the trial it listens on the stronger link, as an OS would.
func (d DualCall) Better(samplePeriod sim.Duration) *trace.Trace {
	n := d.TraceA.Len()
	sampleN := d.TraceA.WindowPackets(samplePeriod)
	if sampleN > n {
		sampleN = n
	}
	lossIn := func(t *trace.Trace) int {
		lost := 0
		for seq := 0; seq < sampleN; seq++ {
			if !t.Arrived(seq) {
				lost++
			}
		}
		return lost
	}
	chosen := d.TraceA
	if lossIn(d.TraceB) < lossIn(d.TraceA) {
		chosen = d.TraceB
	}
	out := trace.New(n, d.TraceA.Start, d.TraceA.Spacing)
	strong := d.StrongerTrace()
	for seq := 0; seq < n; seq++ {
		if seq < sampleN {
			out.CopyFrom(strong, seq)
		} else {
			out.CopyFrom(chosen, seq)
		}
	}
	return out
}

// Divert implements the fine-grained link selection of Miu et al. [28]: a
// link switch triggers whenever the number of lost frames within a window
// of h frames reaches t (the paper evaluates h = 1, t = 1). Packets lost
// before a switch are not recovered — selection only helps future packets.
func (d DualCall) Divert(h, t int) *trace.Trace {
	if h < 1 {
		h = 1
	}
	if t < 1 {
		t = 1
	}
	n := d.TraceA.Len()
	out := trace.New(n, d.TraceA.Start, d.TraceA.Spacing)
	cur, other := d.StrongerTrace(), d.WeakerTrace()
	window := make([]bool, 0, h)
	for seq := 0; seq < n; seq++ {
		out.CopyFrom(cur, seq)
		lost := !cur.Arrived(seq)
		window = append(window, lost)
		if len(window) > h {
			window = window[1:]
		}
		cnt := 0
		for _, l := range window {
			if l {
				cnt++
			}
		}
		if cnt >= t {
			cur, other = other, cur
			window = window[:0]
		}
	}
	return out
}

// Handoff synthesizes the behaviour of an RSSI-driven handoff client (the
// make-before-break mobility systems of related work, e.g. [19]): the
// client camps on the stronger link and re-associates to the other when
// its RSSI exceeds the current one by hysteresisDB (checked once per
// second). Each handoff blanks reception for the given outage (hundreds of
// ms for scan+reassociate; ~tens for make-before-break). Handoff is still
// *selection*: packets lost before a switch stay lost.
func (d DualCall) Handoff(hysteresisDB float64, outage sim.Duration) *trace.Trace {
	n := d.TraceA.Len()
	out := trace.New(n, d.TraceA.Start, d.TraceA.Spacing)
	onA := d.StrongerIsA()
	perSec := int(sim.Second / d.TraceA.Spacing)
	if perSec < 1 {
		perSec = 1
	}
	outagePkts := int(outage / d.TraceA.Spacing)
	blankUntil := -1
	for seq := 0; seq < n; seq++ {
		if seq%perSec == 0 {
			idx := seq / perSec
			if idx < len(d.RSSISeriesA) && idx < len(d.RSSISeriesB) {
				a, b := d.RSSISeriesA[idx], d.RSSISeriesB[idx]
				if onA && b > a+hysteresisDB {
					onA = false
					blankUntil = seq + outagePkts
				} else if !onA && a > b+hysteresisDB {
					onA = true
					blankUntil = seq + outagePkts
				}
			}
		}
		src := d.TraceA
		if !onA {
			src = d.TraceB
		}
		out.CopyFrom(src, seq)
		if seq < blankUntil {
			// Reception blanked during the handoff outage.
			out.ClearArrival(seq)
		}
	}
	return out
}
