// Package trace records per-packet delivery outcomes for one stream over
// one or more links and derives the loss/delay series every experiment
// analyses: loss-rate over the worst 5-second window, burst structure,
// per-packet one-way delay, and RFC 3550 interarrival jitter.
package trace

import (
	"math"

	"repro/internal/sim"
)

// Trace accumulates delivery outcomes for a stream of expectedCount packets
// emitted with a fixed spacing. Sequence numbers index the records.
type Trace struct {
	Spacing sim.Duration
	arrival []sim.Time // earliest arrival per seq; -1 = never arrived
	sent    []sim.Time
	dup     int // duplicate deliveries observed
}

// New creates a trace sized for count packets with the given spacing.
func New(count int, spacing sim.Duration) *Trace {
	t := &Trace{
		Spacing: spacing,
		arrival: make([]sim.Time, count),
		sent:    make([]sim.Time, count),
	}
	for i := range t.arrival {
		t.arrival[i] = -1
		t.sent[i] = -1
	}
	return t
}

// Len returns the trace's packet capacity.
func (t *Trace) Len() int { return len(t.arrival) }

// RecordSent notes the emission time of seq.
func (t *Trace) RecordSent(seq int, at sim.Time) {
	if seq >= 0 && seq < len(t.sent) {
		t.sent[seq] = at
	}
}

// RecordArrival notes a delivery of seq. The earliest delivery wins;
// further copies count as duplicates (the replication overhead metric).
func (t *Trace) RecordArrival(seq int, at sim.Time) {
	if seq < 0 || seq >= len(t.arrival) {
		return
	}
	if t.arrival[seq] >= 0 {
		t.dup++
		if at < t.arrival[seq] {
			t.arrival[seq] = at
		}
		return
	}
	t.arrival[seq] = at
}

// Duplicates returns the number of redundant deliveries recorded.
func (t *Trace) Duplicates() int { return t.dup }

// Arrived reports whether seq was delivered at all.
func (t *Trace) Arrived(seq int) bool {
	return seq >= 0 && seq < len(t.arrival) && t.arrival[seq] >= 0
}

// ArrivalTime returns the delivery time of seq, or -1.
func (t *Trace) ArrivalTime(seq int) sim.Time {
	if !t.Arrived(seq) {
		return -1
	}
	return t.arrival[seq]
}

// LostWithDeadline returns the per-packet loss sequence where a packet
// counts as lost if it never arrived or arrived more than deadline after
// emission — the paper's accounting, where a packet recovered after
// MaxTolerableDelay is useless (§5.3.1).
func (t *Trace) LostWithDeadline(deadline sim.Duration) []bool {
	lost := make([]bool, len(t.arrival))
	for i := range t.arrival {
		switch {
		case t.arrival[i] < 0:
			lost[i] = true
		case t.sent[i] >= 0 && t.arrival[i].Sub(t.sent[i]) > deadline:
			lost[i] = true
		}
	}
	return lost
}

// MeanDelayMs returns the mean one-way delay of delivered packets, in
// milliseconds, or 0 when none was delivered.
func (t *Trace) MeanDelayMs() float64 {
	sum, n := 0.0, 0
	for i := range t.arrival {
		if t.arrival[i] >= 0 && t.sent[i] >= 0 {
			sum += t.arrival[i].Sub(t.sent[i]).Milliseconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Jitter returns the RFC 3550 interarrival jitter estimate in milliseconds
// over delivered packets.
func (t *Trace) Jitter() float64 {
	var j float64
	prevSeq := -1
	for i := range t.arrival {
		if t.arrival[i] < 0 || t.sent[i] < 0 {
			continue
		}
		if prevSeq >= 0 {
			dTransit := (t.arrival[i].Sub(t.sent[i]) - t.arrival[prevSeq].Sub(t.sent[prevSeq])).Milliseconds()
			j += (math.Abs(dTransit) - j) / 16
		}
		prevSeq = i
	}
	return j
}

// Merge returns a new trace whose per-packet outcome is the best of a and
// b: the earliest arrival wins. This is exactly what a 2-NIC cross-link
// receiver computes — it has both links' deliveries available.
func Merge(a, b *Trace) *Trace {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	out := New(n, a.Spacing)
	for i := 0; i < n; i++ {
		if a.sent[i] >= 0 {
			out.sent[i] = a.sent[i]
		} else {
			out.sent[i] = b.sent[i]
		}
		switch {
		case a.arrival[i] >= 0 && b.arrival[i] >= 0:
			if a.arrival[i] <= b.arrival[i] {
				out.arrival[i] = a.arrival[i]
			} else {
				out.arrival[i] = b.arrival[i]
			}
		case a.arrival[i] >= 0:
			out.arrival[i] = a.arrival[i]
		case b.arrival[i] >= 0:
			out.arrival[i] = b.arrival[i]
		}
	}
	return out
}

// SentTime returns the recorded emission time of seq, or -1.
func (t *Trace) SentTime(seq int) sim.Time {
	if seq < 0 || seq >= len(t.sent) {
		return -1
	}
	return t.sent[seq]
}

// ClearArrival erases seq's delivery record — used by strategy synthesis
// when a receiver would have been deaf (e.g. during a handoff outage).
func (t *Trace) ClearArrival(seq int) {
	if seq >= 0 && seq < len(t.arrival) {
		t.arrival[seq] = -1
	}
}

// CopyFrom copies seq's send and arrival records from src into t,
// replacing whatever t held. Used to synthesize the trace a link-selection
// strategy would have produced from per-link recordings.
func (t *Trace) CopyFrom(src *Trace, seq int) {
	if seq < 0 || seq >= len(t.arrival) || seq >= len(src.arrival) {
		return
	}
	t.sent[seq] = src.sent[seq]
	t.arrival[seq] = src.arrival[seq]
}

// WindowPackets returns how many packets span the given wall-clock window
// at this trace's spacing (e.g. 250 packets per 5 s at 20 ms).
func (t *Trace) WindowPackets(window sim.Duration) int {
	if t.Spacing <= 0 {
		return 1
	}
	n := int(window / t.Spacing)
	if n < 1 {
		n = 1
	}
	return n
}
