// Package trace records per-packet delivery outcomes for one stream over
// one or more links and derives the loss/delay series every experiment
// analyses: loss-rate over the worst 5-second window, burst structure,
// per-packet one-way delay, and RFC 3550 interarrival jitter.
package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Trace accumulates delivery outcomes for a stream of packets sent on a
// fixed constant-bit-rate schedule: packet seq leaves the source at
// Start + seq·Spacing. Sequence numbers index the records. The send
// times follow from the schedule, so a trace stores one int32 per packet:
// the earliest arrival's delay after its send time.
type Trace struct {
	Start   sim.Time // send time of packet 0
	Spacing sim.Duration
	delay   []int32 // earliest arrival minus send time, in µs; -1 = never arrived
	dup     int     // duplicate deliveries observed
}

var (
	// released holds the storage of released traces, as *[]int32 so that
	// no *Trace, stale or live, is ever shared between calls.
	released sync.Pool
	// recycling is set by the first Release. Until then New leaves the
	// pool alone, so a process that never releases a trace allocates
	// exactly as it would without one, the pool's own per-GC bookkeeping
	// included.
	recycling atomic.Bool
)

// New creates a trace for count packets, the first sent at start and each
// next one spacing later, with no packet arrived. Its storage comes from a
// released trace when one large enough is pooled, and is made afresh
// otherwise; either way every packet starts at -1, so what a trace records
// does not depend on where its storage came from.
func New(count int, start sim.Time, spacing sim.Duration) *Trace {
	var delay []int32
	if recycling.Load() {
		if p, _ := released.Get().(*[]int32); p != nil && cap(*p) >= count {
			delay = (*p)[:count]
		}
	}
	if delay == nil {
		delay = make([]int32, count)
	}
	for i := range delay {
		delay[i] = -1
	}
	return &Trace{Start: start, Spacing: spacing, delay: delay}
}

// Release hands t's storage back for a later New to reuse, and leaves t
// empty: Len and Duplicates read 0 and nothing is recorded. Only the
// holder of t and of every view of it (a DualCall's StrongerTrace, say)
// may call it, and nothing may read t after it does: a later call's
// trace may be recording into the same storage. Release on a nil or an
// already released trace does nothing. A trace nobody releases is
// collected as usual.
func (t *Trace) Release() {
	if t == nil || t.delay == nil {
		return
	}
	recycling.Store(true)
	delay := t.delay[:cap(t.delay)]
	released.Put(&delay)
	t.delay, t.dup = nil, 0
}

// Len returns the trace's packet capacity.
func (t *Trace) Len() int { return len(t.delay) }

// sendTime returns seq's scheduled emission time.
func (t *Trace) sendTime(seq int) sim.Time {
	return t.Start.Add(sim.Duration(seq) * t.Spacing)
}

// RecordArrival notes a delivery of seq. The earliest delivery wins;
// further copies count as duplicates (the replication overhead metric).
// A delivery before seq's send time, or more than math.MaxInt32 µs
// (about 35 minutes) after it, breaks the trace's schedule and panics.
func (t *Trace) RecordArrival(seq int, at sim.Time) {
	if seq < 0 || seq >= len(t.delay) {
		return
	}
	sent := t.sendTime(seq)
	d := at.Sub(sent)
	if d < 0 || d > math.MaxInt32 {
		panic(fmt.Sprintf("trace: packet %d sent at %v arrives at %v, outside [0, %d µs] after its send time",
			seq, sent, at, math.MaxInt32))
	}
	if cur := t.delay[seq]; cur >= 0 {
		t.dup++
		if int32(d) < cur {
			t.delay[seq] = int32(d)
		}
		return
	}
	t.delay[seq] = int32(d)
}

// Duplicates returns the number of redundant deliveries recorded.
func (t *Trace) Duplicates() int { return t.dup }

// Arrived reports whether seq was delivered at all.
func (t *Trace) Arrived(seq int) bool {
	return seq >= 0 && seq < len(t.delay) && t.delay[seq] >= 0
}

// ArrivalTime returns the delivery time of seq, or -1.
func (t *Trace) ArrivalTime(seq int) sim.Time {
	if !t.Arrived(seq) {
		return -1
	}
	return t.sendTime(seq).Add(sim.Duration(t.delay[seq]))
}

// LostWithDeadline returns the per-packet loss sequence where a packet
// counts as lost if it never arrived or arrived more than deadline after
// emission — the paper's accounting, where a packet recovered after
// MaxTolerableDelay is useless (§5.3.1).
func (t *Trace) LostWithDeadline(deadline sim.Duration) []bool {
	lost := make([]bool, len(t.delay))
	for i, d := range t.delay {
		lost[i] = d < 0 || sim.Duration(d) > deadline
	}
	return lost
}

// MeanDelayMs returns the mean one-way delay of delivered packets, in
// milliseconds, or 0 when none was delivered.
func (t *Trace) MeanDelayMs() float64 { return t.Summarize(0, 0).MeanDelayMs() }

// Jitter returns the RFC 3550 interarrival jitter estimate in milliseconds
// over delivered packets.
func (t *Trace) Jitter() float64 { return t.Summarize(0, 0).JitterMs }

// Summary is what one deadline-aware pass over a trace finds: the counts
// and sums every call-quality score is built from. A packet is lost when
// it never arrived or arrived more than the deadline after its send time,
// as LostWithDeadline has it; delay and jitter cover every delivered
// packet, late ones included.
type Summary struct {
	Packets    int     // packets in the trace
	Window     int     // packets per window, at most Packets
	Lost       int     // packets lost under the deadline
	Bursts     int     // maximal runs of consecutive lost packets
	WorstLost  int     // most lost packets in any Window consecutive ones
	Delivered  int     // packets that arrived at all
	DelaySumMs float64 // summed one-way delay of delivered packets, in ms
	JitterMs   float64 // RFC 3550 interarrival jitter over delivered packets
}

// LossRate returns the fraction of packets lost, or 0 for an empty trace.
func (s Summary) LossRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Packets)
}

// WorstWindowRate returns the loss rate of the worst window, or 0 for an
// empty trace.
func (s Summary) WorstWindowRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.WorstLost) / float64(s.Window)
}

// MeanDelayMs returns the mean one-way delay of delivered packets, in
// milliseconds, or 0 when none was delivered.
func (s Summary) MeanDelayMs() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.DelaySumMs / float64(s.Delivered)
}

// Summarize makes the deadline-aware pass over t, with losses also
// counted over every window spanning the given wall-clock time.
func (t *Trace) Summarize(deadline, window sim.Duration) Summary {
	return summarize(t.delay, t.delay, deadline, t.WindowPackets(window))
}

// SummarizeMerged returns Merge(a, b).Summarize(deadline, window) without
// building the merged trace. It panics as Merge does.
func SummarizeMerged(a, b *Trace, deadline, window sim.Duration) Summary {
	da, db := mergeInputs(a, b)
	return summarize(da, db, deadline, a.WindowPackets(window))
}

// summarize is the one pass behind Summary, over the packet-by-packet
// earliest of da and db (pass the same slice twice for one trace). It
// indexes the slices directly, since reading each delay through a
// per-packet callback made the pass markedly slower, and keeps its sums in
// locals, which the compiler holds in registers.
func summarize(da, db []int32, deadline sim.Duration, win int) Summary {
	n := len(da)
	db = db[:n]
	if win <= 0 || win > n {
		win = n
	}
	var (
		lost, bursts, worst, inWindow, delivered int
		delaySum, jitter                         float64
		prev                                     = int32(-1) // the last delivered packet's delay
		prevLost                                 bool
	)
	for i := range da {
		d := earliest(da[i], db[i])
		if d >= 0 {
			delivered++
			delaySum += sim.Duration(d).Milliseconds()
			if prev >= 0 {
				dTransit := (sim.Duration(d) - sim.Duration(prev)).Milliseconds()
				jitter += (math.Abs(dTransit) - jitter) / 16
			}
			prev = d
		}
		isLost := d < 0 || sim.Duration(d) > deadline
		if isLost {
			lost++
			inWindow++
			if !prevLost {
				bursts++
			}
		}
		prevLost = isLost
		if i >= win {
			if o := earliest(da[i-win], db[i-win]); o < 0 || sim.Duration(o) > deadline {
				inWindow--
			}
		}
		if i >= win-1 && inWindow > worst {
			worst = inWindow
		}
	}
	return Summary{Packets: n, Window: win, Lost: lost, Bursts: bursts, WorstLost: worst,
		Delivered: delivered, DelaySumMs: delaySum, JitterMs: jitter}
}

// sameSchedule panics unless t and u send on the same schedule, the
// condition under which their delays compare packet for packet.
func (t *Trace) sameSchedule(op string, u *Trace) {
	if t.Start != u.Start || t.Spacing != u.Spacing {
		panic(fmt.Sprintf("trace: %s of traces on different schedules (start %v, spacing %v vs start %v, spacing %v)",
			op, t.Start, t.Spacing, u.Start, u.Spacing))
	}
}

// mergeInputs returns the delays of a and b over the packets both cover,
// after checking they share a schedule.
func mergeInputs(a, b *Trace) (da, db []int32) {
	a.sameSchedule("merge", b)
	n := min(len(a.delay), len(b.delay))
	return a.delay[:n], b.delay[:n]
}

// earliest is the merge rule: the smaller of two delays, where -1 (never
// arrived) loses to any arrival.
func earliest(da, db int32) int32 {
	if da < 0 || (db >= 0 && db < da) {
		return db
	}
	return da
}

// Merge returns a new trace whose per-packet outcome is the best of a and
// b: the earliest arrival wins. This is exactly what a 2-NIC cross-link
// receiver computes — it has both links' deliveries available. Both
// traces must share a schedule.
func Merge(a, b *Trace) *Trace {
	da, db := mergeInputs(a, b)
	out := New(len(da), a.Start, a.Spacing)
	for i := range out.delay {
		out.delay[i] = earliest(da[i], db[i])
	}
	return out
}

// SentTime returns the emission time of seq, or -1 outside the trace.
func (t *Trace) SentTime(seq int) sim.Time {
	if seq < 0 || seq >= len(t.delay) {
		return -1
	}
	return t.sendTime(seq)
}

// ClearArrival erases seq's delivery record — used by strategy synthesis
// when a receiver would have been deaf (e.g. during a handoff outage).
func (t *Trace) ClearArrival(seq int) {
	if seq >= 0 && seq < len(t.delay) {
		t.delay[seq] = -1
	}
}

// CopyFrom copies seq's arrival record from src into t, replacing whatever
// t held. Used to synthesize the trace a link-selection strategy would
// have produced from per-link recordings; both traces must share a
// schedule.
func (t *Trace) CopyFrom(src *Trace, seq int) {
	t.sameSchedule("copy", src)
	if seq < 0 || seq >= len(t.delay) || seq >= len(src.delay) {
		return
	}
	t.delay[seq] = src.delay[seq]
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
