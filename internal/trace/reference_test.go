package trace

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// refTrace is the two-slice layout Trace replaced: explicit send and
// arrival times per packet, with sends recorded one by one. It is kept
// as the reference the delay-encoded Trace must match bit for bit.
type refTrace struct {
	arrival []sim.Time // earliest arrival per seq; -1 = never arrived
	sent    []sim.Time
	dup     int
}

func newRef(count int) *refTrace {
	t := &refTrace{arrival: make([]sim.Time, count), sent: make([]sim.Time, count)}
	for i := range t.arrival {
		t.arrival[i] = -1
		t.sent[i] = -1
	}
	return t
}

func (t *refTrace) Len() int { return len(t.arrival) }

func (t *refTrace) RecordSent(seq int, at sim.Time) {
	if seq >= 0 && seq < len(t.sent) {
		t.sent[seq] = at
	}
}

func (t *refTrace) RecordArrival(seq int, at sim.Time) {
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

func (t *refTrace) Arrived(seq int) bool {
	return seq >= 0 && seq < len(t.arrival) && t.arrival[seq] >= 0
}

func (t *refTrace) ArrivalTime(seq int) sim.Time {
	if !t.Arrived(seq) {
		return -1
	}
	return t.arrival[seq]
}

func (t *refTrace) SentTime(seq int) sim.Time {
	if seq < 0 || seq >= len(t.sent) {
		return -1
	}
	return t.sent[seq]
}

func (t *refTrace) LostWithDeadline(deadline sim.Duration) []bool {
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

func (t *refTrace) MeanDelayMs() float64 {
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

func (t *refTrace) Jitter() float64 {
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

func refMerge(a, b *refTrace) *refTrace {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	out := newRef(n)
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

func (t *refTrace) ClearArrival(seq int) {
	if seq >= 0 && seq < len(t.arrival) {
		t.arrival[seq] = -1
	}
}

func (t *refTrace) CopyFrom(src *refTrace, seq int) {
	if seq < 0 || seq >= len(t.arrival) || seq >= len(src.arrival) {
		return
	}
	t.sent[seq] = src.sent[seq]
	t.arrival[seq] = src.arrival[seq]
}

// summary derives Summarize's result from the reference's loss sequence,
// counting each window's losses afresh.
func (t *refTrace) summary(deadline sim.Duration, win int) Summary {
	lost := t.LostWithDeadline(deadline)
	n := len(lost)
	if win <= 0 || win > n {
		win = n
	}
	s := Summary{Packets: n, Window: win, JitterMs: t.Jitter()}
	for i, l := range lost {
		if l {
			s.Lost++
			if i == 0 || !lost[i-1] {
				s.Bursts++
			}
		}
		if t.arrival[i] >= 0 && t.sent[i] >= 0 {
			s.Delivered++
			s.DelaySumMs += t.arrival[i].Sub(t.sent[i]).Milliseconds()
		}
	}
	for i := 0; i+win <= n; i++ {
		count := 0
		for _, l := range lost[i : i+win] {
			if l {
				count++
			}
		}
		s.WorstLost = max(s.WorstLost, count)
	}
	return s
}

// refDeadlines and refWindows are the deadlines and window lengths the
// reference checks run, zero and the int32 maximum included.
var (
	refDeadlines = []sim.Duration{0, sim.Millisecond, 150 * sim.Millisecond, math.MaxInt32}
	refWindows   = []sim.Duration{0, 3 * sim.Millisecond, 5 * sim.Second}
)

// sameSummary reports whether got equals want, floats compared bit for bit.
func sameSummary(t *testing.T, what string, got, want Summary) bool {
	t.Helper()
	if got != want || math.Float64bits(got.DelaySumMs) != math.Float64bits(want.DelaySumMs) ||
		math.Float64bits(got.JitterMs) != math.Float64bits(want.JitterMs) {
		t.Errorf("%s: summary %+v, reference %+v", what, got, want)
		return false
	}
	return true
}

// matchesRef reports whether every value derived from got equals the
// reference's, floats compared bit for bit.
func matchesRef(t *testing.T, what string, got *Trace, want *refTrace) bool {
	t.Helper()
	if got.Len() != want.Len() || got.Duplicates() != want.dup {
		t.Errorf("%s: len %d dup %d, reference len %d dup %d", what, got.Len(), got.Duplicates(), want.Len(), want.dup)
		return false
	}
	for seq := -1; seq <= got.Len(); seq++ {
		if got.ArrivalTime(seq) != want.ArrivalTime(seq) || got.SentTime(seq) != want.SentTime(seq) {
			t.Errorf("%s: seq %d arrival %v sent %v, reference arrival %v sent %v", what, seq,
				got.ArrivalTime(seq), got.SentTime(seq), want.ArrivalTime(seq), want.SentTime(seq))
			return false
		}
	}
	for _, dl := range refDeadlines {
		g, w := got.LostWithDeadline(dl), want.LostWithDeadline(dl)
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: deadline %v: seq %d lost %v, reference %v", what, dl, i, g[i], w[i])
				return false
			}
		}
		for _, win := range refWindows {
			if !sameSummary(t, fmt.Sprintf("%s: deadline %v, window %v", what, dl, win),
				got.Summarize(dl, win), want.summary(dl, got.WindowPackets(win))) {
				return false
			}
		}
	}
	if math.Float64bits(got.MeanDelayMs()) != math.Float64bits(want.MeanDelayMs()) ||
		math.Float64bits(got.Jitter()) != math.Float64bits(want.Jitter()) {
		t.Errorf("%s: mean delay %v jitter %v, reference %v %v", what,
			got.MeanDelayMs(), got.Jitter(), want.MeanDelayMs(), want.Jitter())
		return false
	}
	return true
}

// TestTraceMatchesReference drives Trace and refTrace with the same random
// constant-bit-rate stream — deliveries at random delays (zero and the
// int32 maximum included), earlier and later duplicates, cleared
// arrivals, copies between traces of different lengths, and merges — and
// requires every derived value to match, the one-pass summaries of single
// and merged traces included.
func TestTraceMatchesReference(t *testing.T) {
	f := func(start uint32, spacingUs uint16, lenA, lenB uint8, ops []uint32) bool {
		st, sp := sim.Time(start), sim.Duration(spacingUs)
		a, b := New(int(lenA%33), st, sp), New(int(lenB%33), st, sp)
		ra, rb := newRef(a.Len()), newRef(b.Len())
		for _, r := range []*refTrace{ra, rb} {
			for seq := 0; seq < r.Len(); seq++ {
				r.RecordSent(seq, st.Add(sim.Duration(seq)*sp))
			}
		}
		span := a.Len()
		if b.Len() > span {
			span = b.Len()
		}
		for _, op := range ops {
			seq := int(op>>3)%(span+2) - 1 // -1 and span are out of range
			var d sim.Duration
			switch v := sim.Duration(op >> 18); (op >> 16) & 3 {
			case 1:
				d = v
			case 2:
				d = v * sim.Millisecond
			case 3:
				d = math.MaxInt32 - v
			}
			at := st.Add(sim.Duration(seq)*sp + d)
			switch op & 7 {
			case 0, 1, 2:
				a.RecordArrival(seq, at)
				ra.RecordArrival(seq, at)
			case 3, 4:
				b.RecordArrival(seq, at)
				rb.RecordArrival(seq, at)
			case 5:
				a.ClearArrival(seq)
				ra.ClearArrival(seq)
			case 6:
				a.CopyFrom(b, seq)
				ra.CopyFrom(rb, seq)
			case 7:
				b.CopyFrom(a, seq)
				rb.CopyFrom(ra, seq)
			}
		}
		if !matchesRef(t, "a", a, ra) || !matchesRef(t, "b", b, rb) ||
			!matchesRef(t, "merge(a, b)", Merge(a, b), refMerge(ra, rb)) ||
			!matchesRef(t, "merge(b, a)", Merge(b, a), refMerge(rb, ra)) {
			return false
		}
		for _, dl := range refDeadlines {
			for _, win := range refWindows {
				what := fmt.Sprintf("summarize merged: deadline %v, window %v", dl, win)
				if !sameSummary(t, what, SummarizeMerged(a, b, dl, win), refMerge(ra, rb).summary(dl, a.WindowPackets(win))) ||
					!sameSummary(t, what, SummarizeMerged(b, a, dl, win), refMerge(rb, ra).summary(dl, a.WindowPackets(win))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
