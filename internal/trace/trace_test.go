package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const spacing = 20 * sim.Millisecond

func mk(n int, lossPattern []bool, delay sim.Duration) *Trace {
	t := New(n, spacing)
	for i := 0; i < n; i++ {
		sent := sim.Time(i) * sim.Time(spacing)
		t.RecordSent(i, sent)
		if i < len(lossPattern) && lossPattern[i] {
			continue
		}
		t.RecordArrival(i, sent.Add(delay))
	}
	return t
}

func TestBasicAccounting(t *testing.T) {
	tr := mk(10, []bool{false, true, false, true, true, false, false, false, false, false}, 5*sim.Millisecond)
	lost := tr.LostWithDeadline(100 * sim.Millisecond)
	wantLost := 0
	for _, l := range lost {
		if l {
			wantLost++
		}
	}
	if wantLost != 3 {
		t.Errorf("lost = %d, want 3", wantLost)
	}
	if !tr.Arrived(0) || tr.Arrived(1) {
		t.Error("Arrived misreports")
	}
	if at := tr.ArrivalTime(1); at != -1 {
		t.Errorf("lost packet arrival = %v", at)
	}
}

func TestDeadlineLoss(t *testing.T) {
	// Delivered but 150 ms late: counts as lost under a 100 ms deadline.
	tr := New(2, spacing)
	tr.RecordSent(0, 0)
	tr.RecordArrival(0, sim.Time(150*sim.Millisecond))
	tr.RecordSent(1, sim.Time(spacing))
	tr.RecordArrival(1, sim.Time(spacing).Add(10*sim.Millisecond))
	lost := tr.LostWithDeadline(100 * sim.Millisecond)
	if !lost[0] || lost[1] {
		t.Errorf("deadline loss = %v, want [true false]", lost)
	}
}

func TestDuplicateTracking(t *testing.T) {
	tr := New(3, spacing)
	tr.RecordSent(0, 0)
	tr.RecordArrival(0, 100)
	tr.RecordArrival(0, 200) // duplicate, later
	tr.RecordArrival(0, 50)  // duplicate, earlier — should win
	if tr.Duplicates() != 2 {
		t.Errorf("duplicates = %d, want 2", tr.Duplicates())
	}
	if tr.ArrivalTime(0) != 50 {
		t.Errorf("earliest arrival = %v, want 50", tr.ArrivalTime(0))
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	tr := New(2, spacing)
	tr.RecordSent(-1, 0)
	tr.RecordSent(99, 0)
	tr.RecordArrival(-1, 0)
	tr.RecordArrival(99, 0)
	if tr.Arrived(99) || tr.Arrived(-1) {
		t.Error("out-of-range records should be ignored")
	}
}

func TestDelaysAndJitter(t *testing.T) {
	tr := mk(100, nil, 10*sim.Millisecond)
	if d := tr.MeanDelayMs(); d != 10 {
		t.Fatalf("mean delay = %v, want 10ms", d)
	}
	if d := New(3, spacing).MeanDelayMs(); d != 0 {
		t.Fatalf("mean delay with nothing delivered = %v, want 0", d)
	}
	if j := tr.Jitter(); j != 0 {
		t.Errorf("constant-delay jitter = %v, want 0", j)
	}
	// Alternating delays produce nonzero jitter.
	tr2 := New(100, spacing)
	for i := 0; i < 100; i++ {
		sent := sim.Time(i) * sim.Time(spacing)
		tr2.RecordSent(i, sent)
		d := 5 * sim.Millisecond
		if i%2 == 1 {
			d = 25 * sim.Millisecond
		}
		tr2.RecordArrival(i, sent.Add(d))
	}
	if j := tr2.Jitter(); j <= 0 {
		t.Errorf("alternating-delay jitter = %v, want > 0", j)
	}
	if d := tr2.MeanDelayMs(); d != 15 {
		t.Errorf("alternating-delay mean = %v, want 15ms", d)
	}
	// Undelivered packets leave the mean: only the 5 ms ones remain.
	for i := 1; i < 100; i += 2 {
		tr2.ClearArrival(i)
	}
	if d := tr2.MeanDelayMs(); d != 5 {
		t.Errorf("mean over delivered packets = %v, want 5ms", d)
	}
}

func TestMergePrefersEarliest(t *testing.T) {
	a := mk(10, []bool{true, true, false, false, false, false, false, false, false, false}, 5*sim.Millisecond)
	b := mk(10, []bool{false, false, true, true, false, false, false, false, false, false}, 8*sim.Millisecond)
	m := Merge(a, b)
	lost := m.LostWithDeadline(100 * sim.Millisecond)
	for i, l := range lost {
		if l {
			t.Fatalf("merged trace lost packet %d", i)
		}
	}
	// Where both arrived, the earlier one (link a, 5 ms) must win.
	if at := m.ArrivalTime(5); at != sim.Time(5)*sim.Time(spacing)+sim.Time(5*sim.Millisecond) {
		t.Errorf("merge picked arrival %v", at)
	}
}

func TestMergeLossIntersectionProperty(t *testing.T) {
	// Property: the merged trace loses a packet iff both inputs lost it —
	// the fundamental advantage of cross-link replication.
	f := func(aLoss, bLoss []bool) bool {
		n := 20
		a := mk(n, aLoss, 5*sim.Millisecond)
		b := mk(n, bLoss, 5*sim.Millisecond)
		m := Merge(a, b)
		lost := m.LostWithDeadline(100 * sim.Millisecond)
		for i := 0; i < n; i++ {
			la := i < len(aLoss) && aLoss[i]
			lb := i < len(bLoss) && bLoss[i]
			if lost[i] != (la && lb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowPackets(t *testing.T) {
	tr := New(100, spacing)
	if n := tr.WindowPackets(5 * sim.Second); n != 250 {
		t.Errorf("5s window = %d packets, want 250", n)
	}
	tr0 := New(10, 0)
	if n := tr0.WindowPackets(5 * sim.Second); n != 1 {
		t.Errorf("zero-spacing window = %d, want 1", n)
	}
}
