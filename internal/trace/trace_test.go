package trace

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const spacing = 20 * sim.Millisecond

func mk(n int, lossPattern []bool, delay sim.Duration) *Trace {
	t := New(n, 0, spacing)
	for i := 0; i < n; i++ {
		sent := sim.Time(i) * sim.Time(spacing)
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
	tr := New(2, 0, spacing)
	tr.RecordArrival(0, sim.Time(150*sim.Millisecond))
	tr.RecordArrival(1, sim.Time(spacing).Add(10*sim.Millisecond))
	lost := tr.LostWithDeadline(100 * sim.Millisecond)
	if !lost[0] || lost[1] {
		t.Errorf("deadline loss = %v, want [true false]", lost)
	}
}

func TestDuplicateTracking(t *testing.T) {
	tr := New(3, 0, spacing)
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
	tr := New(2, 0, spacing)
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
	if d := New(3, 0, spacing).MeanDelayMs(); d != 0 {
		t.Fatalf("mean delay with nothing delivered = %v, want 0", d)
	}
	if j := tr.Jitter(); j != 0 {
		t.Errorf("constant-delay jitter = %v, want 0", j)
	}
	// Alternating delays produce nonzero jitter.
	tr2 := New(100, 0, spacing)
	for i := 0; i < 100; i++ {
		sent := sim.Time(i) * sim.Time(spacing)
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
	tr := New(100, 0, spacing)
	if n := tr.WindowPackets(5 * sim.Second); n != 250 {
		t.Errorf("5s window = %d packets, want 250", n)
	}
	tr0 := New(10, 0, 0)
	if n := tr0.WindowPackets(5 * sim.Second); n != 1 {
		t.Errorf("zero-spacing window = %d, want 1", n)
	}
}

func TestScheduleContractPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"arrival before its send time", func() { New(2, sim.Time(spacing), spacing).RecordArrival(1, sim.Time(2*spacing)-1) }},
		{"delay above MaxInt32", func() { New(2, 0, spacing).RecordArrival(0, math.MaxInt32+1) }},
		{"merge of different starts", func() { Merge(New(2, 0, spacing), New(2, 1, spacing)) }},
		{"merged summary of different spacings", func() { SummarizeMerged(New(2, 0, spacing), New(2, 0, 2*spacing), 0, 0) }},
		{"copy across different spacings", func() { New(2, 0, spacing).CopyFrom(New(2, 0, 2*spacing), 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			c.fn()
		})
	}
	// The bounds themselves are valid delays.
	tr := New(2, 0, spacing)
	tr.RecordArrival(0, 0)
	tr.RecordArrival(1, sim.Time(spacing)+math.MaxInt32)
	if tr.ArrivalTime(0) != 0 || tr.ArrivalTime(1) != sim.Time(spacing)+math.MaxInt32 {
		t.Errorf("boundary delays recorded as %v, %v", tr.ArrivalTime(0), tr.ArrivalTime(1))
	}
}

// TestNewAfterRelease makes traces after releasing longer and shorter
// ones, and checks what each holds, not whether its storage was reused:
// under the race detector sync.Pool drops what it is given at random.
func TestNewAfterRelease(t *testing.T) {
	// Leave the package as a process that never released a trace has it,
	// so allocation tests that run later measure New without the pool.
	t.Cleanup(func() { recycling.Store(false) })
	for _, n := range []int{300, 40, 300, 500, 0, 8} {
		old := mk(400, []bool{true, false, true}, 5*sim.Millisecond)
		old.RecordArrival(1, sim.Time(spacing)) // a duplicate
		old.Release()
		if old.Len() != 0 || old.Duplicates() != 0 || old.Arrived(1) {
			t.Fatalf("released trace reads len %d dup %d, arrived(1) %v, want empty",
				old.Len(), old.Duplicates(), old.Arrived(1))
		}
		old.RecordArrival(0, 0)
		if s := old.Summarize(spacing, spacing); s != (Summary{}) {
			t.Fatalf("released trace summarizes to %+v, want zero", s)
		}
		old.Release() // twice

		tr := New(n, sim.Time(spacing), spacing)
		if tr.Len() != n || tr.Duplicates() != 0 || tr.Start != sim.Time(spacing) || tr.Spacing != spacing {
			t.Fatalf("New(%d) after a release: len %d dup %d start %v spacing %v",
				n, tr.Len(), tr.Duplicates(), tr.Start, tr.Spacing)
		}
		for seq := 0; seq < n; seq++ {
			if tr.Arrived(seq) {
				t.Fatalf("New(%d) after a release: packet %d arrived at %v", n, seq, tr.ArrivalTime(seq))
			}
		}
		tr.Release()
	}
	var none *Trace
	none.Release()
}

// Package-level sinks keep measured allocations on the heap.
var (
	sinkTrace *Trace
	sinkDelay []int32
)

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, by MemStats.TotalAlloc, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTraceBytesPerPacket holds a trace to 4 B per packet plus its
// header: a 6,000-packet trace may cost no more heap than a bare []int32
// of 6,000 and one Trace, each as the allocator rounds it (24,624 B with
// Go's size classes; the two-slice layout took 98,368 B). Each side is
// the least of five 20-call windows: MemStats counts the whole process,
// so an allocation outside New (under the race detector, say) can only
// add to a window, and the least window still bounds New itself.
func TestTraceBytesPerPacket(t *testing.T) {
	const n = 6000
	least := func(f func()) float64 {
		m := math.Inf(1)
		for i := 0; i < 5; i++ {
			m = math.Min(m, bytesPerRun(20, f))
		}
		return m
	}
	got := least(func() { sinkTrace = New(n, 0, spacing) })
	ceil := least(func() { sinkDelay = make([]int32, n) }) +
		least(func() { sinkTrace = new(Trace) })
	t.Logf("New(%d): %.0f B, ceiling %.0f B", n, got, ceil)
	if got > ceil {
		t.Errorf("New(%d) allocates %.0f B (%.2f B per packet), ceiling %.0f B", n, got, got/n, ceil)
	}
}
