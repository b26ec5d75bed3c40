package sim

import "testing"

// Steady-state allocation ceilings for the scheduler hot paths. These are
// the checked-in regression bounds the CI bench smoke enforces (see
// scripts/bench.sh): the engine promises zero allocations per event once
// the heap and slot pool have warmed up, so any nonzero measurement is a
// regression — most likely a closure or interface box sneaking back into
// Schedule/runHead.
const (
	ceilSchedule = 0 // Schedule + execute, warmed pool
	ceilCancel   = 0 // Schedule + Stop
	ceilTick     = 0 // one Ticker period
	ceilTrain    = 0 // one event of each of two Train lanes, after the Train call
	ceilRNGDraw  = 0 // one Float64 from a cached stream
)

// TestSchedulingAllocCeiling measures steady-state allocations per
// operation with testing.AllocsPerRun and fails if any hot path exceeds
// its ceiling. Unlike the benchmarks (whose -benchmem numbers include
// warm-up amortization), AllocsPerRun warms up first, so these bounds are
// exact.
func TestSchedulingAllocCeiling(t *testing.T) {
	s := New(1)

	// Warm the slot pool and heap beyond any size this test reaches.
	for i := 0; i < 64; i++ {
		s.After(Duration(i), func() {})
	}
	s.RunAll()

	fn := func() {}
	schedule := testing.AllocsPerRun(1000, func() {
		s.Schedule(s.Now().Add(Microsecond), fn)
		s.RunAll()
	})
	if schedule > ceilSchedule {
		t.Errorf("schedule+run allocates %.1f/op, ceiling %d", schedule, ceilSchedule)
	}

	cancel := testing.AllocsPerRun(1000, func() {
		tm := s.Schedule(s.Now().Add(Microsecond), fn)
		tm.Stop()
	})
	if cancel > ceilCancel {
		t.Errorf("schedule+cancel allocates %.1f/op, ceiling %d", cancel, ceilCancel)
	}

	tk := s.Every(Millisecond, func() {})
	tick := testing.AllocsPerRun(1000, func() {
		s.Run(s.Now().Add(Millisecond))
	})
	tk.Stop()
	if tick > ceilTick {
		t.Errorf("ticker period allocates %.1f/op, ceiling %d", tick, ceilTick)
	}

	// AllocsPerRun calls its function 1001 times; each call runs one event
	// per lane, one microsecond apart.
	start := s.Now().Add(Microsecond)
	at := func(i int) Time { return start.Add(Duration(i) * Microsecond) }
	s.Train(1001, Lane{At: at, Fn: func(int) {}}, Lane{At: at, Fn: func(int) {}})
	train := testing.AllocsPerRun(1000, func() {
		s.Run(s.Now().Add(Microsecond))
	})
	if s.Pending() != 0 {
		t.Errorf("train left %d events pending, want 0", s.Pending())
	}
	if train > ceilTrain {
		t.Errorf("train event allocates %.1f/op, ceiling %d", train, ceilTrain)
	}

	stream := s.RNG("alloc-test")
	var sink float64
	draw := testing.AllocsPerRun(1000, func() {
		sink += stream.Float64()
	})
	_ = sink
	if draw > ceilRNGDraw {
		t.Errorf("RNG draw allocates %.1f/op, ceiling %d", draw, ceilRNGDraw)
	}
}
