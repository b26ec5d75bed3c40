package sim

import (
	"testing"
)

// The scheduling micro-benchmarks below measure the engine hot path.
// TestSchedulingAllocCeiling pins their allocs/op, and `scripts/bench.sh
// smoke` runs it and every benchmark once, so CI catches regressions. Keep
// them closure-light so they measure the engine, not the caller.

// BenchmarkScheduleChain measures steady-state self-rescheduling — the
// shape of every MAC and AP callback chain: one live event at a time,
// schedule → pop → execute → schedule.
func BenchmarkScheduleChain(b *testing.B) {
	s := New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			s.After(10, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(10, step)
	s.RunAll()
	b.StopTimer()
	b.ReportMetric(float64(s.Executed())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleBurst measures bursty scheduling: 512 events queued,
// then drained, repeatedly — the shape of a busy AP queue or a corpus
// warm-up. Timestamps interleave so the heap actually works.
func BenchmarkScheduleBurst(b *testing.B) {
	const burst = 512
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := s.Now()
		for j := 0; j < burst; j++ {
			// Two interleaved time bands exercise sift-up/down paths.
			d := Duration((j%2)*1000 + j)
			s.Schedule(base.Add(d+1), fn)
		}
		s.RunAll()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Executed())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleCancel measures the schedule-then-cancel cycle that
// failsafe timers and pending link switches produce: every event is
// stopped before it can fire.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(1000, fn)
		tm.Stop()
		if i%512 == 511 {
			s.RunAll() // drain cancelled entries
		}
	}
	b.StopTimer()
}

// BenchmarkRNGFloat64 measures the per-frame random draw the PHY/MAC hot
// path makes (two draws per transmission attempt).
func BenchmarkRNGFloat64(b *testing.B) {
	s := New(1)
	r := s.RNG("bench")
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkRNGLookup measures the named-stream lookup, which sits on the
// scenario-construction path.
func BenchmarkRNGLookup(b *testing.B) {
	s := New(1)
	s.RNG("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RNG("bench")
	}
}

// BenchmarkSimEventThroughput measures scheduling and running many short
// one-shot events, drained in batches of 1,024.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Microsecond, func() {})
		if i%1024 == 1023 {
			s.RunAll()
		}
	}
	s.RunAll()
}
