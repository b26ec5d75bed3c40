package obs_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
)

// The disabled path is the one every unobserved simulation pays: all
// instruments obtained from a nil registry must be free. The alloc figures
// here back the zero-cost claim in docs/OBSERVABILITY.md; the corresponding
// hard assertions live in TestDisabledPathAllocs.

func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *obs.Registry
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *obs.Registry
	h := r.Histogram("bench.hist", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench.hist", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 1000000))
	}
}

// benchSimLoop drives the simulator's hot loop — schedule + execute — with
// the given registry attached. Comparing the nil-registry variant against
// the attached one isolates what instrumentation adds per event.
func benchSimLoop(b *testing.B, reg *obs.Registry) {
	s := sim.New(1)
	s.SetObs(reg)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
}

func BenchmarkSimEventLoopDisabled(b *testing.B) { benchSimLoop(b, nil) }

func BenchmarkSimEventLoopEnabled(b *testing.B) { benchSimLoop(b, obs.NewRegistry()) }

// armedQuietRegistry builds a registry with a streaming SLO engine armed on
// a series collector, using a ruleset whose gauge never violates — the
// "armed but quiet" configuration every instrumented-but-healthy run pays.
func armedQuietRegistry(tb testing.TB) *obs.Registry {
	tb.Helper()
	rs, err := slo.DecodeRules([]byte(
		`{"schema":"slo-v1","rules":[{"name":"quiet","signal":"gauge(bench.depth)","max":1e18}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	se := obs.NewSeries(reg, 0)
	reg.SetSeries(se)
	slo.NewEngine(rs).Arm(reg, se)
	return reg
}

func BenchmarkSimEventLoopSLOArmedQuiet(b *testing.B) { benchSimLoop(b, armedQuietRegistry(b)) }

// TestSimLoopDisabledAddsNoAllocs is the hard form of the benchmark pair
// above: executing events on an unobserved simulator allocates exactly as
// much as the engine itself (one event record per Schedule), nothing more
// for instrumentation.
func TestSimLoopDisabledAddsNoAllocs(t *testing.T) {
	s := sim.New(1)
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, func() {})
		s.RunAll()
	})
	s2 := sim.New(2)
	s2.SetObs(nil)
	withNil := testing.AllocsPerRun(1000, func() {
		s2.After(1, func() {})
		s2.RunAll()
	})
	if withNil > allocs {
		t.Errorf("nil-registry loop allocates %.1f/op vs %.1f/op baseline", withNil, allocs)
	}
}

// TestSimLoopArmedQuietSLOAddsNoAllocs extends the alloc ceiling to the SLO
// plane: arming an engine (non-violating rules) on an instrumented
// simulator must add zero allocations per event over the plain instrumented
// loop — the engine only runs at series window captures, never on the event
// hot path.
func TestSimLoopArmedQuietSLOAddsNoAllocs(t *testing.T) {
	base := sim.New(1)
	base.SetObs(obs.NewRegistry())
	plain := testing.AllocsPerRun(1000, func() {
		base.After(1, func() {})
		base.RunAll()
	})
	armed := sim.New(2)
	armed.SetObs(armedQuietRegistry(t))
	withSLO := testing.AllocsPerRun(1000, func() {
		armed.After(1, func() {})
		armed.RunAll()
	})
	if withSLO > plain {
		t.Errorf("armed-but-quiet SLO loop allocates %.1f/op vs %.1f/op instrumented baseline",
			withSLO, plain)
	}
}
