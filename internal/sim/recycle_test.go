package sim

import (
	"testing"

	"repro/internal/obs"
)

// reuse runs setup on a new simulator, releases it and draws the next one,
// until New hands the released simulator back; under the race detector the
// pool drops what it is given at random, so one attempt may not be enough.
// It returns the recycled simulator.
func reuse(t *testing.T, seed int64, setup func(*Simulator)) *Simulator {
	t.Helper()
	for attempt := 0; attempt < 64; attempt++ {
		s := New(seed)
		setup(s)
		s.Release()
		if next := New(seed); next == s {
			return next
		}
	}
	t.Skip("the pool never handed a released simulator back")
	return nil
}

// TestRecycledSimulatorMatchesFresh: a recycled simulator starts as a fresh
// one does: clock at 0, nothing pending, and every named stream re-seeded
// from the new seed, whatever the released one had drawn and left queued.
func TestRecycledSimulatorMatchesFresh(t *testing.T) {
	s := reuse(t, 9, func(s *Simulator) {
		s.RNG("a").Float64()
		s.RNG("b").NormFloat64() // leaves a cached second deviate behind
		s.Schedule(5, func() {})
		s.Every(Second, func() {})
		s.Run(3 * Time(Second))
	})
	fresh := New(9)
	if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 || s.Seed() != 9 {
		t.Fatalf("recycled simulator: now %v, %d pending, %d executed, seed %d", s.Now(), s.Pending(), s.Executed(), s.Seed())
	}
	for _, name := range []string{"a", "b", "c"} {
		for i := 0; i < 4; i++ {
			if got, want := s.RNG(name).NormFloat64(), fresh.RNG(name).NormFloat64(); got != want {
				t.Fatalf("stream %q draw %d: recycled %v, fresh %v", name, i, got, want)
			}
		}
	}
	if s.RunAll(); s.Executed() != 0 {
		t.Errorf("recycled simulator ran %d events the released one left queued", s.Executed())
	}
}

// TestStaleTimerAfterRelease: a Timer kept from a released call neither
// reads as pending nor stops the event that takes its slot in the next
// call, because a recycled simulator keeps counting sequence numbers.
func TestStaleTimerAfterRelease(t *testing.T) {
	var stale Timer
	s := reuse(t, 1, func(s *Simulator) { stale = s.Schedule(10, func() {}) })
	fired := false
	next := s.Schedule(10, func() { fired = true })
	if next.idx != stale.idx {
		t.Fatalf("the next call's event took slot %d, not the stale timer's %d", next.idx, stale.idx)
	}
	if stale.Pending() {
		t.Error("a timer from the released call reads as pending")
	}
	if stale.Stop() {
		t.Error("a timer from the released call stopped an event of the next")
	}
	s.RunAll()
	if !fired {
		t.Error("the next call's event did not run")
	}
}

// TestReleasedSimulatorDropsObs: a simulator released while ObsProvider
// was set, and drawn again after it is unset, is unobserved: it counts
// nothing in the registry it had.
func TestReleasedSimulatorDropsObs(t *testing.T) {
	reg := obs.NewRegistry()
	defer func() { ObsProvider = nil }()
	for attempt := 0; attempt < 64; attempt++ {
		ObsProvider = func(int64) *obs.Registry { return reg }
		s := New(3)
		s.Schedule(1, func() {})
		s.RunAll()
		s.Release()
		ObsProvider = nil
		if next := New(3); next != s {
			continue
		}
		counted := reg.Counter("sim.events_executed").Value()
		if counted == 0 {
			t.Fatal("the observed simulator counted no events")
		}
		if s.Obs() != nil {
			t.Fatal("the recycled simulator kept the released one's registry")
		}
		s.Schedule(1, func() {})
		s.RunAll()
		if got := reg.Counter("sim.events_executed").Value(); got != counted {
			t.Errorf("the recycled, unobserved simulator counted %d events", got-counted)
		}
		return
	}
	t.Skip("the pool never handed a released simulator back")
}
