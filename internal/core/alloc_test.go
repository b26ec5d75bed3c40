package core

import (
	"testing"

	"repro/internal/sim/rng"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// Whole-call allocation ceilings, enforced in CI by scripts/bench.sh smoke
// next to the scheduler's. A call's object count must not grow with its
// packet count: per-packet timers are sim.Train lanes, so a 120 s call
// allocates a fixed set-up (about 90 objects) plus a few per recovery visit
// (this call makes 27). Scheduling one event per packet up front instead
// costs about 6,000 objects per call, and voip.Assess building scratch
// slices shows up as more than the one Lost slice it returns.
const (
	ceilDiversiFiCall = 320 // objects per 120 s G.711 ModeCustomAP call
	ceilAssess        = 1   // voip.Assess allocates exactly its Lost slice
)

func TestCallAllocCeiling(t *testing.T) {
	sc := RandomScenario(rng.New(1), ImpMobility, traffic.G711, 1)
	if sc.PacketCount() != 6000 {
		t.Fatalf("scenario has %d packets, want a 120 s G.711 call (6000)", sc.PacketCount())
	}
	var res DiversiFiResult
	call := testing.AllocsPerRun(5, func() {
		res = RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	})
	t.Logf("RunDiversiFi: %.0f objects per call", call)
	if call > ceilDiversiFiCall {
		t.Errorf("RunDiversiFi allocates %.0f objects per call, ceiling %d", call, ceilDiversiFiCall)
	}

	var q voip.Quality
	assess := testing.AllocsPerRun(20, func() {
		q = voip.Assess(res.Trace, sc.Profile)
	})
	if assess != ceilAssess {
		t.Errorf("voip.Assess allocates %.0f objects, want exactly %d (the Lost slice)", assess, ceilAssess)
	}
	if q.LossRate <= 0 {
		t.Errorf("the call lost nothing (loss rate %v); the ceilings should be measured on a lossy call", q.LossRate)
	}
}
