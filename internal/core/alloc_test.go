package core

import (
	"runtime"
	"testing"

	"repro/internal/sim/rng"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// Whole-call allocation ceilings, enforced in CI by scripts/bench.sh smoke
// next to the scheduler's. A call's object count must not grow with its
// packet count or its recovery visits: per-packet timers are sim.Train
// lanes and the client binds a visit's callbacks once, so a 120 s call
// allocates about 120 objects whether it makes 27 recovery visits (the
// mobility call) or 354 (the weak-link call). Scheduling one event per
// packet up front instead costs about 6,000 objects per call, a closure
// per visit callback costs 4 per visit, and scoring a call that builds a
// per-packet loss slice or a merged trace shows up as any object at all. A
// call's bytes are dominated by its traces, one int32 per packet each.
const (
	ceilDiversiFiCall = 320    // objects per 120 s G.711 ModeCustomAP mobility call
	ceilWeakLinkCall  = 166    // objects per weak-link call: 118 measured, 41% headroom as 320 had over 227
	ceilDualCallBytes = 84_000 // bytes per weak-link RunDualCall: 59,544 measured, the same headroom
	ceilAssess        = 0      // voip.Assess and voip.AssessMerged score in one pass over the traces
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
		t.Errorf("voip.Assess allocates %.0f objects, want exactly %d", assess, ceilAssess)
	}
	if q.LossRate <= 0 {
		t.Errorf("the call lost nothing (loss rate %v); the ceilings should be measured on a lossy call", q.LossRate)
	}

	// The scenarios of BenchmarkFullDiversiFiCall and BenchmarkFullDualCall.
	weak := RandomScenario(rng.New(5), ImpWeakLink, traffic.G711, 5)
	weakCall := testing.AllocsPerRun(5, func() {
		res = RunDiversiFi(weak, DiversiFiOptions{Mode: ModeCustomAP})
	})
	t.Logf("RunDiversiFi, weak link: %.0f objects per call, %d recovery visits", weakCall, res.Client.RecoverySwitches)
	if weakCall > ceilWeakLinkCall {
		t.Errorf("RunDiversiFi on a weak link allocates %.0f objects per call, ceiling %d", weakCall, ceilWeakLinkCall)
	}
	if res.Client.RecoverySwitches < 100 {
		t.Errorf("the weak-link call made %d recovery visits; the ceiling should be measured on a call with hundreds", res.Client.RecoverySwitches)
	}

	dual := RandomScenario(rng.New(4), ImpWeakLink, traffic.G711, 4)
	dualBytes := bytesPerRun(5, func() { RunDualCall(dual) })
	t.Logf("RunDualCall: %.0f B per call", dualBytes)
	if dualBytes > ceilDualCallBytes {
		t.Errorf("RunDualCall allocates %.0f B per call, ceiling %d", dualBytes, ceilDualCallBytes)
	}

	d := RunDualCall(sc)
	merged := testing.AllocsPerRun(20, func() {
		q = voip.AssessMerged(d.TraceA, d.TraceB, sc.Profile)
	})
	if merged != ceilAssess {
		t.Errorf("voip.AssessMerged allocates %.0f objects, want exactly %d", merged, ceilAssess)
	}
	if q.LossRate <= 0 {
		t.Errorf("the cross-link receiver lost nothing (loss rate %v); AssessMerged should be measured on a lossy call", q.LossRate)
	}
}
