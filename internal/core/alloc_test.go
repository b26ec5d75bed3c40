package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// Whole-call allocation ceilings, enforced in CI by scripts/bench.sh smoke
// next to the scheduler's. A call's object count must not grow with its
// packet count or its recovery visits: a call's periodic streams (its
// packets, temporal copies, and the client's checks and keepalives) are
// sim.Train lanes and the client binds its lanes and a visit's callbacks
// once, so a 120 s call allocates the same few objects whether it makes 27
// recovery visits (the mobility call) or 354 (the weak-link call).
// Scheduling one event per packet instead costs about 6,000 objects per
// call (as RunTemporal's delayed copies did), a closure per visit callback
// costs 4 per visit, and scoring a call that builds a per-packet loss
// slice or a merged trace shows up as any object at all.
//
// A call releases its world (simulator with its lane cursors, links, APs,
// wires, client), so a call after the first builds it on recycled storage:
// a DiversiFi call measures 31 objects (mobility) and 26 (weak link), its
// unreleased result's trace and logs included, where it measured 112 and
// 107 on fresh worlds, and a RunTemporal call with its traces released
// measures 15 (63 on a fresh world). With their results released too, the
// weak-link DiversiFi call measures 842 B and the weak-link dual call
// 560 B; the dual call measured 59,544 B with a fresh world and its result
// kept. Each ceiling was set with 41% headroom (as 320 had over 227) over
// its reading then: 38 and 33 objects, 946 and 720 B, and RunTemporal's 15
// objects. A call that stops releasing its simulator, an AP, a wire or its
// client fails them; a link's release (about 330 B) hides in the headroom.
// Under the race detector sync.Pool drops what it is given at random, so
// there the object ceilings stay those held before worlds were recycled (a
// fresh world's count with the same headroom for RunTemporal), and both
// calls' bytes are held to the dual call's old ceiling.
const (
	ceilDiversiFiCall      = 54    // objects per 120 s G.711 ModeCustomAP mobility call
	ceilWeakLinkCall       = 47    // objects per weak-link call
	ceilTemporalCall       = 21    // objects per weak-link RunTemporal, Δ = 0 or 100 ms, its traces released
	ceilDiversiFiCallBytes = 1_340 // bytes per weak-link RunDiversiFi, its result released
	ceilDualCallBytes      = 1_020 // bytes per weak-link RunDualCall, its result released
	ceilDiversiFiCallRace  = 320
	ceilWeakLinkCallRace   = 166
	ceilTemporalCallRace   = 89
	ceilCallBytesRace      = 84_000
	ceilAssess             = 0 // voip.Assess and voip.AssessMerged score in one pass over the traces
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
	ceilCall, ceilWeak, ceilTemporal, ceilWeakBytes, ceilDualBytes := ceilDiversiFiCall, ceilWeakLinkCall, ceilTemporalCall, ceilDiversiFiCallBytes, ceilDualCallBytes
	if raceEnabled {
		ceilCall, ceilWeak, ceilTemporal, ceilWeakBytes, ceilDualBytes = ceilDiversiFiCallRace, ceilWeakLinkCallRace, ceilTemporalCallRace, ceilCallBytesRace, ceilCallBytesRace
	}
	sc := RandomScenario(rng.New(1), ImpMobility, traffic.G711, 1)
	if sc.PacketCount() != 6000 {
		t.Fatalf("scenario has %d packets, want a 120 s G.711 call (6000)", sc.PacketCount())
	}
	var res DiversiFiResult
	call := testing.AllocsPerRun(5, func() {
		res = RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	})
	t.Logf("RunDiversiFi: %.0f objects per call", call)
	if call > float64(ceilCall) {
		t.Errorf("RunDiversiFi allocates %.0f objects per call, ceiling %d", call, ceilCall)
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
	if weakCall > float64(ceilWeak) {
		t.Errorf("RunDiversiFi on a weak link allocates %.0f objects per call, ceiling %d", weakCall, ceilWeak)
	}
	if res.Client.RecoverySwitches < 100 {
		t.Errorf("the weak-link call made %d recovery visits; the ceiling should be measured on a call with hundreds", res.Client.RecoverySwitches)
	}

	for _, delta := range []sim.Duration{0, 100 * sim.Millisecond} {
		temporal := testing.AllocsPerRun(5, func() {
			repl, base := RunTemporal(weak, delta)
			repl.Release()
			base.Release()
		})
		t.Logf("RunTemporal, Δ = %v, traces released: %.0f objects per call", delta, temporal)
		if temporal > float64(ceilTemporal) {
			t.Errorf("RunTemporal at Δ = %v allocates %.0f objects per call, ceiling %d", delta, temporal, ceilTemporal)
		}
	}

	weakBytes := bytesPerRun(5, func() { r := RunDiversiFi(weak, DiversiFiOptions{Mode: ModeCustomAP}); r.Release() })
	t.Logf("RunDiversiFi, weak link, result released: %.0f B per call", weakBytes)
	if weakBytes > float64(ceilWeakBytes) {
		t.Errorf("RunDiversiFi on a weak link allocates %.0f B per call, ceiling %d", weakBytes, ceilWeakBytes)
	}

	dual := RandomScenario(rng.New(4), ImpWeakLink, traffic.G711, 4)
	dualBytes := bytesPerRun(5, func() { d := RunDualCall(dual); d.Release() })
	t.Logf("RunDualCall: %.0f B per call", dualBytes)
	if dualBytes > float64(ceilDualBytes) {
		t.Errorf("RunDualCall allocates %.0f B per call, ceiling %d", dualBytes, ceilDualBytes)
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
