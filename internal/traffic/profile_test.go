package traffic

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestProfileDerivedQuantities(t *testing.T) {
	if kbps := G711.BitrateKbps(); kbps != 64 {
		t.Errorf("G.711 bitrate = %v kbps, want 64", kbps)
	}
	if pps := G711.PacketsPerSecond(); pps != 50 {
		t.Errorf("G.711 pps = %v, want 50", pps)
	}
	if q := G711.APQueueLen(); q != 5 {
		t.Errorf("G.711 AP queue len = %d, want 5 (Algorithm 1)", q)
	}
	if kbps := HighRate.BitrateKbps(); kbps != 5000 {
		t.Errorf("high-rate bitrate = %v kbps, want 5000", kbps)
	}
	var zero Profile
	if zero.BitrateKbps() != 0 || zero.PacketsPerSecond() != 0 || zero.APQueueLen() != 1 {
		t.Error("zero profile should degrade gracefully")
	}
}

func TestSourceEmission(t *testing.T) {
	s := sim.New(1)
	var seqs []int
	var times []sim.Time
	src := NewSource(s, 1, G711, func(p pkt.Packet) {
		seqs = append(seqs, p.Seq)
		times = append(times, p.SentAt)
		if p.Size != 160 || p.StreamID != 1 {
			t.Errorf("bad packet %+v", p)
		}
	})
	s.Schedule(0, func() { src.Start(10) })
	s.RunAll()
	if len(seqs) != 10 {
		t.Fatalf("emitted %d, want 10", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != i {
			t.Fatalf("sequence gap: %v", seqs)
		}
		if times[i] != sim.Time(i)*sim.Time(20*sim.Millisecond) {
			t.Fatalf("packet %d at %v", i, times[i])
		}
	}
	if src.Emitted() != 10 {
		t.Errorf("Emitted = %d", src.Emitted())
	}
}

func TestSourceStop(t *testing.T) {
	s := sim.New(2)
	count := 0
	var src *Source
	src = NewSource(s, 1, G711, func(p pkt.Packet) {
		count++
		if count == 3 {
			src.Stop()
		}
	})
	s.Schedule(0, func() { src.Start(0) }) // unbounded
	s.Run(sim.Time(10 * sim.Second))
	if count != 3 {
		t.Errorf("emitted %d after Stop, want 3", count)
	}
}

func TestTwoMinuteCallPacketCount(t *testing.T) {
	// The paper's 2-minute G.711 call is 6000 packets (§4.2).
	s := sim.New(3)
	count := 0
	src := NewSource(s, 1, G711, func(pkt.Packet) { count++ })
	s.Schedule(0, func() { src.Start(6000) })
	s.Run(sim.Time(2 * sim.Minute))
	if count != 6000 {
		t.Errorf("2-minute call = %d packets, want 6000", count)
	}
}

// TestProfileByKey: the two workload keys resolve, anything else does not,
// and a lookup allocates nothing (sweep.RunJob makes one per job).
func TestProfileByKey(t *testing.T) {
	for key, want := range map[string]Profile{"g711": G711, "highrate": HighRate} {
		if got, ok := ProfileByKey(key); !ok || got != want {
			t.Errorf("ProfileByKey(%q) = %v, %v", key, got.Name, ok)
		}
	}
	for _, key := range []string{"g729", "HighRate", "G.711", ""} {
		if _, ok := ProfileByKey(key); ok {
			t.Errorf("ProfileByKey(%q) resolved", key)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ProfileByKey("highrate") }); n != 0 {
		t.Errorf("ProfileByKey allocates %v objects", n)
	}
}
