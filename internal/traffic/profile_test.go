package traffic

import "testing"

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
