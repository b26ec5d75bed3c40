package sweep

import (
	"runtime"
	"testing"
)

// ceilRunJobBytes holds one sweep job's heap bytes: a 120 s G.711 call
// simulated twice (the dual call and DiversiFi), with three traces of
// 24.6 KB, and scored three times. Scoring in one pass over the traces
// measures 91,440 B; building the merged trace (24.6 KB) or a per-packet
// loss slice per score (3 × 6.1 KB) again exceeds the ceiling.
const ceilRunJobBytes = 100_000

// sinkMetrics keeps the measured job's result on the heap.
var sinkMetrics Metrics

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

// TestRunJobByteCeiling measures grid job 0 of a default sweep-v1 spec,
// whose calls last 120 s.
func TestRunJobByteCeiling(t *testing.T) {
	s := synthSpec(t, `{"name":"ceiling","seeds":{"start":1,"count":2}}`)
	if s.DurationS != 120 {
		t.Fatalf("default call lasts %v s, want 120", s.DurationS)
	}
	j, err := s.JobAt(0)
	if err != nil {
		t.Fatal(err)
	}
	got := bytesPerRun(5, func() { sinkMetrics = RunJob(j) })
	t.Logf("RunJob: %.0f B per job", got)
	if got > ceilRunJobBytes {
		t.Errorf("RunJob allocates %.0f B per job, ceiling %d", got, ceilRunJobBytes)
	}
}
