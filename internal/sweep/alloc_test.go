package sweep

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/campaign"
)

// ceilRunJobBytes holds one sweep job's heap bytes: a 120 s G.711 call
// simulated twice (the dual call and DiversiFi) and scored three times
// in one pass over its three 6,000-packet traces. RunJob releases both
// results once scored, and each call releases its world (simulator,
// links, APs, wires, client, source), so the next job builds both calls
// and their traces, series and logs on recycled storage, and a job
// measures 2,491 B; it measured 17,376 B when only traces were recycled.
// The ceiling keeps core's 41% headroom, so a call that stops releasing
// its APs, wires, links, client or simulator, or a job that stops
// releasing a result, exceeds it. Under the race detector sync.Pool drops
// what it is given at random, so there the ceiling stays at
// ceilRunJobBytesRace, the one held before traces were recycled (91,032 B
// measured then).
const (
	ceilRunJobBytes     = 3_520
	ceilRunJobBytesRace = 100_000
)

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
	ceil := ceilRunJobBytes
	if raceEnabled {
		ceil = ceilRunJobBytesRace
	}
	got := bytesPerRun(5, func() { sinkMetrics = RunJob(j) })
	t.Logf("RunJob: %.0f B per job", got)
	if got > float64(ceil) {
		t.Errorf("RunJob allocates %.0f B per job, ceiling %d", got, ceil)
	}
}

// ceilGridJobBytes holds the mean heap bytes of a job over gridCeilingDoc,
// a 120 s grid whose jobs make 42 recoveries each on average where job 0
// makes 4, so every log and queue a call grows is held at its size too.
// Recycled call worlds measure 4,961 B per job there; before, a job built
// its world afresh and measured 29,853 B. The ceiling keeps core's 41%
// headroom. The race detector's pool drops what it is given at random,
// so the mean is not measured there.
const (
	ceilGridJobBytes = 7_000
	gridCeilingDoc   = `{"name":"grid-ceiling","seeds":{"start":7,"count":2}}`
)

// TestRunJobGridByteCeiling measures the mean over gridCeilingDoc's 60
// jobs after one pass over them that fills the pools.
func TestRunJobGridByteCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := synthSpec(t, gridCeilingDoc)
	jobs := make([]Job, s.Total())
	for i := range jobs {
		j, err := s.JobAt(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	recoveries := 0
	pass := func() {
		recoveries = 0
		for _, j := range jobs {
			sinkMetrics = RunJob(j)
			recoveries += len(sinkMetrics.Series["recovery_total_ms"])
		}
	}
	got := bytesPerRun(1, pass) / float64(len(jobs))
	perJob := float64(recoveries) / float64(len(jobs))
	t.Logf("RunJob over %d jobs: %.0f B and %.1f recoveries per job", len(jobs), got, perJob)
	if perJob < 30 {
		t.Errorf("the grid makes %.1f recoveries per job; the ceiling should be measured on a recovery-heavy grid", perJob)
	}
	if got > ceilGridJobBytes {
		t.Errorf("RunJob allocates %.0f B per job over the grid, ceiling %d", got, ceilGridJobBytes)
	}
}

// Ceilings on resolving a warm cache entry through Runner.Do:
// cachedEntryJob, a 120 s call with 99 recoveries, whose 2,544-byte entry
// holds 396 series floats. Read into a pooled buffer and decoded in one
// pass, it measures 26 objects and 5,344 B, 3,168 B of them the four
// series the record must hold; through os.ReadFile and encoding/json it
// took 104 objects and 14,000 B. Under the race detector sync.Pool drops a
// quarter of what it is given, and a dropped buffer regrows from 512 B
// to 4 KiB (four more objects, 7,680 B more), so there the byte ceiling
// sits just below encoding/json's.
const (
	ceilCachedResolveAllocs    = 40
	ceilCachedResolveBytes     = 8_000
	ceilCachedResolveBytesRace = 13_500
)

// TestCachedResolveAllocCeiling holds a cached resolve to its ceilings.
func TestCachedResolveAllocCeiling(t *testing.T) {
	j := cachedEntryJob(t)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache}
	if _, cached, err := r.Do(j); err != nil || cached {
		t.Fatalf("filling the entry: cached=%v err=%v", cached, err)
	}
	resolve := func() {
		m, cached, err := r.Do(j)
		if err != nil || !cached {
			t.Fatalf("resolve: cached=%v err=%v", cached, err)
		}
		sinkMetrics = m
	}
	resolve()
	if n := len(sinkMetrics.Series["recovery_total_ms"]); n != 99 {
		t.Fatalf("the job recovered %d losses, want 99", n)
	}
	ceilB := ceilCachedResolveBytes
	if raceEnabled {
		ceilB = ceilCachedResolveBytesRace
	}
	allocs, bytes := testing.AllocsPerRun(20, resolve), bytesPerRun(20, resolve)
	t.Logf("cached resolve: %.0f objects, %.0f B", allocs, bytes)
	if allocs > ceilCachedResolveAllocs || bytes > float64(ceilB) {
		t.Errorf("cached resolve: %.0f objects and %.0f B, ceilings %d and %d", allocs, bytes, ceilCachedResolveAllocs, ceilB)
	}
}

// leaseReport is a worker's report of a 50-job lease over 10 cells of
// synthMetrics jobs, each job's elapsed time included: the shape of
// fleet-http's first warm-up lease.
func leaseReport(tb testing.TB) CompleteRequest {
	tb.Helper()
	s, err := ParseSpec([]byte(`{"name":"report","seeds":{"count":5},
		"impairments":["none","weak-link","mobility","microwave","congestion"],
		"device_classes":["pc","mobile"],"ap_densities":["typical"]}`))
	if err != nil {
		tb.Fatal(err)
	}
	req := spanReport(tb, s, "w", LeaseResponse{LeaseID: "L1", From: 0, To: s.Total()})
	for i := int64(0); i < s.Total(); i++ {
		req.Agg.ObserveElapsed(40 + float64(i%7)*3.5)
	}
	return req
}

// Ceilings on encoding and decoding leaseReport's 151 digests as JSON.
// With the digests on sorted slices and their one-pass codec, Go 1.24 on
// linux/amd64 measures 424 objects and 75,698 B to encode, and 821
// objects and 56,025 B to decode. The map-backed digests, which re-entered
// encoding/json for each digest, took 1,139 objects and 100,267 B to
// encode, and 3,184 objects and 187,803 B to decode.
const (
	ceilReportEncodeAllocs = 550
	ceilReportEncodeBytes  = 90_000
	ceilReportDecodeAllocs = 1_100
	ceilReportDecodeBytes  = 80_000
)

var (
	sinkReport      CompleteRequest
	sinkReportBytes []byte
)

// TestLeaseReportAllocCeiling holds a lease report's codec, the bulk of
// what a lease costs the coordinator, to its allocation ceilings. Under
// the race detector only decoding is held: encoding/json encodes through
// a sync.Pool, which the detector makes drop items at random.
func TestLeaseReportAllocCeiling(t *testing.T) {
	req := leaseReport(t)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() { sinkReportBytes, _ = json.Marshal(req) }
	decode := func() {
		var back CompleteRequest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		sinkReport = back
	}
	for _, c := range []struct {
		name              string
		f                 func()
		ceilAllocs, ceilB float64
	}{
		{"encode", encode, ceilReportEncodeAllocs, ceilReportEncodeBytes},
		{"decode", decode, ceilReportDecodeAllocs, ceilReportDecodeBytes},
	} {
		if raceEnabled && c.name == "encode" {
			continue
		}
		allocs, bytes := testing.AllocsPerRun(20, c.f), bytesPerRun(20, c.f)
		t.Logf("%s a %d-byte report of %d digests: %.0f objects, %.0f B", c.name, len(data), req.Agg.Sketches(), allocs, bytes)
		if allocs > c.ceilAllocs || bytes > c.ceilB {
			t.Errorf("%s: %.0f objects and %.0f B, ceilings %.0f and %.0f", c.name, allocs, bytes, c.ceilAllocs, c.ceilB)
		}
	}
}
