package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// fakeJob builds a job around an arbitrary runner, bypassing the registry,
// so scheduler tests don't pay for real simulations.
func fakeJob(id string, seed int64, run func(n int, seed int64) *exp.Result) Job {
	return Job{ID: id, Seed: seed, effN: 10, run: run}
}

func okResult(id string) *exp.Result {
	t := stats.NewTable("t", "a", "b")
	t.AddRow("1", "2")
	return &exp.Result{ID: id, Title: "fake " + id, Tables: []*stats.Table{t},
		Plots: []string{"plot"}, Notes: []string{"note"}}
}

func TestRunExecutesAndCaches(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int32
	jobs := make([]Job, 5)
	for i := range jobs {
		id := fmt.Sprintf("job%d", i)
		jobs[i] = fakeJob(id, 42, func(int, int64) *exp.Result {
			execs.Add(1)
			return okResult(id)
		})
	}
	opts := Options{Jobs: jobs, Workers: 3, Cache: cache, Retries: 1}

	s1 := Run(opts)
	if s1.Executed != 5 || s1.Cached != 0 || s1.Failed != 0 {
		t.Fatalf("first run: %+v", s1)
	}
	if execs.Load() != 5 {
		t.Fatalf("executed %d jobs, want 5", execs.Load())
	}

	// Second run must be pure cache hits: zero re-executions.
	s2 := Run(opts)
	if s2.Executed != 0 || s2.Cached != 5 || s2.Failed != 0 {
		t.Fatalf("second run: %+v", s2)
	}
	if execs.Load() != 5 {
		t.Fatalf("cache hit still executed jobs: %d total execs", execs.Load())
	}
}

func TestRunResumesAfterPartialCampaign(t *testing.T) {
	// Simulate an interrupted campaign: only some jobs made it into the
	// cache. The re-run must execute exactly the missing ones.
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int32
	jobs := make([]Job, 6)
	for i := range jobs {
		id := fmt.Sprintf("job%d", i)
		jobs[i] = fakeJob(id, 7, func(int, int64) *exp.Result {
			execs.Add(1)
			return okResult(id)
		})
	}
	for _, j := range jobs[:4] {
		if err := cache.Store(j.Key(), okResult(j.ID)); err != nil {
			t.Fatal(err)
		}
	}
	s := Run(Options{Jobs: jobs, Workers: 2, Cache: cache})
	if s.Cached != 4 || s.Executed != 2 || execs.Load() != 2 {
		t.Fatalf("resume ran %d execs (summary %+v), want exactly the 2 missing", execs.Load(), s)
	}
}

func TestPanicIsolatedRetriedAndReported(t *testing.T) {
	var attempts atomic.Int32
	jobs := []Job{
		fakeJob("boom", 1, func(int, int64) *exp.Result {
			attempts.Add(1)
			panic("synthetic failure")
		}),
		fakeJob("fine", 1, func(int, int64) *exp.Result { return okResult("fine") }),
	}
	s := Run(Options{Jobs: jobs, Workers: 2, Retries: 1})
	if s.Failed != 1 || s.Executed != 1 {
		t.Fatalf("summary %+v, want 1 failed + 1 ok", s)
	}
	if attempts.Load() != 2 {
		t.Fatalf("panicking job attempted %d times, want 2 (retry once)", attempts.Load())
	}
	rec := s.Jobs[0]
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "panic") || rec.Attempts != 2 {
		t.Fatalf("record %+v", rec)
	}
	if len(s.Failures) != 1 || !strings.Contains(s.Failures[0], "boom") {
		t.Fatalf("failure digest %v", s.Failures)
	}
}

func TestTimeoutFailsJobWithoutAbortingFleet(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	jobs := []Job{
		fakeJob("slow", 1, func(int, int64) *exp.Result { <-block; return okResult("slow") }),
		fakeJob("fast", 1, func(int, int64) *exp.Result { return okResult("fast") }),
	}
	s := Run(Options{Jobs: jobs, Workers: 2, Timeout: 20 * time.Millisecond})
	if s.Failed != 1 || s.Executed != 1 {
		t.Fatalf("summary %+v", s)
	}
	if rec := s.Jobs[0]; rec.Status != StatusFailed || !strings.Contains(rec.Error, "timeout") {
		t.Fatalf("slow record %+v", rec)
	}
	if rec := s.Jobs[1]; rec.Status != StatusOK {
		t.Fatalf("fast record %+v", rec)
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	var attempts atomic.Int32
	j := fakeJob("flaky", 1, func(int, int64) *exp.Result {
		if attempts.Add(1) == 1 {
			panic("first attempt fails")
		}
		return okResult("flaky")
	})
	s := Run(Options{Jobs: []Job{j}, Retries: 1})
	if s.Executed != 1 || s.Failed != 0 || s.Jobs[0].Attempts != 2 {
		t.Fatalf("summary %+v", s)
	}
}

// stripTiming zeroes the fields the determinism contract excludes.
func stripTiming(t *testing.T, data []byte) []byte {
	t.Helper()
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	s.ElapsedMS = 0
	s.JobsPerSec = 0
	s.ElapsedP50MS, s.ElapsedP95MS, s.ElapsedP99MS, s.ElapsedP999MS = 0, 0, 0, 0
	for i := range s.Jobs {
		s.Jobs[i].ElapsedMS = 0
	}
	out, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSummaryJSONDeterministicAcrossColdRuns: two cold runs whose jobs take
// different wall-clock times give the same summary once stripTiming has
// zeroed the timing fields, so the test also proves timing is excluded.
func TestSummaryJSONDeterministicAcrossColdRuns(t *testing.T) {
	run := func(sleep time.Duration) []byte {
		jobs := make([]Job, 4)
		for i := range jobs {
			id := fmt.Sprintf("job%d", i)
			jobs[i] = fakeJob(id, 42, func(int, int64) *exp.Result {
				time.Sleep(sleep)
				return okResult(id)
			})
		}
		cache, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		data, err := Run(Options{Jobs: jobs, Workers: 3, Cache: cache}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return stripTiming(t, data)
	}
	a, b := run(0), run(3*time.Millisecond)
	if !bytes.Equal(a, b) {
		t.Fatalf("cold runs differ:\n%s\n---\n%s", a, b)
	}
}

func TestProgressAndTextSummary(t *testing.T) {
	var buf bytes.Buffer
	jobs := []Job{fakeJob("one", 1, func(int, int64) *exp.Result { return okResult("one") })}
	s := Run(Options{Jobs: jobs, Progress: &buf})
	if !strings.Contains(buf.String(), "one") || !strings.Contains(buf.String(), "jobs/s") {
		t.Fatalf("progress output %q", buf.String())
	}
	text := s.Text()
	if !strings.Contains(text, "Campaign summary") || !strings.Contains(text, "1 executed") {
		t.Fatalf("text summary %q", text)
	}
}

func TestOnResultDeliversCachedAndExecuted(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{fakeJob("x", 1, func(int, int64) *exp.Result { return okResult("x") })}
	for _, cold := range []bool{true, false} {
		got := 0
		Run(Options{Jobs: jobs, Cache: cache, OnResult: func(j Job, r *exp.Result) {
			if r == nil || r.ID != "x" {
				t.Fatalf("cold=%v: bad result %+v", cold, r)
			}
			got++
		}})
		if got != 1 {
			t.Fatalf("cold=%v: OnResult called %d times", cold, got)
		}
	}
}

func TestJobKeyDistinguishesIDSeedN(t *testing.T) {
	base := Job{ID: "fig2a", Seed: 42, effN: 458}
	keys := map[string]bool{base.Key(): true}
	for _, j := range []Job{
		{ID: "fig2b", Seed: 42, effN: 458},
		{ID: "fig2a", Seed: 43, effN: 458},
		{ID: "fig2a", Seed: 42, effN: 100},
	} {
		if keys[j.Key()] {
			t.Fatalf("key collision for %+v", j)
		}
		keys[j.Key()] = true
	}
	if base.Key() != (Job{ID: "fig2a", Seed: 42, effN: 458}).Key() {
		t.Fatal("key not stable for identical jobs")
	}
}

// TestSummarySurfacesSeriesPoints checks the per-job and fleet-total
// series-window telemetry: windows captured while a job runs land in its
// record and sum into the summary (and its text report grows the series
// column and footer only then).
func TestSummarySurfacesSeriesPoints(t *testing.T) {
	reg := obs.NewRegistry()
	se := obs.NewSeries(reg, 1000)
	reg.SetSeries(se)
	var clock atomic.Int64
	tickThree := func(int, int64) *exp.Result {
		base := clock.Add(10_000)
		for i := int64(0); i < 3; i++ {
			se.Tick(base + i*1000)
		}
		return okResult("x")
	}
	jobs := []Job{fakeJob("a", 1, tickThree), fakeJob("b", 1, tickThree)}
	s := Run(Options{Jobs: jobs, Workers: 1, Obs: reg})
	if s.SeriesPoints != 6 {
		t.Fatalf("summary series points = %d, want 6", s.SeriesPoints)
	}
	for _, r := range s.Jobs {
		if r.SeriesPoints != 3 {
			t.Errorf("job %s series points = %d, want 3", r.ID, r.SeriesPoints)
		}
	}
	text := s.Text()
	if !strings.Contains(text, "series") || !strings.Contains(text, "series: 6 windows") {
		t.Errorf("text summary missing series telemetry:\n%s", text)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"series_points": 3`) {
		t.Errorf("summary JSON missing per-job series_points:\n%s", data)
	}

	// Without a collector the summary stays series-free: no column, no
	// footer, and omitempty keeps the JSON schema unchanged.
	s2 := Run(Options{Jobs: []Job{fakeJob("c", 1, func(int, int64) *exp.Result { return okResult("c") })}, Workers: 1})
	if s2.SeriesPoints != 0 || strings.Contains(s2.Text(), "series") {
		t.Errorf("series telemetry leaked into an uninstrumented campaign:\n%s", s2.Text())
	}
	if data, err := s2.JSON(); err != nil || strings.Contains(string(data), "series_points") {
		t.Errorf("series_points present in uninstrumented summary JSON (err=%v)", err)
	}
}

func TestRunObsInstrumentation(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		fakeJob("ok1", 1, func(int, int64) *exp.Result { return okResult("ok1") }),
		fakeJob("ok2", 1, func(int, int64) *exp.Result { return okResult("ok2") }),
		fakeJob("boom", 1, func(int, int64) *exp.Result { panic("boom") }),
	}
	reg := obs.NewRegistry()
	s := Run(Options{Jobs: jobs, Workers: 2, Cache: cache, Retries: 1, Obs: reg})
	if s.Executed != 2 || s.Failed != 1 {
		t.Fatalf("summary: %+v", s)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign.jobs_executed"]; got != 2 {
		t.Errorf("jobs_executed = %d, want 2", got)
	}
	if got := snap.Counters["campaign.jobs_failed"]; got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	if got := snap.Counters["campaign.job_retries"]; got != 1 {
		t.Errorf("job_retries = %d, want 1 (one retry before giving up)", got)
	}
	if got := snap.Histograms["campaign.job_elapsed_ms"].Count; got != 3 {
		t.Errorf("job_elapsed_ms count = %d, want 3", got)
	}
	if s.ElapsedP50MS < 0 || s.ElapsedP95MS < s.ElapsedP50MS || s.ElapsedP99MS < s.ElapsedP95MS {
		t.Errorf("percentiles not monotone: p50=%d p95=%d p99=%d",
			s.ElapsedP50MS, s.ElapsedP95MS, s.ElapsedP99MS)
	}
	if !strings.Contains(s.Text(), "per-job elapsed: p50") {
		t.Errorf("text summary missing percentile line:\n%s", s.Text())
	}

	// A cached re-run counts cache hits and leaves the execute counters
	// for the successful jobs alone.
	reg2 := obs.NewRegistry()
	s2 := Run(Options{Jobs: jobs[:2], Workers: 2, Cache: cache, Retries: 1, Obs: reg2})
	if s2.Cached != 2 {
		t.Fatalf("second run: %+v", s2)
	}
	snap2 := reg2.Snapshot()
	if got := snap2.Counters["campaign.jobs_cached"]; got != 2 {
		t.Errorf("jobs_cached = %d, want 2", got)
	}
	if got := snap2.Counters["campaign.jobs_executed"]; got != 0 {
		t.Errorf("jobs_executed = %d, want 0 on a warm cache", got)
	}
}
