package campaign_test

// A registry campaign — every experiment of exp.Registry() a
// content-addressed job — runs on the sweep engine (internal/sweep) over
// this package's cache and fleet view. These tests pin what `campaign
// -jobs` promises on that path. Fakes stand in for experiments through
// sweep.Runner.RunFunc, so no test pays for a real simulation unless it
// says so.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func okResult(id string) *exp.Result {
	t := stats.NewTable("t", "a", "b")
	t.AddRow("1", "2")
	return &exp.Result{ID: id, Title: "fake " + id, Tables: []*stats.Table{t},
		Plots: []string{"plot"}, Notes: []string{"note"}}
}

// fake is a RunFunc returning okResult for every job.
func fake(j sweep.Job) sweep.Metrics { return sweep.Metrics{Result: okResult(j.Name())} }

// experiments builds an experiments-source spec over the given selectors
// at one seed.
func experiments(t *testing.T, seed int64, sel ...string) *sweep.Spec {
	t.Helper()
	doc, err := json.Marshal(sweep.Spec{Name: "campaign", Experiments: sel,
		Seeds: sweep.SeedRange{Start: seed, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sweep.ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCampaign drives spec the way cmd/campaign does: `workers` in-process
// workers, one job per lease, no in-worker parallelism. Every worker
// writes progress, so pass one only with a single worker.
func runCampaign(t *testing.T, spec *sweep.Spec, r *sweep.Runner, workers int, progress io.Writer) (*sweep.Summary, *sweep.Coordinator) {
	t.Helper()
	c := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{Batch: 1})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := sweep.RunWorker(sweep.LocalTransport{C: c}, r,
				sweep.WorkerOptions{Name: fmt.Sprintf("local%d", n), Parallel: 1, Progress: progress}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	return c.Summary(), c
}

var fiveJobs = []string{"table1", "table2", "fig1", "fig3", "fig7"}

func TestRunExecutesAndCaches(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int32
	r := &sweep.Runner{Cache: cache, RunFunc: func(j sweep.Job) sweep.Metrics {
		execs.Add(1)
		return fake(j)
	}}

	s1, _ := runCampaign(t, experiments(t, 42, fiveJobs...), r, 3, nil)
	if s1.Executed != 5 || s1.Cached != 0 || s1.Failed != 0 {
		t.Fatalf("first run: %d executed, %d cached, %d failed", s1.Executed, s1.Cached, s1.Failed)
	}
	if execs.Load() != 5 {
		t.Fatalf("executed %d jobs, want 5", execs.Load())
	}

	// Second run must be pure cache hits: zero re-executions.
	s2, _ := runCampaign(t, experiments(t, 42, fiveJobs...), r, 3, nil)
	if s2.Executed != 0 || s2.Cached != 5 || s2.Failed != 0 {
		t.Fatalf("second run: %d executed, %d cached, %d failed", s2.Executed, s2.Cached, s2.Failed)
	}
	if execs.Load() != 5 {
		t.Fatalf("cache hit still executed jobs: %d total execs", execs.Load())
	}
}

func TestRunResumesAfterPartialCampaign(t *testing.T) {
	// Simulate an interrupted campaign: only some jobs made it into the
	// cache, in the encoding the registry cache has always written. The
	// re-run must execute exactly the missing ones.
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments(t, 7, "table1", "table2", "fig1", "fig3", "fig7", "table3")
	for i := int64(0); i < 4; i++ {
		j, _ := spec.JobAt(i)
		data, err := json.MarshalIndent(okResult(j.Name()), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.StoreRaw(j.Key(), data); err != nil {
			t.Fatal(err)
		}
	}
	var execs atomic.Int32
	s, _ := runCampaign(t, spec, &sweep.Runner{Cache: cache, RunFunc: func(j sweep.Job) sweep.Metrics {
		execs.Add(1)
		return fake(j)
	}}, 2, nil)
	if s.Cached != 4 || s.Executed != 2 || execs.Load() != 2 {
		t.Fatalf("resume ran %d execs (%d cached, %d executed), want exactly the 2 missing",
			execs.Load(), s.Cached, s.Executed)
	}
}

func TestPanicIsolatedRetriedAndReported(t *testing.T) {
	var attempts atomic.Int32
	r := &sweep.Runner{RunFunc: func(j sweep.Job) sweep.Metrics {
		if j.Name() == "fig1" {
			attempts.Add(1)
			panic("synthetic failure")
		}
		return fake(j)
	}}
	s, _ := runCampaign(t, experiments(t, 1, "fig1", "fig7"), r, 2, nil)
	if s.Failed != 1 || s.Executed != 1 {
		t.Fatalf("%d failed, %d executed, want 1 + 1", s.Failed, s.Executed)
	}
	if attempts.Load() != 2 {
		t.Fatalf("panicking job attempted %d times, want 2 (retry once)", attempts.Load())
	}
	if len(s.Failures) != 1 || !strings.Contains(s.Failures[0], "fig1") ||
		!strings.Contains(s.Failures[0], "panic: synthetic failure") {
		t.Fatalf("failure digest %q", s.Failures)
	}
	if len(s.Results) != 1 || s.Results[0].ID != "fig7" {
		t.Fatalf("results %v, want fig7's only", s.Results)
	}
}

func TestTimeoutFailsJobWithoutAbortingFleet(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := &sweep.Runner{Timeout: 20 * time.Millisecond, RunFunc: func(j sweep.Job) sweep.Metrics {
		if j.Name() == "fig1" {
			<-block
		}
		return fake(j)
	}}
	s, _ := runCampaign(t, experiments(t, 1, "fig1", "fig7"), r, 2, nil)
	if s.Failed != 1 || s.Executed != 1 {
		t.Fatalf("%d failed, %d executed, want 1 + 1", s.Failed, s.Executed)
	}
	if len(s.Failures) != 1 || !strings.Contains(s.Failures[0], "fig1") ||
		!strings.Contains(s.Failures[0], "timeout after 20ms") {
		t.Fatalf("failure digest %q", s.Failures)
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	var attempts atomic.Int32
	r := &sweep.Runner{RunFunc: func(j sweep.Job) sweep.Metrics {
		if attempts.Add(1) == 1 {
			panic("first attempt fails")
		}
		return fake(j)
	}}
	s, _ := runCampaign(t, experiments(t, 1, "fig7"), r, 1, nil)
	if s.Executed != 1 || s.Failed != 0 || attempts.Load() != 2 {
		t.Fatalf("%d executed, %d failed after %d attempts", s.Executed, s.Failed, attempts.Load())
	}
}

// stripTiming zeroes the fields the determinism contract excludes.
func stripTiming(t *testing.T, s *sweep.Summary) []byte {
	t.Helper()
	s.ElapsedMS, s.JobsPerSec = 0, 0
	s.JobP50MS, s.JobP95MS, s.JobP99MS, s.JobP999MS = 0, 0, 0, 0
	out, err := s.JSON()
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
		cache, err := campaign.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := &sweep.Runner{Cache: cache, RunFunc: func(j sweep.Job) sweep.Metrics {
			time.Sleep(sleep)
			return fake(j)
		}}
		s, _ := runCampaign(t, experiments(t, 42, "table1", "fig1", "fig3", "fig7"), r, 3, nil)
		return stripTiming(t, s)
	}
	a, b := run(0), run(3*time.Millisecond)
	if !bytes.Equal(a, b) {
		t.Fatalf("cold runs differ:\n%s\n---\n%s", a, b)
	}
}

func TestProgressAndTextSummary(t *testing.T) {
	var buf bytes.Buffer
	s, _ := runCampaign(t, experiments(t, 1, "fig7"), &sweep.Runner{RunFunc: fake}, 1, &buf)
	if !strings.Contains(buf.String(), "fig7") || !strings.Contains(buf.String(), "1 executed") {
		t.Fatalf("progress output %q", buf.String())
	}
	text := s.Text()
	if !strings.Contains(text, `Campaign "campaign"`) || !strings.Contains(text, "1 executed") {
		t.Fatalf("text summary %q", text)
	}
}

func TestOnResultDeliversCachedAndExecuted(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, cold := range []bool{true, false} {
		s, _ := runCampaign(t, experiments(t, 1, "fig7"), &sweep.Runner{Cache: cache, RunFunc: fake}, 1, nil)
		if s.Cached != map[bool]int64{true: 0, false: 1}[cold] {
			t.Fatalf("cold=%v: %d cached", cold, s.Cached)
		}
		if len(s.Results) != 1 || !reflect.DeepEqual(s.Results[0], okResult("fig7")) {
			t.Fatalf("cold=%v: results %+v", cold, s.Results)
		}
	}
}

func TestJobKeyDistinguishesIDSeedN(t *testing.T) {
	key := func(doc string) string {
		t.Helper()
		s, err := sweep.ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.JobAt(0)
		return j.Key()
	}
	base := `{"name":"k","experiments":["fig2a"],"seeds":{"start":42,"count":1}}`
	keys := map[string]bool{key(base): true}
	for _, doc := range []string{
		`{"name":"k","experiments":["fig2b"],"seeds":{"start":42,"count":1}}`,
		`{"name":"k","experiments":["fig2a"],"seeds":{"start":43,"count":1}}`,
		`{"name":"k","experiments":["fig2a"],"n":100,"seeds":{"start":42,"count":1}}`,
	} {
		if keys[key(doc)] {
			t.Fatalf("key collision for %s", doc)
		}
		keys[key(doc)] = true
	}
	if key(base) != key(`{"name":"other","experiments":["fig2a"],"seeds":{"start":42,"count":1}}`) {
		t.Fatal("key not stable for identical jobs")
	}
}

// TestCacheRoundTrip: an experiment job's entry is the bare result in the
// registry cache's indented encoding, and it reads back whole.
func TestCacheRoundTrip(t *testing.T) {
	c, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := experiments(t, 42, "fig7").JobAt(0)
	r := &sweep.Runner{Cache: c, RunFunc: fake}
	if _, cached, err := r.Do(j); err != nil || cached {
		t.Fatalf("cold Do: cached=%v err=%v", cached, err)
	}
	want, _ := json.MarshalIndent(okResult("fig7"), "", " ")
	if got, ok := c.LoadRaw(j.Key()); !ok || !bytes.Equal(got, want) {
		t.Fatalf("entry bytes:\n%s\nwant\n%s", got, want)
	}
	m, cached, err := r.Do(j)
	if err != nil || !cached {
		t.Fatalf("warm Do: cached=%v err=%v", cached, err)
	}
	if got := m.Result; got.ID != "fig7" || got.Title != "fake fig7" ||
		len(got.Tables) != 1 || got.Tables[0].Rows[0][1] != "2" ||
		len(got.Plots) != 1 || len(got.Notes) != 1 {
		t.Fatalf("round-trip mangled result: %+v", got)
	}
	if st, err := c.Stat(); err != nil || st.Entries != 1 {
		t.Fatalf("stat %+v, %v: want 1 entry", st, err)
	}
}

// TestCacheMissAndCorruption: a corrupt entry reads as a miss and is
// evicted, even when the re-execution fails; a later run stores a good one.
func TestCacheMissAndCorruption(t *testing.T) {
	c, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := experiments(t, 42, "fig7").JobAt(0)
	if err := os.WriteFile(c.Path(j.Key()), []byte("{\"ID\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	failing := &sweep.Runner{Cache: c, RunFunc: func(sweep.Job) sweep.Metrics { panic("down") }}
	if _, cached, err := failing.Do(j); err == nil || cached {
		t.Fatalf("corrupt entry reported as a hit: cached=%v err=%v", cached, err)
	}
	if _, err := os.Stat(c.Path(j.Key())); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	if _, cached, err := (&sweep.Runner{Cache: c, RunFunc: fake}).Do(j); err != nil || cached {
		t.Fatalf("miss: cached=%v err=%v", cached, err)
	}
	data, _ := c.LoadRaw(j.Key())
	var back exp.Result
	if err := json.Unmarshal(data, &back); err != nil || back.ID != "fig7" {
		t.Fatalf("re-stored entry %q: %v", data, err)
	}
}
