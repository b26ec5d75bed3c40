package sweep

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/expose"
	"repro/internal/obs/flight"
)

// TestFleetPlaneNoPerturb is the observer-effect gate for the fleet
// observability plane (the sweep-engine sibling of the simtest
// TestLiveScrapingDoesNotPerturb): a sharded sweep with everything armed —
// trace sink, flight recorder, fleet instruments, and /metrics scraped
// from concurrent goroutines the whole time — must produce exactly the
// fingerprint a plain sequential pass does, and the trace it emitted must
// pass the fleet lint.
func TestFleetPlaneNoPerturb(t *testing.T) {
	doc := `{"name":"noperturb","seeds":{"count":30},
		"impairments":["none","weak-link","mobility"],"device_classes":["pc","mobile"],
		"ap_densities":["dense","sparse"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	reg := obs.NewRegistry()
	reg.SetSink(sink)
	dir := t.TempDir()
	rec := flight.New(dir, 0)
	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{
		Batch: 13, Obs: reg, Flight: rec})
	srv := expose.New(reg)
	c.Routes(srv)

	// Scrapers hammer the exposition and the fleet view mid-sweep; under
	// -race this also proves fleet-view bookkeeping is data-race-free
	// against the lease hot path.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
				if rr.Code != 200 {
					t.Errorf("GET /metrics: status %d", rr.Code)
					return
				}
				if _, err := expose.ValidateExposition(rr.Body.Bytes()); err != nil {
					t.Errorf("mid-sweep exposition invalid: %v", err)
					return
				}
				c.Snapshot()
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
				WorkerOptions{Name: fmt.Sprintf("w%d", n), Parallel: 2,
					Obs: reg, Flight: rec})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	if got := c.Summary().Fingerprint; got != want {
		t.Errorf("fleet-plane fingerprint %s != plain sequential %s", got, want)
	}

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := analyze.Analyze(bytes.NewReader(buf.Bytes()), analyze.Options{MaxViolations: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Fleet
	if !rep.Clean() {
		t.Errorf("fleet lint found %d violations: %+v", rep.TotalViolations, rep.Violations)
	}
	if rep.Grants == 0 {
		t.Error("trace recorded no lease grants")
	}
	if rep.Completed != rep.Grants {
		t.Errorf("trace shows %d grants but %d completions", rep.Grants, rep.Completed)
	}
	if rep.Expired != 0 || rep.StaleRejects != 0 || rep.ExpireReLeaseEpisodes != 0 {
		t.Errorf("healthy sweep traced failures: expired=%d stale=%d episodes=%d",
			rep.Expired, rep.StaleRejects, rep.ExpireReLeaseEpisodes)
	}
	if len(rep.Lanes) != 4 {
		t.Errorf("trace has %d worker lanes, want 4", len(rep.Lanes))
	}
	if rec.Total() == 0 {
		t.Error("flight ring recorded nothing with the plane armed")
	}
	// Nothing went wrong, so nothing may have dumped.
	if dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*.jsonl")); len(dumps) != 0 {
		t.Errorf("healthy sweep wrote flight dumps: %v", dumps)
	}
}

// TestFleetTraceDisabledIsFree pins the zero-cost contract: with neither a
// trace sink nor a flight recorder the tracer is nil, and every method on
// the nil tracer is a no-op that allocates nothing.
func TestFleetTraceDisabledIsFree(t *testing.T) {
	if ft := NewFleetTrace(nil, nil, "deadbeef", "coord"); ft != nil {
		t.Fatal("tracer enabled with no registry and no recorder")
	}
	// A registry without a sink is not tracing either.
	ft := NewFleetTrace(obs.NewRegistry(), nil, "deadbeef", "coord")
	if ft != nil {
		t.Fatal("tracer enabled on a sinkless registry")
	}
	allocs := testing.AllocsPerRun(200, func() {
		ft.SpecFetch("w0", "deadbeef")
		ft.Grant("w0", 1, 0, 64, time.Second, false)
		ft.Heartbeat("w0", 1, true)
		ft.Expire("w0", 1, 0, 64, "ttl")
		ft.Complete("w0", 1, 0, 64, 60, 4, 0)
		ft.RejectStale("w0", 1)
	})
	if allocs != 0 {
		t.Errorf("disabled fleet tracer allocates: %v allocs/op", allocs)
	}
}

func TestLeaseSeqParse(t *testing.T) {
	cases := []struct {
		id   string
		want int64
	}{
		{"L7", 7}, {"L123", 123}, {"L0", 0},
		{"", -1}, {"L", -1}, {"Lx", -1}, {"7", -1}, {"M7", -1}, {"L7x", -1},
	}
	for _, c := range cases {
		if got := leaseSeq(c.id); got != c.want {
			t.Errorf("leaseSeq(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}

// TestFleetViewFromReports: the fleet view is built from the accepted
// lease reports alone. A sweep that drains before the first heartbeat
// still shows every worker's executed/cached/failed counts and elapsed
// samples, each row adds up to its jobs, and the rows and the
// sweep.fleet_jobs_executed counter add up to the sweep.
func TestFleetViewFromReports(t *testing.T) {
	s := synthSpec(t, `{"name":"rows","seeds":{"count":40},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	reg := obs.NewRegistry()
	c := NewCoordinator(s, CoordinatorOptions{Obs: reg})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
				WorkerOptions{Name: fmt.Sprintf("w%d", n), Parallel: 2})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("sweep.heartbeats").Value(); got != 0 {
		t.Errorf("sweep.heartbeats = %d: the sweep outlived a 10 s heartbeat interval", got)
	}
	var sum int64
	for _, w := range c.Snapshot().Fleet {
		if jobs := w.Executed + w.Cached + w.Failed; jobs != w.JobsDone || w.Samples != w.JobsDone {
			t.Errorf("worker %s: executed/cached/failed %d/%d/%d, jobs_done %d, samples %d; want all to add up",
				w.Name, w.Executed, w.Cached, w.Failed, w.JobsDone, w.Samples)
		}
		sum += w.JobsDone
	}
	if sum != s.Total() {
		t.Errorf("fleet rows add up to %d jobs, want %d", sum, s.Total())
	}
	if got := reg.Counter("sweep.fleet_jobs_executed").Value(); got != s.Total() {
		t.Errorf("sweep.fleet_jobs_executed = %d, want %d", got, s.Total())
	}
}

// TestReportCreditsLeaseHolder: a report is credited to the worker its
// lease was granted to, whatever name the report carries, so the
// holder's row neither keeps the lease nor misses its jobs.
func TestReportCreditsLeaseHolder(t *testing.T) {
	s := synthSpec(t, `{"name":"holder","seeds":{"count":16},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 8})
	grant := c.Lease("a", 8)
	if _, err := c.Complete(spanReport(t, s, "b", grant)); err != nil {
		t.Fatal(err)
	}
	span := grant.To - grant.From
	if a := fleetRow(c, "a"); a == nil || a.Leases != 0 || a.JobsDone != span || a.Executed != span {
		t.Errorf("holder a: %+v, want 0 leases and %d jobs executed", a, span)
	}
	if b := fleetRow(c, "b"); b == nil || b.Leases != 0 || b.JobsDone != 0 {
		t.Errorf("reporter b: %+v, want a row with no leases and no jobs", b)
	}
}

// TestHeartbeatRenewsOnlyHoldersLease: a heartbeat naming another worker
// is refused and leaves the lease's deadline alone, so a lease whose holder
// went silent re-queues at its TTL however often others name it.
func TestHeartbeatRenewsOnlyHoldersLease(t *testing.T) {
	const ttl = 50 * time.Millisecond
	s := synthSpec(t, `{"name":"hbholder","seeds":{"count":16},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 8, TTL: ttl})
	granted := time.Now()
	grant := c.Lease("a", 8)
	// Only a stall longer than the TTL may expire the lease first.
	if ok := c.Heartbeat(HeartbeatRequest{Worker: "a", LeaseID: grant.LeaseID}).OK; !ok && time.Since(granted) < ttl {
		t.Fatal("the holder's heartbeat was refused")
	}
	for time.Since(granted) < 3*ttl {
		if c.Heartbeat(HeartbeatRequest{Worker: "b", LeaseID: grant.LeaseID}).OK {
			t.Fatal("a heartbeat naming b renewed a's lease")
		}
		time.Sleep(ttl / 6)
	}
	c.Snapshot() // reaps
	if got := c.Releases(); got != 1 {
		t.Errorf("Releases() = %d after 3 TTLs of b's heartbeats, want 1 (a's lease re-queued)", got)
	}
}

// TestStragglerDetection: a worker whose reports' elapsed p50 exceeds the
// configured factor over the sweep's p50 (with enough samples) is flagged
// in the fleet view and counted on the gauge.
func TestStragglerDetection(t *testing.T) {
	s := synthSpec(t, `{"name":"strag","seeds":{"count":200},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	reg := obs.NewRegistry()
	c := NewCoordinator(s, CoordinatorOptions{Obs: reg})
	// report leases a span of jobs to worker and reports each job as
	// taking ms milliseconds.
	report := func(worker string, jobs int64, ms float64) {
		t.Helper()
		grant := c.Lease(worker, jobs)
		if grant.To-grant.From != jobs {
			t.Fatalf("%s leased [%d,%d), want %d jobs", worker, grant.From, grant.To, jobs)
		}
		req := spanReport(t, s, worker, grant)
		for range jobs {
			req.Agg.ObserveElapsed(ms)
		}
		if _, err := c.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	report("fast", 30, 10)
	report("slow", 16, 200)
	// As slow as "slow", but below stragglerMinSamples — noise, not flagged.
	report("thin", 3, 200)

	// The reports set the gauge; a scrape needs no fleet view first.
	if got := reg.Gauge("sweep.workers_straggling").Value(); got != 1 {
		t.Errorf("straggler gauge = %d, want 1", got)
	}
	snap := c.Snapshot()
	flagged := map[string]bool{}
	for _, w := range snap.Fleet {
		flagged[w.Name] = w.Straggler
	}
	if flagged["fast"] {
		t.Error("fast worker flagged as straggler")
	}
	if !flagged["slow"] {
		t.Error("slow worker not flagged as straggler")
	}
	if flagged["thin"] {
		t.Error("under-sampled worker flagged as straggler")
	}
}

// TestFleetGaugesTrackLeases: the lease and worker gauges move with the
// coordinator's state, so a /metrics scrape alone reads them. Nothing here
// calls Coordinator.Snapshot, the fleet view.
func TestFleetGaugesTrackLeases(t *testing.T) {
	s := synthSpec(t, `{"name":"gauges","seeds":{"count":16},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	reg := obs.NewRegistry()
	c := NewCoordinator(s, CoordinatorOptions{Batch: 8, Obs: reg})
	gauges := func() (active, workers int64) {
		g := reg.Snapshot().Gauges
		return g["sweep.leases_active"].Value, g["sweep.workers"].Value
	}

	a := c.Lease("a", 8)
	c.Lease("b", 8)
	if active, workers := gauges(); active != 2 || workers != 2 {
		t.Errorf("after two grants: leases_active=%d workers=%d, want 2 and 2", active, workers)
	}
	if _, err := c.Complete(spanReport(t, s, "a", a)); err != nil {
		t.Fatal(err)
	}
	if active, workers := gauges(); active != 1 || workers != 2 {
		t.Errorf("after one complete: leases_active=%d workers=%d, want 1 and 2", active, workers)
	}
}

// TestHeartbeatVsExpireRace is the -race gate for the keepalive path: a
// worker heartbeating slower than the TTL races the reaper (driven
// concurrently through Snapshot) until the coordinator reports the lease
// dead; the doomed worker's late Complete is discarded, a survivor
// (heartbeating every TTL/3) drains the sweep, and the fingerprint still
// equals the sequential run. The expiry must also have produced the
// coordinator-side postmortem flight dump.
func TestHeartbeatVsExpireRace(t *testing.T) {
	doc := `{"name":"hbrace","seeds":{"count":40},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	reg := obs.NewRegistry()
	dir := t.TempDir()
	rec := flight.New(dir, 64)
	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{
		Batch: 16, TTL: 5 * time.Millisecond, Obs: reg, Flight: rec})

	doomed := c.Lease("doomed", 16)
	if doomed.LeaseID == "" {
		t.Fatal("doomed worker got no lease")
	}

	dead := make(chan struct{})
	stopSnap := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	// Heartbeater: keepalives slower than the TTL, so every beat genuinely
	// races the reaper; stops once the coordinator says the lease died.
	go func() {
		defer wg.Done()
		for {
			resp := c.Heartbeat(HeartbeatRequest{Worker: "doomed", LeaseID: doomed.LeaseID})
			if !resp.OK {
				close(dead)
				return
			}
			time.Sleep(8 * time.Millisecond)
		}
	}()
	// Concurrent reaper/observer: Snapshot reaps expired leases and reads
	// the worker rows the heartbeater is writing.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
				c.Snapshot()
			}
		}
	}()

	select {
	case <-dead:
	case <-time.After(10 * time.Second):
		t.Fatal("lease never expired under racing heartbeats")
	}

	// The doomed worker finishes its span anyway and reports late: the
	// report must be discarded, never merged.
	ghost := NewAggregate()
	for i := doomed.From; i < doomed.To; i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		m, _, _ := (&Runner{RunFunc: synthMetrics}).Do(j)
		ghost.Observe(j.CellKey(), m)
	}
	resp, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "doomed",
		LeaseID: doomed.LeaseID, Executed: doomed.To - doomed.From, Agg: ghost})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Ignored {
		t.Error("complete after expire was merged")
	}

	if _, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "survivor", Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	close(stopSnap)
	wg.Wait()

	if got := c.Summary().Fingerprint; got != want {
		t.Errorf("post-race fingerprint %s != sequential %s", got, want)
	}
	if got := reg.Counter("sweep.completions_rejected_stale").Value(); got < 1 {
		t.Errorf("stale-rejection counter = %d, want >= 1", got)
	}
	dumps, _ := filepath.Glob(filepath.Join(dir, "flight-expire-doomed-*.jsonl"))
	if len(dumps) == 0 {
		t.Error("lease expiry produced no coordinator-side flight dump")
	}
}

// TestStaleCompleteNeverDoubleMerged: several ghosts of a dead worker all
// report the same expired lease concurrently with a live worker draining
// the sweep — every ghost report is Ignored and the final fingerprint
// still equals the sequential run (the double-merge the
// sharded-equals-single contract forbids).
func TestStaleCompleteNeverDoubleMerged(t *testing.T) {
	doc := `{"name":"ghosts","seeds":{"count":40},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	reg := obs.NewRegistry()
	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{
		Batch: 16, TTL: 20 * time.Millisecond, Obs: reg})

	doomed := c.Lease("doomed", 16)
	if doomed.LeaseID == "" {
		t.Fatal("doomed worker got no lease")
	}
	ghost := NewAggregate()
	for i := doomed.From; i < doomed.To; i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		m, _, _ := (&Runner{RunFunc: synthMetrics}).Do(j)
		ghost.Observe(j.CellKey(), m)
	}
	time.Sleep(30 * time.Millisecond) // past the TTL: the lease is dead

	const ghosts = 4
	var wg sync.WaitGroup
	for g := 0; g < ghosts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "doomed",
				LeaseID: doomed.LeaseID, Executed: doomed.To - doomed.From, Agg: ghost})
			if err != nil {
				t.Error(err)
				return
			}
			if !resp.Ignored {
				t.Error("stale complete was merged")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
			WorkerOptions{Name: "survivor", Parallel: 4}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	if got := c.Summary().Fingerprint; got != want {
		t.Errorf("fingerprint with concurrent ghosts %s != sequential %s", got, want)
	}
	if got := reg.Counter("sweep.completions_rejected_stale").Value(); got != ghosts {
		t.Errorf("stale-rejection counter = %d, want %d", got, ghosts)
	}
}
