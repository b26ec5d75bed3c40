package sweep

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/expose"
	"repro/internal/sketch"
)

// TestSingleWorkerDrainsSweep: the local transport + worker engine runs a
// sweep to completion with exact accounting.
func TestSingleWorkerDrainsSweep(t *testing.T) {
	s := synthSpec(t, `{"name":"drain","seeds":{"count":25},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 8})
	stats, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "w0", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("coordinator not done")
	}
	if stats.Jobs != s.Total() || stats.Executed != s.Total() {
		t.Errorf("worker stats %+v, want %d jobs executed", stats, s.Total())
	}
	sum := c.Summary()
	if sum.Done != s.Total() || sum.Failed != 0 {
		t.Errorf("summary done/failed %d/%d", sum.Done, sum.Failed)
	}
	select {
	case <-c.Finished():
	default:
		t.Error("Finished channel not closed")
	}
}

// TestShardedEqualsSingleProcess is the determinism acceptance gate: N
// concurrent workers over the job stream must produce exactly the
// fingerprint a single sequential pass does.
func TestShardedEqualsSingleProcess(t *testing.T) {
	doc := `{"name":"eq","seeds":{"count":30},
		"impairments":["none","weak-link","mobility"],"device_classes":["pc","mobile"],
		"ap_densities":["dense","sparse"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 13})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
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
	sum := c.Summary()
	if sum.Fingerprint != want {
		t.Errorf("4-worker fingerprint %s != sequential %s", sum.Fingerprint, want)
	}
	if sum.Done != s.Total() {
		t.Errorf("done %d, want %d", sum.Done, s.Total())
	}
}

// TestDeadWorkerRelease is the fault-tolerance acceptance gate: a worker
// that leases a span and dies loses the lease at TTL expiry, the span is
// re-leased to a live worker, and the final fingerprint still equals the
// single-process run — the dead worker's half-done work never double-counts.
func TestDeadWorkerRelease(t *testing.T) {
	doc := `{"name":"dead","seeds":{"count":40},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 16, TTL: 30 * time.Millisecond})

	// The doomed worker leases a span and vanishes: no heartbeat, no
	// Complete. Its span must come back to the pool at TTL expiry.
	doomed := c.Lease("doomed", 16)
	if doomed.LeaseID == "" {
		t.Fatal("doomed worker got no lease")
	}
	time.Sleep(40 * time.Millisecond)

	stats, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "survivor", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != s.Total() {
		t.Errorf("survivor ran %d jobs, want %d (re-leased span missing)", stats.Jobs, s.Total())
	}
	if c.Releases() < 1 {
		t.Error("no lease was released after the worker died")
	}

	// The ghost's late Complete must be discarded, not merged.
	ghost := NewAggregate()
	for i := doomed.From; i < doomed.To; i++ {
		j, _ := s.JobAt(i)
		m, _, _ := (&Runner{RunFunc: synthMetrics}).Do(j)
		ghost.Observe(j.CellKey(), m)
	}
	resp, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "doomed", LeaseID: doomed.LeaseID,
		Executed: doomed.To - doomed.From, Agg: ghost})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Ignored {
		t.Error("expired lease's Complete was not ignored")
	}

	sum := c.Summary()
	if sum.Fingerprint != want {
		t.Errorf("post-death fingerprint %s != sequential %s", sum.Fingerprint, want)
	}
	snap := c.Snapshot()
	var sawDead bool
	for _, w := range snap.Fleet {
		if w.Name == "doomed" && !w.Alive {
			sawDead = true
		}
	}
	_ = sawDead // liveness depends on TTL multiples; presence is the real check
	if len(snap.Fleet) != 2 {
		t.Errorf("fleet has %d workers, want 2", len(snap.Fleet))
	}
}

// TestIncompleteReportRequeued: a Complete that cannot account for its
// whole span, in its job counts or in its aggregate (missing, or counting
// one job too many), is rejected before it merges and the span re-leased.
// Accepting the missing aggregate would end a sweep on an empty artifact.
func TestIncompleteReportRequeued(t *testing.T) {
	// 20 jobs, so the first grant is a whole 10-job batch.
	s := synthSpec(t, `{"name":"short","seeds":{"count":20},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 10})
	before := c.Summary().Fingerprint
	whole := LeaseResponse{From: 0, To: 10}
	extra := spanReport(t, s, "w", whole).Agg
	j, _ := s.JobAt(0)
	extra.Observe(j.CellKey(), synthMetrics(j))
	for _, r := range []struct {
		name     string
		executed int64
		agg      *Aggregate
	}{
		{"claims 3 of a 10-job span", 3, NewAggregate()},
		{"no aggregate", 10, nil},
		{"aggregate of 11 jobs", 10, extra},
	} {
		grant := c.Lease("w", 10)
		if grant.From != whole.From || grant.To != whole.To {
			t.Fatalf("before the %q report: got [%d,%d), want [%d,%d) (re-)leased",
				r.name, grant.From, grant.To, whole.From, whole.To)
		}
		resp, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "w", LeaseID: grant.LeaseID,
			Executed: r.executed, Agg: r.agg})
		if err == nil {
			t.Fatalf("%s: report accepted", r.name)
		}
		if !resp.Ignored {
			t.Errorf("%s: report not ignored", r.name)
		}
		if got := c.Summary().Fingerprint; got != before {
			t.Errorf("%s: the refused report changed the fingerprint: %s, want %s", r.name, got, before)
		}
		if c.Snapshot().Done != 0 {
			t.Errorf("%s: the refused report's jobs were counted", r.name)
		}
	}
	regrant := c.Lease("w2", 10)
	if regrant.From != whole.From || regrant.To != whole.To {
		t.Errorf("span not re-leased: got [%d,%d), want [%d,%d)",
			regrant.From, regrant.To, whole.From, whole.To)
	}
}

// TestLeaseSizesShrinkTowardEnd: a fresh span takes at most ⌈R/(W+1)⌉ of
// the R never-leased jobs, W counting the workers seen so far, so spans
// shrink toward the end of the sweep; they still tile it.
func TestLeaseSizesShrinkTowardEnd(t *testing.T) {
	s := synthSpec(t, `{"name":"tail","seeds":{"count":100},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{})
	from := int64(0)
	for i, size := range []int64{50, 17, 11, 8, 5, 3, 2, 2, 1, 1} {
		w := []string{"A", "B"}[i%2]
		g := c.Lease(w, 0)
		if g.From != from || g.To != from+size {
			t.Fatalf("grant %d, to %s: [%d,%d), want [%d,%d)", i+1, w, g.From, g.To, from, from+size)
		}
		from = g.To
	}
	if from != s.Total() {
		t.Errorf("the spans cover [0,%d) of a %d-job sweep", from, s.Total())
	}
}

// TestCoordinatorBoundedMemory is the scale acceptance gate: a 10^5-job
// sweep must aggregate in memory that does not scale with job count. The
// aggregate footprint is sketch-bucket-bound and the coordinator holds no
// per-job state, so the footprint after 100k jobs must be within noise of
// the footprint after 10k jobs (same cells — more jobs only fill buckets).
func TestCoordinatorBoundedMemory(t *testing.T) {
	run := func(seeds int64) (int, *Coordinator) {
		doc := fmt.Sprintf(`{"name":"big","seeds":{"count":%d},
			"impairments":["none","weak-link","mobility","microwave","congestion"],
			"device_classes":["pc","mobile"],"ap_densities":["dense","typical","sparse"]}`, seeds)
		s := synthSpec(t, doc)
		c := NewCoordinator(s, CoordinatorOptions{Batch: 512})
		_, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
			WorkerOptions{Name: "w", Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Done() {
			t.Fatal("not done")
		}
		c.mu.Lock()
		fp := c.agg.Footprint()
		c.mu.Unlock()
		return fp, c
	}
	small, _ := run(334) // ~10k jobs over 30 cells
	big, c := run(3334)  // ~100k jobs over the same 30 cells
	if got := c.Summary().Done; got != 30*3334 {
		t.Fatalf("big run finished %d jobs", got)
	}
	// 10× the jobs may add a few late-filling buckets but nothing
	// proportional: allow 2× headroom, far below the 10× a per-job
	// structure would show.
	if big > 2*small {
		t.Errorf("aggregate footprint scaled with job count: %d bytes @10k vs %d bytes @100k", small, big)
	}
	t.Logf("footprint: %d bytes @ 10k jobs, %d bytes @ 100k jobs", small, big)
}

// TestHTTPRoundTrip drives a worker over the real control plane: the
// coordinator mounts its routes on an expose server, the worker connects by
// address, and the merged result matches the sequential fingerprint.
func TestHTTPRoundTrip(t *testing.T) {
	doc := `{"name":"http","seeds":{"count":20},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics}).Fingerprint()

	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 7})
	srv := expose.New(obs.NewRegistry())
	c.Routes(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats, err := RunWorker(NewHTTPTransport(srv.Addr()), &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "remote", Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != s.Total() {
		t.Errorf("remote worker ran %d jobs, want %d", stats.Jobs, s.Total())
	}
	if got := c.Summary().Fingerprint; got != want {
		t.Errorf("HTTP fingerprint %s != sequential %s", got, want)
	}
	snap := c.Snapshot()
	if len(snap.Fleet) != 1 || snap.Fleet[0].Name != "remote" {
		t.Errorf("fleet = %+v", snap.Fleet)
	}
	if snap.Done != int(s.Total()) || snap.Running {
		t.Errorf("snapshot done=%d running=%v", snap.Done, snap.Running)
	}
}

// TestCompleteSignalsDone pins the shutdown handshake: the Complete that
// finishes the sweep must say so, and the worker must exit on it without
// leasing again — a coordinator may tear down its control plane the moment
// the sweep ends, so a final Lease call would race a vanishing server.
func TestCompleteSignalsDone(t *testing.T) {
	doc := `{"name":"done","seeds":{"count":9},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`
	s := synthSpec(t, doc)

	c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
	srv := expose.New(obs.NewRegistry())
	c.Routes(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Mirror cmd/campaign: the server dies the instant the sweep finishes.
	go func() {
		<-c.Finished()
		srv.Close()
	}()

	stats, err := RunWorker(NewHTTPTransport(srv.Addr()), &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "solo", Parallel: 2})
	if err != nil {
		t.Fatalf("worker must exit cleanly on the Done'd Complete: %v", err)
	}
	if stats.Jobs != s.Total() {
		t.Errorf("worker ran %d jobs, want %d", stats.Jobs, s.Total())
	}

	// Direct protocol check: only the sweep-finishing Complete carries Done.
	c2 := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 4})
	tr := LocalTransport{C: c2}
	for {
		grant, _ := tr.Lease("w", 0)
		if grant.Done {
			t.Fatal("lease said done before any Complete")
		}
		agg := NewAggregate()
		for i := grant.From; i < grant.To; i++ {
			j, err := c2.Spec().JobAt(i)
			if err != nil {
				t.Fatal(err)
			}
			agg.Observe(j.CellKey(), synthMetrics(j))
		}
		resp, err := tr.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "w", LeaseID: grant.LeaseID,
			Executed: grant.To - grant.From, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		if last := grant.To >= c2.Spec().Total(); resp.Done != last {
			t.Fatalf("Complete for [%d,%d): done=%v, want %v", grant.From, grant.To, resp.Done, last)
		}
		if resp.Done {
			break
		}
	}
}

// TestWorkerNeedsName pins the config validation.
func TestWorkerNeedsName(t *testing.T) {
	s := synthSpec(t, `{"name":"n","seeds":{"count":1},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{})
	if _, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics}, WorkerOptions{}); err == nil {
		t.Fatal("nameless worker accepted")
	}
}

// TestCompleteSchemaMismatch is the protocol version-negotiation gate: a
// worker speaking another proto generation gets a flat refusal, and its
// aggregate never merges.
func TestCompleteSchemaMismatch(t *testing.T) {
	s := synthSpec(t, `{"name":"vn","seeds":{"count":4},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
	grant := c.Lease("old", 4)
	agg := NewAggregate()
	for i := grant.From; i < grant.To; i++ {
		j, _ := s.JobAt(i)
		agg.Observe(j.CellKey(), synthMetrics(j))
	}
	_, err := c.Complete(CompleteRequest{Schema: "sweep-proto-v1", Worker: "old",
		LeaseID: grant.LeaseID, Executed: grant.To - grant.From, Agg: agg})
	if err == nil || !strings.Contains(err.Error(), "sweep-proto") {
		t.Fatalf("v1 report accepted by v2 coordinator: %v", err)
	}
	if c.Summary().Done != 0 {
		t.Error("mismatched report's jobs were counted")
	}
	// The span must still complete once a current-generation worker runs it.
	if _, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "old",
		LeaseID: grant.LeaseID, Executed: grant.To - grant.From, Agg: agg}); err != nil {
		t.Fatalf("retry with correct schema rejected: %v", err)
	}
}

// TestRejectedReportLeavesAggregate: a lease report whose aggregate cannot
// merge is refused whole. Its valid cells must not land either, or the
// lease's re-run after TTL would count them a second time.
func TestRejectedReportLeavesAggregate(t *testing.T) {
	s := synthSpec(t, `{"name":"rej","seeds":{"count":4},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
	before := c.Summary().Fingerprint
	grant := c.Lease("w", 4)
	agg := NewAggregate()
	for i := grant.From; i < grant.To; i++ {
		j, _ := s.JobAt(i)
		agg.Observe(j.CellKey(), synthMetrics(j))
	}
	agg.Elapsed = sketch.NewAlpha(0.05)
	agg.Elapsed.Add(12)
	if _, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "w", LeaseID: grant.LeaseID,
		Executed: grant.To - grant.From, Agg: agg}); err == nil {
		t.Fatal("a report with an alpha-0.05 digest was accepted")
	}
	if got := c.Summary().Fingerprint; got != before {
		t.Errorf("the rejected report changed the fingerprint: %s, want %s", got, before)
	}
	if c.Summary().Done != 0 {
		t.Error("the rejected report's jobs were counted")
	}
}

// TestSummaryWhileCompleting: a summary is a snapshot. Reading it while a
// worker completes leases, in process or through /sweep/summary, races
// nothing, and every summary read agrees with itself: each cell's MOS
// digest holds one value per call the cell counts.
func TestSummaryWhileCompleting(t *testing.T) {
	const doc = `{"name":"live","seeds":{"count":100},
		"impairments":["none","weak-link"],"device_classes":["pc","mobile"],"ap_densities":["typical"]}`
	check := func(sum *Summary) error {
		for i := range sum.Cells {
			cell := &sum.Cells[i]
			if sk := cell.Sketches["stronger_mos"]; sk == nil || sk.Count() != cell.Calls {
				return fmt.Errorf("cell %s counts %d calls, its MOS digest %v", cell.Cell, cell.Calls, sk)
			}
		}
		if _, err := json.Marshal(sum); err != nil {
			return err
		}
		rep, err := sum.Report()
		if err == nil {
			_ = rep.Text()
		}
		return err
	}
	reads := map[string]func(c *Coordinator, mux *http.ServeMux) error{
		"in-process": func(c *Coordinator, _ *http.ServeMux) error { return check(c.Summary()) },
		"route": func(_ *Coordinator, mux *http.ServeMux) error {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweep/summary", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET /sweep/summary: %d %s", rec.Code, rec.Body.String())
			}
			sum, err := LoadSummary(rec.Body.Bytes())
			if err != nil {
				return err
			}
			return check(sum)
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			s := synthSpec(t, doc)
			c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
			mux := http.NewServeMux()
			c.Routes(mux)
			stop, started, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				for n := 0; ; n++ {
					err := read(c, mux)
					if n == 0 {
						close(started)
					}
					if err != nil {
						done <- err
						return
					}
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
				}
			}()
			<-started
			_, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: synthMetrics},
				WorkerOptions{Name: "w", Parallel: 2})
			close(stop)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("summary read mid-sweep: %v", err)
			}
			if got := c.Summary().Done; got != s.Total() {
				t.Errorf("done %d, want %d", got, s.Total())
			}
		})
	}
}
