package sweep

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs/expose"
)

// leaseWaitSpec is a 1-job sweep: its first lease covers all of it.
const leaseWaitSpec = `{"name":"lw","seeds":{"count":1},
	"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`

// spanReport is a worker's full, honest report of a granted span.
func spanReport(tb testing.TB, s *Spec, worker string, g LeaseResponse) CompleteRequest {
	tb.Helper()
	agg := NewAggregate()
	for i := g.From; i < g.To; i++ {
		j, err := s.JobAt(i)
		if err != nil {
			tb.Fatal(err)
		}
		agg.Observe(j.CellKey(), synthMetrics(j))
	}
	return CompleteRequest{Schema: ProtoSchema, Worker: worker, LeaseID: g.LeaseID,
		Executed: g.To - g.From, Agg: agg}
}

// fleetRow returns a worker's row in the fleet view, or nil before the
// coordinator has heard from it.
func fleetRow(c *Coordinator, name string) *campaign.WorkerStatus {
	for _, w := range c.Snapshot().Fleet {
		if w.Name == name {
			return &w
		}
	}
	return nil
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLeaseWaitEndsOnComplete: a Lease that finds every span leased out
// waits on the coordinator instead of answering Wait, and the Complete
// that ends the sweep answers it Done at once. A worker registers and
// starts waiting in one critical section, so once it shows in the fleet
// view, no Complete can slip past it.
func TestLeaseWaitEndsOnComplete(t *testing.T) {
	s := synthSpec(t, leaseWaitSpec)
	c := NewCoordinator(s, CoordinatorOptions{})
	a := c.Lease("A", 0)
	if a.LeaseID == "" || a.To-a.From != s.Total() {
		t.Fatalf("A got %+v, want every job", a)
	}
	got := make(chan LeaseResponse, 1)
	go func() { got <- c.Lease("B", 0) }()
	waitFor(t, "B's Lease to reach the coordinator", func() bool { return fleetRow(c, "B") != nil })

	if _, err := c.Complete(spanReport(t, s, "A", a)); err != nil {
		t.Fatal(err)
	}
	completed := time.Now()
	resp := <-got
	if !resp.Done {
		t.Fatalf("B got %+v after A's Complete ended the sweep, want done", resp)
	}
	// Without a wake-up B would answer only at its bound (10 s here).
	if d := time.Since(completed); d > 5*time.Second {
		t.Errorf("B heard done %v after the sweep ended", d)
	}
}

// TestLeaseWaitTakesExpiredSpan: a waiting Lease wakes at the earliest
// lease deadline, reaps the dead worker's lease and is handed its span in
// the same call.
func TestLeaseWaitTakesExpiredSpan(t *testing.T) {
	s := synthSpec(t, leaseWaitSpec)
	c := NewCoordinator(s, CoordinatorOptions{TTL: 50 * time.Millisecond})
	a := c.Lease("A", 0) // A never heartbeats
	b := c.Lease("B", 0)
	if b.LeaseID == "" || b.From != a.From || b.To != a.To {
		t.Fatalf("B got %+v, want A's span [%d,%d) in one call", b, a.From, a.To)
	}
	if got := c.Releases(); got != 1 {
		t.Errorf("releases = %d, want 1", got)
	}
}

// TestLeaseWaitClientGone: an HTTP client that hangs up mid-wait is
// granted nothing, so the span its wait would have taken goes to the next
// caller instead of sitting leased to nobody until its TTL. That holds
// also when the client goes in the same instant as the span frees up.
func TestLeaseWaitClientGone(t *testing.T) {
	s := synthSpec(t, leaseWaitSpec)
	c := NewCoordinator(s, CoordinatorOptions{})
	mux := http.NewServeMux()
	c.Routes(mux)
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		if r.URL.Path == "/sweep/lease" {
			returned <- struct{}{}
		}
	}))
	defer srv.Close()

	a := c.Lease("A", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sent := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/sweep/lease",
			strings.NewReader(`{"worker":"B"}`))
		if err == nil {
			var res *http.Response
			if res, err = srv.Client().Do(req); err == nil {
				res.Body.Close()
			}
		}
		sent <- err
	}()
	waitFor(t, "B's Lease to reach the coordinator", func() bool { return fleetRow(c, "B") != nil })
	cancel()
	if err := <-sent; err == nil {
		t.Fatal("B's request completed although its client gave up")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the lease handler still waits 5 s after its client left")
	}

	// A's short report is refused, which frees its span; B is gone, so
	// the next caller takes it.
	if _, err := c.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "A", LeaseID: a.LeaseID,
		Executed: 0, Agg: NewAggregate()}); err == nil {
		t.Fatal("A's short report was accepted")
	}
	if row := fleetRow(c, "B"); row == nil || row.Leases != 0 {
		t.Errorf("B, gone mid-wait, holds a lease: %+v", row)
	}
	next := c.Lease("C", 0)
	if next.From != a.From || next.To != a.To {
		t.Fatalf("C got %+v, want the freed span [%d,%d)", next, a.From, a.To)
	}

	// The same instant: D's wake-up and its departure land together, and
	// D must still take nothing.
	waitCtx, leave := context.WithCancel(context.Background())
	defer leave()
	type result struct {
		resp LeaseResponse
		err  error
	}
	res := make(chan result, 1)
	go func() {
		resp, err := c.lease(waitCtx, "D", 0)
		res <- result{resp, err}
	}()
	waitFor(t, "D's Lease to reach the coordinator", func() bool { return fleetRow(c, "D") != nil })
	c.mu.Lock()
	leave()
	c.requeue(c.active[next.LeaseID], "mismatch")
	c.mu.Unlock()
	if r := <-res; r.err == nil || r.resp.LeaseID != "" {
		t.Fatalf("D left mid-wait and got %+v, %v; want no span and its context's error", r.resp, r.err)
	}
	if last := c.Lease("E", 0); last.From != a.From || last.To != a.To {
		t.Fatalf("E got %+v, want the freed span [%d,%d)", last, a.From, a.To)
	}
}

// TestLeaseWaitEndsOnServerClose: closing the coordinator's server ends a
// lease request still waiting on it at once, so Close does not wait out
// its one-second grace; the waiting worker gets an error and no span. Once
// the sweep is done, a request whose context has ended hears done all the
// same, as a waiter does when the Complete that wakes it and the server's
// shutdown land together.
func TestLeaseWaitEndsOnServerClose(t *testing.T) {
	s := synthSpec(t, leaseWaitSpec)
	c := NewCoordinator(s, CoordinatorOptions{})
	srv := expose.New(nil)
	c.Routes(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := c.Lease("A", 0)
	got := make(chan error, 1)
	go func() {
		_, err := NewHTTPTransport(srv.Addr()).Lease("B", 0)
		got <- err
	}()
	waitFor(t, "B's Lease to reach the coordinator", func() bool { return fleetRow(c, "B") != nil })
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 250*time.Millisecond {
		t.Errorf("Close took %v with a lease waiting, want under 250 ms", d)
	}
	if err := <-got; err == nil {
		t.Error("B's Lease succeeded against a closed server")
	}
	if row := fleetRow(c, "B"); row == nil || row.Leases != 0 {
		t.Errorf("B, cut off mid-wait, holds a lease: %+v", row)
	}

	if _, err := c.Complete(spanReport(t, s, "A", a)); err != nil {
		t.Fatal(err)
	}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if resp, err := c.lease(ended, "B", 0); err != nil || !resp.Done {
		t.Errorf("after the sweep, a lease whose context ended got %+v, %v; want done", resp, err)
	}
}

// TestLeaseWaitBoundedAndAlive: while another worker's lease lives on
// heartbeats, a Lease with nothing to take waits out its bound — the TTL
// here, and far under the HTTP client's timeout — then answers Wait; and
// the fleet view shows the waiting worker alive throughout.
func TestLeaseWaitBoundedAndAlive(t *testing.T) {
	const ttl = 200 * time.Millisecond
	s := synthSpec(t, leaseWaitSpec)
	c := NewCoordinator(s, CoordinatorOptions{TTL: ttl})
	a := c.Lease("A", 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(ttl / 10)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if !c.Heartbeat(HeartbeatRequest{Worker: "A", LeaseID: a.LeaseID}).OK {
					t.Error("A's heartbeated lease expired")
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	got := make(chan LeaseResponse, 1)
	start := time.Now()
	go func() { got <- c.Lease("B", 0) }()
	var resp LeaseResponse
	for done := false; !done; {
		select {
		case resp = <-got:
			done = true
		default:
			if row := fleetRow(c, "B"); row != nil && !row.Alive {
				t.Fatalf("B reads dead %v into its wait", time.Since(start))
			}
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start)
	if !resp.Wait {
		t.Fatalf("B got %+v, want wait", resp)
	}
	if elapsed < ttl || elapsed >= time.Second {
		t.Errorf("B answered wait after %v, want between the TTL (%v) and 1 s", elapsed, ttl)
	}
	if row := fleetRow(c, "B"); row == nil || !row.Alive {
		t.Errorf("B reads dead after its wait: %+v", row)
	}
}
