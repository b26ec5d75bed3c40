package sweep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// leaseCounter is a transport that counts the leases its worker holds:
// granted, and not yet answered by the coordinator's reply to their
// Complete.
type leaseCounter struct {
	Transport

	mu       sync.Mutex
	held     int
	peak     int // most leases held at once
	heldAsks int // Lease calls made while holding a lease
}

func (lc *leaseCounter) Lease(worker string, batch int64) (LeaseResponse, error) {
	lc.mu.Lock()
	if lc.held > 0 {
		lc.heldAsks++
	}
	lc.mu.Unlock()
	resp, err := lc.Transport.Lease(worker, batch)
	if err == nil && resp.LeaseID != "" {
		lc.mu.Lock()
		lc.held++
		lc.peak = max(lc.peak, lc.held)
		lc.mu.Unlock()
	}
	return resp, err
}

func (lc *leaseCounter) Complete(req CompleteRequest) (CompleteResponse, error) {
	resp, err := lc.Transport.Complete(req)
	lc.mu.Lock()
	lc.held--
	lc.mu.Unlock()
	return resp, err
}

// TestSlotsOverlapLeaseBoundary: a free job slot leases the next span
// while a busy one finishes the last job of the old lease, instead of
// idling until that job is done; and the worker holds at most Parallel
// leases. Job 3 ends the first lease, [0,4), and returns only once job 4,
// of the next lease, has started.
func TestSlotsOverlapLeaseBoundary(t *testing.T) {
	s := synthSpec(t, `{"name":"overlap","seeds":{"count":8},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
	started4 := make(chan struct{})
	var once sync.Once
	run := func(j Job) Metrics {
		switch j.Index {
		case 3:
			select {
			case <-started4:
			case <-time.After(5 * time.Second):
				t.Error("job 3 waited 5 s for job 4 to start: the worker idled at the lease boundary")
			}
		case 4:
			once.Do(func() { close(started4) })
		}
		return synthMetrics(j)
	}
	tr := &leaseCounter{Transport: LocalTransport{C: c}}
	stats, err := RunWorker(tr, &Runner{RunFunc: run}, WorkerOptions{Name: "w", Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != s.Total() || !c.Done() {
		t.Errorf("worker ran %d of %d jobs, coordinator done %v", stats.Jobs, s.Total(), c.Done())
	}
	if tr.peak > 2 {
		t.Errorf("a 2-slot worker held %d leases at once", tr.peak)
	}
}

// TestOneSlotReportsBeforeLeasing: a one-slot worker reports each lease
// before it asks for the next, so it never holds more than one; a killed
// one-slot worker leaves exactly one span to re-lease.
func TestOneSlotReportsBeforeLeasing(t *testing.T) {
	s := synthSpec(t, `{"name":"oneslot","seeds":{"count":25},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 4})
	tr := &leaseCounter{Transport: LocalTransport{C: c}}
	stats, err := RunWorker(tr, &Runner{RunFunc: synthMetrics}, WorkerOptions{Name: "w", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != s.Total() || stats.Leases < 2 {
		t.Errorf("worker ran %d of %d jobs in %d leases, want all in several", stats.Jobs, s.Total(), stats.Leases)
	}
	if tr.heldAsks != 0 {
		t.Errorf("a one-slot worker asked for a lease %d times while holding one", tr.heldAsks)
	}
}

// errGone is what every call to a vanished coordinator returns.
var errGone = errors.New("connection refused")

// goneCoordinator is a transport whose coordinator went away after the
// worker fetched the spec.
type goneCoordinator struct{ Transport }

func (goneCoordinator) Lease(string, int64) (LeaseResponse, error) {
	return LeaseResponse{}, errGone
}

// TestWorkerGivesUpOnGoneCoordinator: a worker whose coordinator stops
// answering stops after maxTransportErrors failed calls in a row, every
// job slot with it, and says why.
func TestWorkerGivesUpOnGoneCoordinator(t *testing.T) {
	s := synthSpec(t, `{"name":"gone","seeds":{"count":4},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{})
	_, err := RunWorker(goneCoordinator{LocalTransport{C: c}}, &Runner{RunFunc: synthMetrics},
		WorkerOptions{Name: "w", Parallel: 2})
	want := fmt.Sprintf("%d consecutive failures", maxTransportErrors)
	if !errors.Is(err, errGone) || !strings.Contains(err.Error(), want) {
		t.Fatalf("worker of a gone coordinator returned %v, want %v after %s", err, errGone, want)
	}
}
