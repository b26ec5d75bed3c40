package campaign_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sweep"
)

// The campaign-status-v1 fleet view of a registry campaign comes from the
// sweep coordinator: Active lists live leases, Recent the last completed
// ones, each named by its span's first job — the experiment id.

func TestStatusTracksRun(t *testing.T) {
	spec := experiments(t, 1, "table1", "table2", "fig1")
	c := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{Batch: 1})
	var mu sync.Mutex
	var midRun *campaign.StatusSnapshot
	block := make(chan struct{})
	r := &sweep.Runner{RunFunc: func(j sweep.Job) sweep.Metrics {
		switch j.Name() {
		case "table2":
			mu.Lock()
			if midRun == nil {
				midRun = c.Snapshot()
			}
			mu.Unlock()
			<-block
		case "fig1":
			panic("boom")
		}
		return fake(j)
	}}
	go func() {
		// Let the fast and the failing job finish, then release the slow one.
		for c.Snapshot().Done < 2 {
			runtime.Gosched()
		}
		close(block)
	}()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sweep.RunWorker(sweep.LocalTransport{C: c}, r,
				sweep.WorkerOptions{Name: fmt.Sprint("w", w), Parallel: 1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	mid := midRun
	mu.Unlock()
	if mid == nil {
		t.Fatal("slow job never snapshotted")
	}
	if !mid.Running || mid.Total != 3 {
		t.Errorf("mid-run snapshot: running=%v total=%d", mid.Running, mid.Total)
	}
	found := false
	for _, a := range mid.Active {
		found = found || a.ID == "table2" && a.Seed == 1
	}
	if !found {
		t.Errorf("mid-run active set %+v misses the running job", mid.Active)
	}

	final := c.Snapshot()
	if final.Running {
		t.Error("still running after the fleet finished")
	}
	if final.Done != 3 || final.Executed != 2 || final.Failed != 1 {
		t.Errorf("final snapshot: %+v", final)
	}
	if len(final.Active) != 0 {
		t.Errorf("active after finish: %+v", final.Active)
	}
	status := map[string]string{}
	for _, rec := range final.Recent {
		status[rec.ID] = rec.Status
	}
	want := map[string]string{"table1": campaign.StatusOK, "table2": campaign.StatusOK, "fig1": campaign.StatusFailed}
	if len(final.Recent) != 3 || len(status) != 3 {
		t.Errorf("recent = %+v, want 3 records", final.Recent)
	}
	for id, st := range want {
		if status[id] != st {
			t.Errorf("recent %s status %q, want %q", id, status[id], st)
		}
	}
	if final.Recent[0].ID != "table2" {
		t.Errorf("recent[0] = %s, want the last to finish (table2)", final.Recent[0].ID)
	}
	if final.ElapsedP95MS < final.ElapsedP50MS {
		t.Errorf("percentiles not ordered: %+v", final)
	}
}

func TestStatusRecentRingCapped(t *testing.T) {
	spec := experiments(t, 1, "all")
	_, c := runCampaign(t, spec, &sweep.Runner{RunFunc: fake}, 1, nil)
	snap := c.Snapshot()
	const recentCap = 16
	if len(snap.Recent) != recentCap {
		t.Fatalf("recent len = %d, want %d", len(snap.Recent), recentCap)
	}
	// One worker, one job per lease: leases complete in job order.
	for i, rec := range snap.Recent {
		if want := spec.Experiments[len(spec.Experiments)-1-i]; rec.ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, rec.ID, want)
		}
	}
	if snap.Done != len(exp.Registry()) {
		t.Errorf("done = %d", snap.Done)
	}
}

func TestStatusServeHTTP(t *testing.T) {
	spec := experiments(t, 1, "fig7", "table1")
	_, c := runCampaign(t, spec, &sweep.Runner{RunFunc: fake}, 1, nil)
	mux := http.NewServeMux()
	c.Routes(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/campaign/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap campaign.StatusSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Schema != campaign.StatusSchema || snap.Executed != 2 || snap.Total != 2 || snap.Running {
		t.Errorf("snapshot over HTTP: %+v", snap)
	}
	if len(snap.Recent) != 2 || snap.Recent[0].ID != "fig7" {
		t.Errorf("recent over HTTP: %+v", snap.Recent)
	}
}

// TestStatusEmptyFleetEdges pins the divide-by-zero edges: a fleet with
// nothing completed yet must produce finite throughput numbers (JSON
// encoding rejects NaN/Inf outright) and the "don't know" ETA sentinel,
// not garbage.
func TestStatusEmptyFleetEdges(t *testing.T) {
	c := sweep.NewCoordinator(experiments(t, 1, "table"), sweep.CoordinatorOptions{})
	snap := c.Snapshot()
	if snap.ETAMS != -1 || snap.JobsPerSec != 0 {
		t.Errorf("zero-completed snapshot: eta=%d rate=%f", snap.ETAMS, snap.JobsPerSec)
	}
	if snap.ElapsedP50MS != 0 || snap.ElapsedP999MS != 0 {
		t.Errorf("percentiles nonzero with nothing finished: %+v", snap)
	}
	if len(snap.Active) != 0 || len(snap.Recent) != 0 {
		t.Errorf("jobs in an idle fleet: %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not JSON-encodable (NaN/Inf leak): %v", err)
	}
	if !strings.Contains((&campaign.StatusSnapshot{ETAMS: -1}).Text(), "(no jobs)") {
		t.Error("zero-total progress bar missing placeholder")
	}
}

// TestStatusETANeverNegative: a finished fleet reports an ETA of zero, not
// an extrapolated negative one.
func TestStatusETANeverNegative(t *testing.T) {
	_, c := runCampaign(t, experiments(t, 1, "fig7"), &sweep.Runner{RunFunc: fake}, 1, nil)
	time.Sleep(2 * time.Millisecond) // give the run a measurable wall clock
	if snap := c.Snapshot(); snap.ETAMS != 0 || snap.JobsPerSec <= 0 {
		t.Errorf("finished fleet: eta %d, rate %f", snap.ETAMS, snap.JobsPerSec)
	}
}
