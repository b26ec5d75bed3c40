package sweep

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestHTTPRefusalCarriesReason: a remote worker learns why the coordinator
// refused it, as an in-process one does, not only the HTTP status; a long
// reason is cut to maxErrorBody bytes.
func TestHTTPRefusalCarriesReason(t *testing.T) {
	// 20 jobs, so the first grant is a whole 10-job batch.
	s := synthSpec(t, `{"name":"why","seeds":{"count":20},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	c := NewCoordinator(s, CoordinatorOptions{Batch: 10})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL)

	grant, err := tr.Lease("w", 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Complete(CompleteRequest{Schema: ProtoSchema, Worker: "w", LeaseID: grant.LeaseID,
		Executed: 3, Agg: NewAggregate()})
	if err == nil || !strings.Contains(err.Error(), "reports 3 jobs for a 10-job span") {
		t.Errorf("short report over HTTP: %v, want the coordinator's reason", err)
	}
	if _, err := tr.Lease("", 0); err == nil || !strings.Contains(err.Error(), "needs a worker name") {
		t.Errorf("nameless lease over HTTP: %v, want the coordinator's reason", err)
	}
	long := strings.Repeat("x", 4*maxErrorBody)
	_, err = tr.Complete(CompleteRequest{Schema: "sweep-proto-v1", Worker: long})
	if err == nil || !strings.Contains(err.Error(), "xxx") || len(err.Error()) > 2*maxErrorBody {
		t.Errorf("long refusal over HTTP: %d bytes, want the reason cut to about %d", len(err.Error()), maxErrorBody)
	}
}

// TestRoutesRefuseNamelessWorker: /sweep/heartbeat and /sweep/complete
// refuse a request that names no worker with 400, as /sweep/lease does,
// so outside input can neither open a fleet row named "" nor hand a lease
// report in for nobody.
func TestRoutesRefuseNamelessWorker(t *testing.T) {
	s := synthSpec(t, `{"name":"anon","seeds":{"count":16},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	reg := obs.NewRegistry()
	c := NewCoordinator(s, CoordinatorOptions{Batch: 8, Obs: reg})
	grant := c.Lease("w", 8)
	mux := http.NewServeMux()
	c.Routes(mux)
	for path, req := range map[string]any{
		"/sweep/heartbeat": HeartbeatRequest{LeaseID: grant.LeaseID},
		"/sweep/complete":  spanReport(t, s, "", grant),
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "needs a worker name") {
			t.Errorf("nameless POST %s: %d %q, want 400 naming the missing worker", path, rec.Code, rec.Body.String())
		}
	}
	if snap := c.Snapshot(); len(snap.Fleet) != 1 || snap.Done != 0 {
		t.Errorf("after nameless requests: fleet %+v, done %d; want w's row alone and no jobs done", snap.Fleet, snap.Done)
	}
	if got := reg.Gauge("sweep.workers").Value(); got != 1 {
		t.Errorf("sweep.workers = %d, want 1", got)
	}
}

// FuzzCompleteRoute drives arbitrary bodies through the /sweep/heartbeat
// and /sweep/complete routes of a coordinator holding one active lease,
// with no sockets. No body may panic the coordinator; a refused report
// leaves the fingerprint and the done count as they were, an accepted one
// advances the done count by exactly its span, and the summary, the
// report and the fleet view still render. /sweep/lease is left out: it
// waits while every span is leased.
func FuzzCompleteRoute(f *testing.F) {
	spec, err := ParseSpec([]byte(`{"name":"fuzz","seeds":{"count":4},
		"impairments":["none","mobility"],"device_classes":["pc"],"ap_densities":["typical"]}`))
	if err != nil {
		f.Fatal(err)
	}
	const batch = 4 // of 8 jobs: the first grant, and an accepted report does not end the sweep
	encode := func(req CompleteRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	hb := []byte(`{"worker":"w","lease_id":"L1","seq":1,"metrics":{"executed":3,"elapsed":{"alpha":0.01,"count":1,"sum":2,"min":2,"max":2,"pos":[[55,1]]}}}`)
	first := LeaseResponse{LeaseID: "L1", From: 0, To: batch}
	honest := spanReport(f, spec, "w", first)
	noAgg := honest
	noAgg.Agg = nil
	extra := spanReport(f, spec, "w", first)
	j, _ := spec.JobAt(batch)
	extra.Agg.Observe(j.CellKey(), synthMetrics(j))
	oldSchema := honest
	oldSchema.Schema = "sweep-proto-v3"
	for _, body := range [][]byte{encode(honest), encode(noAgg), encode(extra), encode(oldSchema)} {
		f.Add(hb, body)
	}
	truncated := encode(honest)
	f.Add(hb[:len(hb)/2], truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, heartbeat, complete []byte) {
		c := NewCoordinator(spec, CoordinatorOptions{Batch: batch})
		grant := c.Lease("w", 0)
		mux := http.NewServeMux()
		c.Routes(mux)
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}
		post("/sweep/heartbeat", heartbeat)
		fp, done := c.Summary().Fingerprint, c.Snapshot().Done

		rec := post("/sweep/complete", complete)
		var resp CompleteResponse
		accepted := rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil && resp.OK
		sum, snap := c.Summary(), c.Snapshot()
		switch span := int(grant.To - grant.From); {
		case accepted && snap.Done != done+span:
			t.Errorf("accepted report moved done %d -> %d, want +%d", done, snap.Done, span)
		case !accepted && (snap.Done != done || sum.Fingerprint != fp):
			t.Errorf("refused report (%d %q) moved done %d -> %d or the fingerprint %s -> %s",
				rec.Code, rec.Body.String(), done, snap.Done, fp, sum.Fingerprint)
		}
		_ = sum.Text()
		if _, err := sum.JSON(); err != nil {
			t.Errorf("summary JSON: %v", err)
		}
		if rep, err := sum.Report(); err == nil {
			_ = rep.Text()
		}
	})
}
