package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sweep"
)

// scriptedStatus serves a sequence of fleet snapshots, one per request,
// repeating the last one once the script is exhausted.
func scriptedStatus(t *testing.T, snaps ...campaign.StatusSnapshot) *httptest.Server {
	t.Helper()
	var n atomic.Int32
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(n.Add(1)) - 1
		if i >= len(snaps) {
			i = len(snaps) - 1
		}
		snap := snaps[i]
		if snap.Schema == "" {
			snap.Schema = campaign.StatusSchema
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap)
	}))
}

func TestWatchFollowsRunToCompletion(t *testing.T) {
	srv := scriptedStatus(t,
		campaign.StatusSnapshot{}, // tracker up, fleet not begun: keep polling
		campaign.StatusSnapshot{Running: true, Total: 3, Done: 1, Executed: 1,
			Active: []campaign.ActiveJob{{ID: "fig2a", Seed: 42, N: 100, ElapsedMS: 50}}},
		campaign.StatusSnapshot{Running: false, Total: 3, Done: 3, Executed: 2, Failed: 1,
			Recent: []campaign.JobRecord{{ID: "fig2a", Status: "ok", ElapsedMS: 120}}},
	)
	defer srv.Close()

	var out, errOut bytes.Buffer
	code := runWatch([]string{"-interval", "5ms", "-no-clear", srv.URL}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"Campaign fleet", "fig2a", "1/3", "3/3", "campaign finished."} {
		if !strings.Contains(text, want) {
			t.Errorf("watch output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\x1b[2J") {
		t.Error("-no-clear still cleared the screen")
	}
}

func TestWatchExitsWhenFinishedFleetFound(t *testing.T) {
	// Attaching after the campaign ended: running=false with done==total>0
	// must print one frame and exit cleanly, not poll forever.
	srv := scriptedStatus(t, campaign.StatusSnapshot{Total: 2, Done: 2, Executed: 2})
	defer srv.Close()
	var out, errOut bytes.Buffer
	if code := runWatch([]string{"-interval", "5ms", "-no-clear", srv.URL}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "campaign finished.") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestWatchOnce(t *testing.T) {
	srv := scriptedStatus(t, campaign.StatusSnapshot{Running: true, Total: 1})
	defer srv.Close()
	var out, errOut bytes.Buffer
	addr := strings.TrimPrefix(srv.URL, "http://") // bare host:port must work too
	if code := runWatch([]string{"-once", addr}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Campaign fleet") {
		t.Errorf("output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "\x1b[2J") {
		t.Error("-once cleared the screen")
	}
}

func TestWatchAgainstRealTracker(t *testing.T) {
	// End to end over the real fleet view: a finished campaign's snapshot
	// from the sweep coordinator must satisfy the watch client's schema
	// check and name its jobs.
	spec, err := experimentsSpec("fig7", 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{Batch: 1})
	fake := func(j sweep.Job) sweep.Metrics { return sweep.Metrics{Result: &exp.Result{ID: j.Name()}} }
	if _, err := sweep.RunWorker(sweep.LocalTransport{C: c}, &sweep.Runner{RunFunc: fake},
		sweep.WorkerOptions{Name: "local0", Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var out, errOut bytes.Buffer
	if code := runWatch([]string{"-once", srv.URL}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	for _, want := range []string{"finished", "1/1", "Recently finished", "fig7"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("watch output missing %q:\n%s", want, out.String())
		}
	}
}

func TestWatchServerGone(t *testing.T) {
	srv := scriptedStatus(t, campaign.StatusSnapshot{})
	url := srv.URL
	srv.Close()
	var out, errOut bytes.Buffer
	if code := runWatch([]string{"-interval", "1ms", url}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "consecutive failures") {
		t.Errorf("stderr: %q", errOut.String())
	}
}

func TestWatchUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runWatch(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage:") {
		t.Errorf("stderr: %q", errOut.String())
	}
}

func TestWatchRejectsWrongSchema(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"schema":"something-else"}`))
	}))
	defer srv.Close()
	var out, errOut bytes.Buffer
	if code := runWatch([]string{"-interval", "1ms", srv.URL}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unexpected schema") {
		t.Errorf("stderr: %q", errOut.String())
	}
}
