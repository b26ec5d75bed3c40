package expose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func populatedRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("sim.events_executed").Add(5000)
	reg.Counter("client.losses_detected").Add(7)
	reg.Counter("client.recovered").Add(6)
	reg.Counter("ap.tx_delivered").Add(4800)
	reg.Counter("phy.noise_losses").Add(12)
	reg.Gauge("ap.queue_depth").Set(3)
	h := reg.Histogram("client.recovery_delay_us", []int64{1000, 10_000, 100_000})
	for _, v := range []int64{500, 2_000, 50_000, 400_000} {
		h.Observe(v)
	}
	return reg
}

func TestWriteExpositionValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, populatedRegistry()); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	st, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, buf.String())
	}
	// 5 counters + 2 per gauge + 1 histogram family.
	if want := 5 + 2 + 1; st.Families != want {
		t.Errorf("Families = %d, want %d\n%s", st.Families, want, buf.String())
	}
	for _, line := range []string{
		"sim_events_executed 5000",
		"ap_queue_depth 3",
		"ap_queue_depth_max 3",
		`client_recovery_delay_us_bucket{le="1000"} 1`,
		`client_recovery_delay_us_bucket{le="100000"} 3`,
		`client_recovery_delay_us_bucket{le="+Inf"} 4`,
		"client_recovery_delay_us_count 4",
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, buf.String())
		}
	}
}

func TestWriteExpositionNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nil); err != nil {
		t.Fatalf("WriteExposition(nil): %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry produced output %q", buf.String())
	}
	if _, err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("empty exposition invalid: %v", err)
	}
}

func get(t *testing.T, s *Server, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := populatedRegistry()
	se := obs.NewSeries(reg, obs.ClockOnlyWindowUS)
	reg.SetSeries(se)
	se.Tick(2_500_000)
	s := New(reg)

	res, body := get(t, s, "/healthz")
	if res.StatusCode != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", res.StatusCode, body)
	}

	res, body = get(t, s, "/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if _, err := ValidateExposition([]byte(body)); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	if s.Scrapes() != 1 {
		t.Errorf("Scrapes = %d, want 1", s.Scrapes())
	}

	res, body = get(t, s, "/statusz?format=json")
	if res.StatusCode != 200 {
		t.Fatalf("/statusz status %d", res.StatusCode)
	}
	var st Statusz
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz JSON: %v\n%s", err, body)
	}
	if st.Schema != "obs-statusz-v1" {
		t.Errorf("schema = %q", st.Schema)
	}
	if st.SimClockUS != 2_500_000 {
		t.Errorf("sim_clock_us = %d, want 2500000", st.SimClockUS)
	}
	if st.EventsExecuted != 5000 {
		t.Errorf("events_executed = %d", st.EventsExecuted)
	}
	if st.MetricsScrapes != 1 {
		t.Errorf("metrics_scrapes = %d", st.MetricsScrapes)
	}
	if st.Recovery["client.losses_detected"] != 7 {
		t.Errorf("recovery section = %v", st.Recovery)
	}
	if st.Links["ap.tx_delivered"] != 4800 || st.Links["phy.noise_losses"] != 12 {
		t.Errorf("links section = %v", st.Links)
	}
	if h := st.Histograms["client.recovery_delay_us"]; h.Count != 4 {
		t.Errorf("histogram summary = %+v", h)
	}

	res, body = get(t, s, "/statusz")
	if res.StatusCode != 200 || !strings.Contains(body, "<html") ||
		!strings.Contains(body, "client.losses_detected") {
		t.Errorf("/statusz HTML = %d %.80q...", res.StatusCode, body)
	}

	res, body = get(t, s, "/")
	if res.StatusCode != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %.80q...", res.StatusCode, body)
	}
	res, _ = get(t, s, "/no/such/page")
	if res.StatusCode != 404 {
		t.Errorf("unknown path status = %d, want 404", res.StatusCode)
	}
	res, _ = get(t, s, "/debug/pprof/cmdline")
	if res.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", res.StatusCode)
	}
}

func TestServerNilRegistry(t *testing.T) {
	s := New(nil)
	if res, _ := get(t, s, "/metrics"); res.StatusCode != 200 {
		t.Errorf("/metrics on nil registry: %d", res.StatusCode)
	}
	res, body := get(t, s, "/statusz?format=json")
	if res.StatusCode != 200 {
		t.Fatalf("/statusz on nil registry: %d", res.StatusCode)
	}
	var st Statusz
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz JSON: %v", err)
	}
	if st.SimClockUS != -1 {
		t.Errorf("sim_clock_us = %d, want -1 (unknown)", st.SimClockUS)
	}
}

func TestHandleJSONAndIndexListing(t *testing.T) {
	s := New(nil)
	s.Handle("/campaign/status", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"done": 3}`)
	}))
	res, body := get(t, s, "/campaign/status")
	if res.StatusCode != 200 || !strings.Contains(body, `"done": 3`) {
		t.Errorf("custom route = %d %q", res.StatusCode, body)
	}
	if _, body = get(t, s, "/"); !strings.Contains(body, "/campaign/status") {
		t.Errorf("index does not list custom route:\n%s", body)
	}
}

func TestServerStartAddrClose(t *testing.T) {
	s := New(populatedRegistry())
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr empty after Start")
	}
	res, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Errorf("/healthz over TCP: %d", res.StatusCode)
	}

	// The bound port must surface as an error for a second server.
	s2 := New(nil)
	if err := s2.Start(addr); err == nil {
		s2.Close()
		t.Error("Start on busy port succeeded, want error")
	}

	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if s.Addr() != "" {
		t.Errorf("Addr after Close = %q, want empty", s.Addr())
	}
	var nilServer *Server
	if err := nilServer.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestConcurrentScrapes(t *testing.T) {
	reg := populatedRegistry()
	s := New(reg)
	ctr := reg.Counter("sim.events_executed")
	stop := make(chan struct{})
	var workload sync.WaitGroup
	workload.Add(1)
	go func() { // simulated workload racing the scrapers
		defer workload.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ctr.Inc()
			}
		}
	}()
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for j := 0; j < 50; j++ {
				_, body := get(t, s, "/metrics")
				if _, err := ValidateExposition([]byte(body)); err != nil {
					t.Errorf("scrape %d invalid: %v", j, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for j := 0; j < 50; j++ {
				get(t, s, "/statusz?format=json")
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	workload.Wait()
}

func TestStatuszRecentRate(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(reg)
	get(t, s, "/statusz?format=json")
	reg.Counter("sim.events_executed").Add(100)
	_, body := get(t, s, "/statusz?format=json")
	var st Statusz
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.EventsPerSecRecent <= 0 {
		t.Errorf("events_per_sec_recent = %g, want > 0", st.EventsPerSecRecent)
	}
}

func BenchmarkWriteExposition(b *testing.B) {
	reg := populatedRegistry()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteExposition(&buf, reg); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint(buf.Len())
}
