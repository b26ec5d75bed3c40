package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/expose"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
)

func mustRules(t *testing.T, doc string) *slo.RuleSet {
	t.Helper()
	rs, err := slo.DecodeRules([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestValidateSLOBindings(t *testing.T) {
	if err := ValidateSLOBindings(nil); err != nil {
		t.Errorf("nil ruleset rejected: %v", err)
	}
	ok := mustRules(t, `{"schema":"slo-v1","rules":[
		{"name":"a","signal":"mos","min":3,"cell":{"metric":"diversifi_mos","stat":"p50"}},
		{"name":"b","signal":"miss_rate_pct","max":2,"cell":{"metric":"recovery_total_ms","stat":"p95"}},
		{"name":"live-only","signal":"gauge(x)","min":1}]}`)
	if err := ValidateSLOBindings(ok); err != nil {
		t.Errorf("canonical bindings rejected: %v", err)
	}
	bad := mustRules(t, `{"schema":"slo-v1","rules":[
		{"name":"typo","signal":"mos","min":3,"cell":{"metric":"diversify_mos","stat":"p50"}}]}`)
	err := ValidateSLOBindings(bad)
	if err == nil {
		t.Fatal("typo'd cell metric accepted")
	}
	for _, want := range []string{"typo", "diversify_mos", "diversifi_mos"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// verdictSummary builds a one-cell summary with hand-chosen metric values:
// diversifi_mos 4.0, cross_dup_bytes 1e6, and no recovery series at all.
func verdictSummary(t *testing.T) *Summary {
	t.Helper()
	s := synthSpec(t, `{"name":"v","seeds":{"count":4},
		"impairments":["none"],"device_classes":["pc"],"ap_densities":["typical"]}`)
	agg := NewAggregate()
	for i := int64(0); i < s.Total(); i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		m := Metrics{Schema: MetricsSchema,
			Scalars: map[string]float64{"diversifi_mos": 4.0, "cross_dup_bytes": 1e6},
			Poor:    map[string]bool{}}
		agg.Observe(j.CellKey(), m)
	}
	return Summarize(s, agg)
}

func TestApplyVerdicts(t *testing.T) {
	sum := verdictSummary(t)
	fp := sum.Fingerprint
	if strings.Contains(sum.Text(), "SLO") {
		t.Fatal("verdict-less summary already renders an SLO column")
	}

	rs := mustRules(t, `{"schema":"slo-v1","rules":[
		{"name":"mos-floor","signal":"mos","min":3,"cell":{"metric":"diversifi_mos","stat":"p50"}},
		{"name":"dup-ceiling","signal":"gauge(client.dup)","scale":0.001,"max":500,
		 "cell":{"metric":"cross_dup_bytes","stat":"mean"}},
		{"name":"recovery","signal":"p95(client.recovery_delay_us)","scale":0.001,"max":100,
		 "cell":{"metric":"recovery_total_ms","stat":"p95"}},
		{"name":"live-only","signal":"gauge(x)","min":1}]}`)
	sum.ApplyVerdicts(rs)

	if len(sum.Cells) != 1 {
		t.Fatalf("cells = %d", len(sum.Cells))
	}
	vs := sum.Cells[0].Verdicts
	// recovery_total_ms never observed anything → no verdict for that rule;
	// live-only has no cell binding at all.
	if len(vs) != 2 {
		t.Fatalf("verdicts = %+v, want mos-floor and dup-ceiling only", vs)
	}
	if vs[0].Rule != "mos-floor" || !vs[0].Pass || vs[0].Value != 4.0 {
		t.Errorf("mos-floor verdict = %+v", vs[0])
	}
	// Scale applies before the threshold and to the reported value:
	// mean 1e6 bytes × 0.001 = 1000 KB > 500 → fail.
	if vs[1].Rule != "dup-ceiling" || vs[1].Pass || vs[1].Value != 1000 {
		t.Errorf("dup-ceiling verdict = %+v", vs[1])
	}

	if sum.Fingerprint != fp {
		t.Errorf("verdicts moved the fingerprint: %s → %s", fp, sum.Fingerprint)
	}
	text := sum.Text()
	if !strings.Contains(text, "SLO") || !strings.Contains(text, "FAIL dup-ceiling") {
		t.Errorf("summary table missing verdict column:\n%s", text)
	}

	// The JSON document carries the verdicts; re-applying nil strips nothing
	// (no-op), and a set without cell bindings leaves cells verdict-less.
	data, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"slo_verdicts"`)) {
		t.Error("summary JSON has no slo_verdicts field")
	}
	sum.ApplyVerdicts(nil)
	if len(sum.Cells[0].Verdicts) != 2 {
		t.Error("nil ruleset was not a no-op")
	}
	fresh := verdictSummary(t)
	fresh.ApplyVerdicts(mustRules(t, `{"schema":"slo-v1","rules":[
		{"name":"live-only","signal":"gauge(x)","min":1}]}`))
	if fresh.Cells[0].Verdicts != nil {
		t.Error("binding-less ruleset stamped verdicts")
	}
	if strings.Contains(fresh.Text(), "SLO") {
		t.Error("binding-less ruleset grew an SLO column")
	}
}

func TestVerdictCell(t *testing.T) {
	if got := verdictCell(nil); got != "-" {
		t.Errorf("no verdicts → %q", got)
	}
	if got := verdictCell([]CellVerdict{{Rule: "a", Pass: true}}); got != "pass" {
		t.Errorf("all pass → %q", got)
	}
	got := verdictCell([]CellVerdict{
		{Rule: "a", Pass: true}, {Rule: "b"}, {Rule: "c"}})
	if got != "FAIL b,c" {
		t.Errorf("failures → %q", got)
	}
}

// TestSLOPlaneNoPerturb is this PR's observer-effect gate: a sharded sweep
// with the full plane armed — trace sink, flight recorder, a live SLO
// engine whose rules actually fire mid-sweep, verdict stamping on the
// coordinator, and /alerts + /metrics scraped from concurrent goroutines —
// must fingerprint byte-identically to a plain sequential pass, and the
// slo-trace-v1 events it leaves behind must lint clean.
func TestSLOPlaneNoPerturb(t *testing.T) {
	doc := `{"name":"slonoperturb","seeds":{"count":30},
		"impairments":["none","weak-link","mobility"],"device_classes":["pc","mobile"],
		"ap_densities":["dense","sparse"]}`
	s := synthSpec(t, doc)
	want := runSequential(t, s, &Runner{RunFunc: synthMetrics})
	wantFP := want.Fingerprint()
	wantJSON, err := Summarize(s, want).JSON()
	if err != nil {
		t.Fatal(err)
	}

	// pulse-ceiling fires as soon as the driver series captures a window
	// (the ticker below bumps test.pulse every tick, far over the ceiling);
	// the two cell-bound rules are evaluated only at Summarize time.
	rs := mustRules(t, `{"schema":"slo-v1","rules":[
		{"name":"pulse-ceiling","signal":"rate(test.pulse)","max":0.000001},
		{"name":"mos-floor","signal":"mos","min":0.1,"cell":{"metric":"diversifi_mos","stat":"p50"}},
		{"name":"dup-ceiling","signal":"gauge(client.dup)","max":0.5,"cell":{"metric":"cross_dup_bytes","stat":"mean"}}]}`)
	if err := ValidateSLOBindings(rs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	reg := obs.NewRegistry()
	reg.SetSink(sink)
	series := obs.NewSeries(reg, 1000)
	reg.SetSeries(series)
	eng := slo.NewEngine(rs)
	eng.Arm(reg, series)
	dir := t.TempDir()
	rec := flight.New(dir, 0)
	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{
		Batch: 13, Obs: reg, Flight: rec, SLO: rs})
	srv := expose.New(reg)
	c.Routes(srv)
	srv.Handle("/alerts", eng)
	srv.OnMetrics(eng.WriteMetrics)

	// Ticker: advances the engine's driver series through windows mid-sweep
	// so pulse-ceiling genuinely transitions while workers hold leases.
	done := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		pulse := reg.Counter("test.pulse")
		for tick := int64(1000); ; tick += 1000 {
			select {
			case <-done:
				return
			default:
			}
			pulse.Add(1)
			series.Tick(tick)
		}
	}()
	// Scrapers hammer /metrics (slo_* families included) and /alerts the
	// whole time; under -race this proves the engine's evaluation loop is
	// data-race-free against its own HTTP snapshot path.
	for i := 0; i < 2; i++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
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
				rr = httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest("GET", "/alerts", nil))
				var a slo.Alerts
				if err := json.Unmarshal(rr.Body.Bytes(), &a); err != nil {
					t.Errorf("mid-sweep /alerts not JSON: %v", err)
					return
				}
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
					Obs: reg, Flight: rec, SLO: eng})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	aux.Wait()
	series.Flush()

	if _, _, fired := eng.Counts(); fired < 1 {
		t.Error("pulse-ceiling never fired — the armed plane was never exercised")
	}

	sum := c.Summary()
	if sum.Fingerprint != wantFP {
		t.Errorf("slo-plane fingerprint %s != plain sequential %s", sum.Fingerprint, wantFP)
	}
	// Verdicts landed without perturbing anything the fingerprint covers,
	// and the deterministic cell content matches the unarmed run's JSON.
	for i := range sum.Cells {
		if len(sum.Cells[i].Verdicts) != 2 {
			t.Errorf("cell %s verdicts = %+v, want both cell rules", sum.Cells[i].Cell, sum.Cells[i].Verdicts)
		}
	}
	if !strings.Contains(sum.Text(), "SLO") {
		t.Error("summary table has no SLO column despite verdicts")
	}
	if !bytes.Contains(wantJSON, []byte(sum.SpecHash)) {
		t.Errorf("spec hash drifted: %s not in unarmed summary", sum.SpecHash)
	}

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := analyze.Analyze(bytes.NewReader(buf.Bytes()), analyze.Options{MaxViolations: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SLO
	if !rep.Clean() {
		t.Errorf("slo lint found violations: %+v", rep.Violations)
	}
	if rep.SLOEvents == 0 {
		t.Error("armed engine left no slo-trace-v1 events")
	}
	if st := rep.Rules["pulse-ceiling"]; st == nil || st.Fired == 0 {
		t.Errorf("trace shows no pulse-ceiling firing: %+v", st)
	}
	if len(rep.Runs) != 1 || rep.Runs[0] != slo.TraceRun(rs.Hash()) {
		t.Errorf("slo events ran under %v, want %s", rep.Runs, slo.TraceRun(rs.Hash()))
	}
	if !res.Fleet.Clean() {
		t.Errorf("fleet lint dirty with slo events interleaved: %+v", res.Fleet.Violations)
	}

	// Every lease report carried the engine's alert counts, so every worker
	// that did jobs shows them.
	for _, w := range c.Snapshot().Fleet {
		if w.JobsDone > 0 && !w.SLOArmed {
			t.Errorf("worker %s did %d jobs but its row shows no SLO state: %+v", w.Name, w.JobsDone, w)
		}
	}
}
