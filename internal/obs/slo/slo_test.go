package slo_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/expose"
	"repro/internal/obs/slo"
)

// ruleJSON is a minimal two-rule document used across the tests: a gauge
// floor with a 2 s for-duration and an immediate-fire counter-rate ceiling.
const ruleJSON = `{
  "schema": "slo-v1",
  "rules": [
    {"name": "depth-floor", "signal": "gauge(net.queue_depth)", "min": 5, "for": "2s"},
    {"name": "drop-rate", "signal": "rate(net.drops)", "max": 10}
  ]
}`

const ruleYAML = `schema: slo-v1
rules:
  - name: depth-floor
    signal: gauge(net.queue_depth)
    min: 5
    for: 2s
  - name: drop-rate
    signal: rate(net.drops)
    max: 10
`

func mustDecode(t *testing.T, doc string) *slo.RuleSet {
	t.Helper()
	rs, err := slo.DecodeRules([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestDecodeHashCanonical pins the canonical-hash contract: the same
// ruleset spelled as JSON, as YAML, or with defaults made explicit hashes
// identically, and a semantic change moves the hash.
func TestDecodeHashCanonical(t *testing.T) {
	j := mustDecode(t, ruleJSON)
	y := mustDecode(t, ruleYAML)
	if j.Hash() == "" || len(j.Hash()) != 32 {
		t.Fatalf("hash %q, want 32 hex chars", j.Hash())
	}
	if j.Hash() != y.Hash() {
		t.Errorf("JSON and YAML spellings hash differently: %s vs %s", j.Hash(), y.Hash())
	}
	explicit := mustDecode(t, strings.Replace(ruleJSON,
		`"schema": "slo-v1",`, `"schema": "slo-v1", "stream_hz": 50,`, 1))
	if explicit.Hash() != j.Hash() {
		t.Errorf("explicit default stream_hz changed the hash")
	}
	changed := mustDecode(t, strings.Replace(ruleJSON, `"min": 5`, `"min": 4`, 1))
	if changed.Hash() == j.Hash() {
		t.Errorf("threshold change did not move the hash")
	}
	if got := slo.TraceRun(j.Hash()); got != "slo/"+j.Hash()[:8] {
		t.Errorf("TraceRun = %q", got)
	}
}

func TestDecodeRulesErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", "   \n", "empty ruleset"},
		{"bad schema", `{"schema":"slo-v2","rules":[{"name":"a","signal":"mos","min":1}]}`, "unsupported schema"},
		{"no rules", `{"schema":"slo-v1","rules":[]}`, "no rules"},
		{"unknown field", `{"schema":"slo-v1","bogus":1,"rules":[{"name":"a","signal":"mos","min":1}]}`, "bogus"},
		{"trailing content", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1}]}{}`, "trailing"},
		{"trailing brace", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1}]} }`, "trailing"},
		{"trailing bracket", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1}]} ]`, "trailing"},
		{"second yaml document", "schema: slo-v1\nrules:\n  - name: a\n    signal: mos\n    min: 1\n---\nstream_hz: 5\n", "yaml: line 6: a second document"},
		{"bad name", `{"schema":"slo-v1","rules":[{"name":"has space","signal":"mos","min":1}]}`, "invalid name"},
		{"dup name", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1},{"name":"a","signal":"mos","min":1}]}`, "duplicate rule"},
		{"both bounds", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1,"max":2}]}`, "exactly one"},
		{"no bounds", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos"}]}`, "exactly one"},
		{"bad for", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1,"for":"2 parsecs"}]}`, "bad for"},
		{"negative for", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1,"for":"-2s"}]}`, "bad for"},
		{"bad signal fn", `{"schema":"slo-v1","rules":[{"name":"a","signal":"stddev(x)","min":1}]}`, "unknown signal function"},
		{"bare signal", `{"schema":"slo-v1","rules":[{"name":"a","signal":"throughput","min":1}]}`, "neither"},
		{"removed switch_p95_us", `{"schema":"slo-v1","rules":[{"name":"a","signal":"switch_p95_us","max":1}]}`, "neither"},
		{"removed retrieve_p95_us", `{"schema":"slo-v1","rules":[{"name":"a","signal":"retrieve_p95_us","max":1}]}`, "neither"},
		{"empty arg", `{"schema":"slo-v1","rules":[{"name":"a","signal":"rate()","min":1}]}`, "missing instrument"},
		{"bad stream_hz", `{"schema":"slo-v1","stream_hz":-1,"rules":[{"name":"a","signal":"mos","min":1}]}`, "stream_hz"},
		{"cell no metric", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1,"cell":{"stat":"p50"}}]}`, "missing metric"},
		{"cell bad stat", `{"schema":"slo-v1","rules":[{"name":"a","signal":"mos","min":1,"cell":{"metric":"m","stat":"p42"}}]}`, "not in p50/p95/mean"},
	}
	for _, c := range cases {
		_, err := slo.DecodeRules([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestRulePassAndCellRules(t *testing.T) {
	rs := mustDecode(t, `{"schema":"slo-v1","rules":[
		{"name":"lo","signal":"mos","min":3.6,"cell":{"metric":"diversifi_mos","stat":"p50"}},
		{"name":"hi","signal":"p95(client.recovery_delay_us)","scale":0.001,"max":120}
	]}`)
	cells := rs.CellRules()
	if len(cells) != 1 || cells[0].Name != "lo" {
		t.Fatalf("CellRules = %+v", cells)
	}
	if !cells[0].Pass(3.6) || cells[0].Pass(3.5) {
		t.Errorf("min bound misapplied")
	}
	hi := rs.Rules[1]
	// Scale 0.001: 100000 µs → 100 ms passes, 150000 µs → 150 ms fails.
	if !hi.Pass(100000) || hi.Pass(150001) {
		t.Errorf("scaled max bound misapplied")
	}
	var nilRS *slo.RuleSet
	if nilRS.CellRules() != nil {
		t.Errorf("nil ruleset CellRules != nil")
	}
}

// point builds a synthetic 1 s window ending at endSec with one gauge.
func gaugePoint(endSec int64, depth int64) obs.SeriesPoint {
	return obs.SeriesPoint{
		StartUS: (endSec - 1) * 1_000_000,
		EndUS:   endSec * 1_000_000,
		Gauges:  map[string]int64{"net.queue_depth": depth},
	}
}

// TestEngineStateMachine drives one pending→firing→resolved episode with
// synthetic window points and checks every transition: state, counts, the
// /alerts snapshot, and the slo-trace-v1 events left in the sink.
func TestEngineStateMachine(t *testing.T) {
	rs := mustDecode(t, ruleJSON)
	e := slo.NewEngine(rs)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	reg.SetSink(sink)
	e.Arm(reg, obs.NewSeries(reg, 1_000_000))

	check := func(stage, wantState string, wantPending, wantFiring, wantFired int64) {
		t.Helper()
		a := e.Alerts()
		if a.Rules[0].State != wantState {
			t.Errorf("%s: state %q, want %q", stage, a.Rules[0].State, wantState)
		}
		p, f, fd := e.Counts()
		if p != wantPending || f != wantFiring || fd != wantFired {
			t.Errorf("%s: counts %d/%d/%d, want %d/%d/%d", stage, p, f, fd, wantPending, wantFiring, wantFired)
		}
	}

	e.Observe(gaugePoint(1, 10))
	check("healthy", "inactive", 0, 0, 0)
	e.Observe(gaugePoint(2, 1))
	check("first violation", "pending", 1, 0, 0)
	e.Observe(gaugePoint(3, 1))
	check("1s into for", "pending", 1, 0, 0)
	e.Observe(gaugePoint(4, 1))
	check("for elapsed", "firing", 0, 1, 1)
	e.Observe(gaugePoint(5, 10))
	check("recovered", "inactive", 0, 0, 1)

	a := e.Alerts()
	if a.Schema != slo.AlertsSchema || a.RuleSet != rs.Hash() || a.Windows != 5 || a.ClockUS != 5_000_000 {
		t.Errorf("alerts header: %+v", a)
	}
	if r := a.Rules[0]; r.Episodes != 1 || r.Fired != 1 || !r.HasValue || r.Value != 10 || r.SinceUS != 0 {
		t.Errorf("rule status: %+v", r)
	}

	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		ev, err := obs.DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("decode %q: %v", sc.Text(), err)
		}
		if err := ev.Validate(); err != nil {
			t.Errorf("emitted event invalid: %v", err)
		}
		evs = append(evs, ev)
	}
	wantRun := slo.TraceRun(rs.Hash())
	want := []struct {
		ev    string
		tus   int64
		durUS int64
	}{
		{obs.EvSLOPending, 2_000_000, 0},
		{obs.EvSLOFiring, 4_000_000, 2_000_000},
		{obs.EvSLOResolved, 5_000_000, 3_000_000},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d trace events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, w := range want {
		ev := evs[i]
		if ev.Ev != w.ev || ev.TUS != w.tus || ev.DurUS != w.durUS ||
			ev.Run != wantRun || ev.Node != "depth-floor" || ev.Seq != 1 {
			t.Errorf("event %d = %+v, want %s at %dµs dur %dµs run %s", i, ev, w.ev, w.tus, w.durUS, wantRun)
		}
		if !strings.HasPrefix(ev.Detail, "src=slo value=") || !strings.Contains(ev.Detail, "min=5.000") {
			t.Errorf("event %d detail %q", i, ev.Detail)
		}
	}
}

// TestEngineImmediateFire checks a rule with no for-duration goes
// pending and firing inside the same observed window.
func TestEngineImmediateFire(t *testing.T) {
	rs := mustDecode(t, ruleJSON)
	e := slo.NewEngine(rs)
	e.Observe(obs.SeriesPoint{
		StartUS:  0,
		EndUS:    1_000_000,
		Counters: map[string]int64{"net.drops": 50}, // rate 50/s > max 10
		Gauges:   map[string]int64{"net.queue_depth": 9},
	})
	a := e.Alerts()
	if a.Rules[1].State != "firing" || a.Rules[1].Fired != 1 {
		t.Errorf("drop-rate after one bad window: %+v", a.Rules[1])
	}
	if a.Rules[1].Value != 50 {
		t.Errorf("rate value = %g, want 50", a.Rules[1].Value)
	}
}

// TestEngineMissingDataResolves checks the non-violating treatment of
// absent data: a firing gauge alert resolves when its gauge disappears
// from the window, but the displayed value is left untouched.
func TestEngineMissingDataResolves(t *testing.T) {
	rs := mustDecode(t, `{"schema":"slo-v1","rules":[
		{"name":"depth-floor","signal":"gauge(net.queue_depth)","min":5}]}`)
	e := slo.NewEngine(rs)
	e.Observe(gaugePoint(1, 2))
	if a := e.Alerts(); a.Rules[0].State != "firing" {
		t.Fatalf("state %q, want firing", a.Rules[0].State)
	}
	e.Observe(obs.SeriesPoint{StartUS: 1_000_000, EndUS: 2_000_000}) // gauge gone
	a := e.Alerts()
	if a.Rules[0].State != "inactive" {
		t.Errorf("state %q after missing data, want inactive", a.Rules[0].State)
	}
	if a.Rules[0].Value != 2 {
		t.Errorf("value %g overwritten by missing window", a.Rules[0].Value)
	}
}

// TestEngineDerivedCallHealth exercises the mos / worst_mos /
// miss_rate_pct signals end to end: a lossy window tanks all three, a
// clean window recovers mos and miss rate while worst_mos latches.
func TestEngineDerivedCallHealth(t *testing.T) {
	rs := mustDecode(t, `{"schema":"slo-v1","rules":[
		{"name":"mos-floor","signal":"mos","min":3.6},
		{"name":"worst","signal":"worst_mos","min":3.6},
		{"name":"miss-rate","signal":"miss_rate_pct","max":1}]}`)
	e := slo.NewEngine(rs)
	// 1 s window at the default 50 Hz → 50 expected packets; 5 misses is a
	// 10% loss rate, far below any usable MOS.
	e.Observe(obs.SeriesPoint{StartUS: 0, EndUS: 1_000_000,
		Counters: map[string]int64{"client.playout_misses": 5}})
	a := e.Alerts()
	for i, name := range []string{"mos-floor", "worst", "miss-rate"} {
		if a.Rules[i].State != "firing" {
			t.Errorf("%s after lossy window: %q", name, a.Rules[i].State)
		}
	}
	if v := a.Rules[2].Value; v != 10 {
		t.Errorf("miss_rate_pct = %g, want 10", v)
	}
	lossyMOS := a.Rules[0].Value

	e.Observe(obs.SeriesPoint{StartUS: 1_000_000, EndUS: 2_000_000})
	a = e.Alerts()
	if a.Rules[0].State != "inactive" || a.Rules[2].State != "inactive" {
		t.Errorf("mos/miss-rate did not resolve on a clean window: %q / %q",
			a.Rules[0].State, a.Rules[2].State)
	}
	if a.Rules[0].Value <= 4 {
		t.Errorf("zero-loss mos = %g, want > 4", a.Rules[0].Value)
	}
	// worst_mos is a low-water mark: it must still show the lossy window.
	if a.Rules[1].State != "firing" || a.Rules[1].Value != lossyMOS {
		t.Errorf("worst_mos = %+v, want firing at %g", a.Rules[1], lossyMOS)
	}
}

// TestArmLeavesTracingOff: every signal is a window of registry
// instruments, so arming an engine on a sinkless registry never turns
// tracing on, and the simulators it watches build no trace events.
func TestArmLeavesTracingOff(t *testing.T) {
	rs := mustDecode(t, `{"schema":"slo-v1","rules":[
		{"name":"mos","signal":"mos","min":3.6},
		{"name":"worst","signal":"worst_mos","min":3},
		{"name":"miss","signal":"miss_rate_pct","max":5},
		{"name":"recovery","signal":"p95(client.recovery_delay_us)","max":100000}]}`)
	reg := obs.NewRegistry()
	slo.NewEngine(rs).Arm(reg, obs.NewSeries(reg, 1_000_000))
	if reg.Tracing() {
		t.Error("arming an engine on a sinkless registry turned tracing on")
	}
}

// TestWriteMetricsValidExposition lints the slo_* families the engine
// appends to /metrics with the same validator CI runs against scrapes.
func TestWriteMetricsValidExposition(t *testing.T) {
	rs := mustDecode(t, ruleJSON)
	e := slo.NewEngine(rs)
	e.Observe(gaugePoint(1, 2))
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	if _, err := expose.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("slo exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		`slo_alert_state{rule="depth-floor"} 1`,
		`slo_alert_state{rule="drop-rate"} 0`,
		`slo_rule_value{rule="depth-floor"} 2`,
		`slo_rule_fired_total{rule="depth-floor"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestServeHTTP checks both response formats of /alerts.
func TestServeHTTP(t *testing.T) {
	rs := mustDecode(t, ruleJSON)
	e := slo.NewEngine(rs)
	e.Observe(gaugePoint(1, 2))

	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	var a slo.Alerts
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		t.Fatalf("alerts JSON: %v", err)
	}
	if a.Schema != slo.AlertsSchema || len(a.Rules) != 2 {
		t.Errorf("alerts doc: %+v", a)
	}

	rec = httptest.NewRecorder()
	e.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts?format=html", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("html content type %q", ct)
	}
	for _, want := range []string{"depth-floor", "pending", "<table>"} {
		if !strings.Contains(body, want) {
			t.Errorf("html page missing %q", want)
		}
	}
}

// TestNilEngine pins the package's nil-safety contract: every method on a
// nil engine is a usable no-op, matching the rest of the obs layer.
func TestNilEngine(t *testing.T) {
	var e *slo.Engine
	e.Arm(obs.NewRegistry(), nil)
	e.Observe(gaugePoint(1, 0))
	if p, f, fd := e.Counts(); p != 0 || f != 0 || fd != 0 {
		t.Errorf("nil counts %d/%d/%d", p, f, fd)
	}
	if e.RuleSet() != nil {
		t.Errorf("nil engine RuleSet != nil")
	}
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil engine wrote metrics: %q", buf.String())
	}
	a := e.Alerts()
	if a == nil || len(a.Rules) != 0 || a.Schema != slo.AlertsSchema {
		t.Errorf("nil engine alerts: %+v", a)
	}
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Errorf("nil engine /alerts status %d", rec.Code)
	}
}
