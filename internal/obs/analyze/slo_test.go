package analyze

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

func analyzeSLOString(t *testing.T, trace string) *SLOReport {
	t.Helper()
	res, err := Analyze(strings.NewReader(trace), Options{MaxViolations: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.SLO
}

func sloEvent(tUS int64, typ, rule string, seq int, detail string) obs.Event {
	return obs.Event{TUS: tUS, Ev: typ, Run: "slo/t", Node: rule, Seq: seq, Detail: detail}
}

// TestSLOSampleEventsAreOneCleanEpisode pins the worked example from
// docs/OBSERVABILITY.md: the sample fragment is one complete
// pending→firing→resolved arc of the mos-floor rule and lints clean.
func TestSLOSampleEventsAreOneCleanEpisode(t *testing.T) {
	rep := analyzeSLOString(t, fleetTrace(t, obs.SampleSLOEvents()))
	if !rep.Clean() {
		t.Fatalf("sample slo trace dirty: %+v", rep.Violations)
	}
	if rep.SLOEvents != int64(len(obs.SLOEventTypes)) {
		t.Errorf("slo events = %d, want %d", rep.SLOEvents, len(obs.SLOEventTypes))
	}
	if len(rep.Runs) != 1 || rep.Runs[0] != "slo/9f8e7d6c" {
		t.Errorf("runs = %v", rep.Runs)
	}
	st := rep.Rules["mos-floor"]
	if st == nil || st.Episodes != 1 || st.Fired != 1 || st.Resolved != 1 || st.Open != 0 {
		t.Fatalf("mos-floor stats = %+v", st)
	}
	if st.FiringUS != 4_000_000 {
		t.Errorf("firing time = %d, want 4000000 (fired at 5s, resolved at 9s)", st.FiringUS)
	}
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %+v", rep.Episodes)
	}
	e := rep.Episodes[0]
	if e.Rule != "mos-floor" || e.Seq != 1 || e.PendingUS != 3_000_000 ||
		e.FiringUS != 5_000_000 || e.ResolvedUS != 9_000_000 ||
		!e.Fired || e.Outcome != "resolved" {
		t.Errorf("episode = %+v", e)
	}
	if e.Value != "3.41" || e.Bound != "min=3.60" {
		t.Errorf("episode detail echo: value %q bound %q", e.Value, e.Bound)
	}
}

// TestSLOOpenEpisodeIsNotAViolation: a process may exit mid-alert, so an
// un-resolved episode reports outcome "open" and the trace stays clean.
func TestSLOOpenEpisodeIsNotAViolation(t *testing.T) {
	rep := analyzeSLOString(t, fleetTrace(t, []obs.Event{
		sloEvent(1000, obs.EvSLOPending, "miss-rate", 1, "src=slo value=2.000 max=1.000"),
		sloEvent(2000, obs.EvSLOFiring, "miss-rate", 1, "src=slo value=3.000 max=1.000"),
	}))
	if !rep.Clean() {
		t.Fatalf("open episode linted dirty: %+v", rep.Violations)
	}
	if st := rep.Rules["miss-rate"]; st.Open != 1 || st.Resolved != 0 || st.Fired != 1 {
		t.Errorf("stats = %+v", st)
	}
	e := rep.Episodes[0]
	if e.Outcome != "open" || e.ResolvedUS != -1 {
		t.Errorf("episode = %+v", e)
	}
}

func TestSLOLintViolations(t *testing.T) {
	cases := []struct {
		name string
		evs  []obs.Event
		want string
	}{
		{
			"double pending",
			[]obs.Event{
				sloEvent(1, obs.EvSLOPending, "r", 1, "src=slo value=1.000 min=2.000"),
				sloEvent(2, obs.EvSLOPending, "r", 2, "src=slo value=1.000 min=2.000"),
			},
			"still open",
		},
		{
			"seq reuse",
			[]obs.Event{
				sloEvent(1, obs.EvSLOPending, "r", 2, "src=slo value=1.000 min=2.000"),
				sloEvent(2, obs.EvSLOResolved, "r", 2, "src=slo value=3.000 min=2.000"),
				sloEvent(3, obs.EvSLOPending, "r", 2, "src=slo value=1.000 min=2.000"),
			},
			"reuses episode seq",
		},
		{
			"firing without pending",
			[]obs.Event{sloEvent(1, obs.EvSLOFiring, "r", 1, "src=slo value=1.000 min=2.000")},
			"no open episode",
		},
		{
			"firing wrong seq",
			[]obs.Event{
				sloEvent(1, obs.EvSLOPending, "r", 1, "src=slo value=1.000 min=2.000"),
				sloEvent(2, obs.EvSLOFiring, "r", 9, "src=slo value=1.000 min=2.000"),
			},
			"episode 1 is open",
		},
		{
			"double firing",
			[]obs.Event{
				sloEvent(1, obs.EvSLOPending, "r", 1, "src=slo value=1.000 min=2.000"),
				sloEvent(2, obs.EvSLOFiring, "r", 1, "src=slo value=1.000 min=2.000"),
				sloEvent(3, obs.EvSLOFiring, "r", 1, "src=slo value=1.000 min=2.000"),
			},
			"fired twice",
		},
		{
			"resolved without pending",
			[]obs.Event{sloEvent(1, obs.EvSLOResolved, "r", 1, "src=slo value=3.000 min=2.000")},
			"no open episode",
		},
		{
			"backwards timestamps",
			[]obs.Event{
				sloEvent(5, obs.EvSLOPending, "r", 1, "src=slo value=1.000 min=2.000"),
				sloEvent(1, obs.EvSLOResolved, "r", 1, "src=slo value=3.000 min=2.000"),
			},
			"after",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := analyzeSLOString(t, fleetTrace(t, c.evs))
			if rep.Clean() {
				t.Fatalf("trace linted clean, want violation %q", c.want)
			}
			found := false
			for _, v := range rep.Violations {
				if strings.Contains(v.Msg, c.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation containing %q in %+v", c.want, rep.Violations)
			}
		})
	}
}

// TestSLORulesAreIndependent: episodes of different rules (and the same
// rule under different runs) interleave freely without tripping the
// one-open-episode lint.
func TestSLORulesAreIndependent(t *testing.T) {
	rep := analyzeSLOString(t, fleetTrace(t, []obs.Event{
		sloEvent(1, obs.EvSLOPending, "a", 1, "src=slo value=1.000 min=2.000"),
		sloEvent(2, obs.EvSLOPending, "b", 1, "src=slo value=9.000 max=5.000"),
		{TUS: 3, Ev: obs.EvSLOPending, Run: "slo/other", Node: "a", Seq: 1, Detail: "src=slo value=1.000 min=2.000"},
		sloEvent(4, obs.EvSLOResolved, "a", 1, "src=slo value=3.000 min=2.000"),
		sloEvent(5, obs.EvSLOResolved, "b", 1, "src=slo value=4.000 max=5.000"),
	}))
	if !rep.Clean() {
		t.Fatalf("dirty: %+v", rep.Violations)
	}
	if rep.Rules["a"].Episodes != 2 || rep.Rules["a"].Open != 1 || rep.Rules["b"].Resolved != 1 {
		t.Errorf("stats a=%+v b=%+v", rep.Rules["a"], rep.Rules["b"])
	}
	if len(rep.Runs) != 2 {
		t.Errorf("runs = %v", rep.Runs)
	}
}

// TestSLOSkipsOtherFamilies: simulation and fleet events sharing the file
// are counted and skipped, never linted.
func TestSLOSkipsOtherFamilies(t *testing.T) {
	evs := append(obs.SampleEvents(), obs.SampleFleetEvents()...)
	evs = append(evs, obs.SampleSLOEvents()...)
	rep := analyzeSLOString(t, fleetTrace(t, evs))
	if !rep.Clean() {
		t.Fatalf("dirty: %+v", rep.Violations)
	}
	wantSkipped := int64(len(obs.SampleEvents()) + len(obs.SampleFleetEvents()))
	if rep.Skipped != wantSkipped {
		t.Errorf("skipped = %d, want %d", rep.Skipped, wantSkipped)
	}
	if rep.SLOEvents != int64(len(obs.SampleSLOEvents())) {
		t.Errorf("slo events = %d, want %d", rep.SLOEvents, len(obs.SampleSLOEvents()))
	}
}

func TestSLOChromeExport(t *testing.T) {
	// Sample episode plus an open episode of a second rule: the open span
	// must extend to the end of its run's trace.
	evs := append(obs.SampleSLOEvents(),
		obs.Event{TUS: 10_000_000, Ev: obs.EvSLOPending, Run: "slo/9f8e7d6c",
			Node: "miss-rate", Seq: 1, Detail: "src=slo value=2.000 max=1.000"})
	trace := fleetTrace(t, evs)
	var out bytes.Buffer
	if err := ChromeTrace(strings.NewReader(trace), &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Dur  *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var lanes, episodes, firing, instants int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			lanes++
		case ev.Ph == "X" && ev.Cat == "slo-episode":
			episodes++
			if ev.Name == "episode 1" && ev.Dur == nil {
				t.Error("episode span without duration")
			}
		case ev.Ph == "X" && ev.Cat == "slo-firing":
			firing++
		case ev.Ph == "i":
			instants++
		}
	}
	if lanes != 2 {
		t.Errorf("rule lanes = %d, want 2", lanes)
	}
	if episodes != 2 || firing != 1 {
		t.Errorf("episode/firing spans = %d/%d, want 2/1", episodes, firing)
	}
	if instants != len(evs) {
		t.Errorf("instants = %d, want %d", instants, len(evs))
	}
	var again bytes.Buffer
	if err := ChromeTrace(strings.NewReader(trace), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("export is not deterministic")
	}
}
