package analyze

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fleetTrace renders events as a JSONL stream.
func fleetTrace(t *testing.T, events []obs.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

func analyzeFleetString(t *testing.T, trace string) *FleetReport {
	t.Helper()
	res, err := Analyze(strings.NewReader(trace), Options{MaxViolations: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Fleet
}

// TestFleetSampleEventsAreOneCleanEpisode pins the worked example from
// docs/OBSERVABILITY.md: the sample fragment is a complete worker-death
// story — grant, expire, re-lease, complete, stale reject — and lints
// clean with exactly one expire→re-lease episode.
func TestFleetSampleEventsAreOneCleanEpisode(t *testing.T) {
	rep := analyzeFleetString(t, fleetTrace(t, obs.SampleFleetEvents()))
	if !rep.Clean() {
		t.Fatalf("sample fleet trace dirty: %+v", rep.Violations)
	}
	if rep.FleetEvents != int64(len(obs.FleetEventTypes)) {
		t.Errorf("fleet events = %d, want %d", rep.FleetEvents, len(obs.FleetEventTypes))
	}
	if rep.Grants != 2 || rep.ReLeases != 1 || rep.Expired != 1 ||
		rep.Completed != 1 || rep.StaleRejects != 1 || rep.Heartbeats != 1 {
		t.Errorf("counts = grants %d releases %d expired %d completed %d stale %d hb %d",
			rep.Grants, rep.ReLeases, rep.Expired, rep.Completed, rep.StaleRejects, rep.Heartbeats)
	}
	if rep.ExpireReLeaseEpisodes != 1 {
		t.Errorf("expire→re-lease episodes = %d, want 1", rep.ExpireReLeaseEpisodes)
	}
	if len(rep.Leases) != 2 {
		t.Fatalf("leases = %d, want 2", len(rep.Leases))
	}
	l1, l2 := rep.Leases[0], rep.Leases[1]
	if l1.ID != "L1" || l1.Worker != "w0" || l1.Outcome != "expired" || !l1.ReLeased ||
		l1.StaleRejects != 1 || l1.Heartbeats != 1 || l1.Reason != "ttl" {
		t.Errorf("L1 = %+v", l1)
	}
	if l2.ID != "L2" || l2.Worker != "w1" || l2.Outcome != "completed" || !l2.ReLease {
		t.Errorf("L2 = %+v", l2)
	}
	if len(rep.Lanes) != 2 || rep.Lanes["w0"] == nil || rep.Lanes["w1"] == nil {
		t.Errorf("lanes = %v, want w0 and w1", rep.Lanes)
	}
}

func coordEvent(tUS int64, typ, node string, seq int, detail string) obs.Event {
	return obs.Event{TUS: tUS, Ev: typ, Run: "fleet/t", Node: node, Seq: seq, Detail: detail}
}

func TestFleetLintViolations(t *testing.T) {
	cases := []struct {
		name string
		evs  []obs.Event
		kind string
		want string
	}{
		{
			"duplicate grant",
			[]obs.Event{
				coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
				coordEvent(2, obs.EvLeaseGrant, "w1", 1, "src=coord span=8:16"),
			},
			VLease, "granted twice",
		},
		{
			"expire of unknown lease",
			[]obs.Event{coordEvent(1, obs.EvLeaseExpire, "w0", 9, "src=coord span=0:8 reason=ttl")},
			VLease, "not open",
		},
		{
			"complete after expire",
			[]obs.Event{
				coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
				coordEvent(2, obs.EvLeaseExpire, "w0", 1, "src=coord span=0:8 reason=ttl"),
				coordEvent(3, obs.EvReLease, "w1", 2, "src=coord span=0:8"),
				coordEvent(4, obs.EvLeaseComplete, "w1", 2, "src=coord span=0:8"),
				coordEvent(5, obs.EvLeaseComplete, "w0", 1, "src=coord span=0:8"),
			},
			VLease, "stale report merged",
		},
		{
			"re-lease without expire",
			[]obs.Event{coordEvent(1, obs.EvReLease, "w0", 1, "src=coord span=0:8")},
			VLease, "never expired",
		},
		{
			"expired span never re-leased",
			[]obs.Event{
				coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
				coordEvent(2, obs.EvLeaseExpire, "w0", 1, "src=coord span=0:8 reason=ttl"),
			},
			VLease, "never re-leased",
		},
		{
			"reject-stale for open lease",
			[]obs.Event{
				coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
				coordEvent(2, obs.EvRejectStale, "w0", 1, "src=coord span=0:8"),
			},
			VLease, "still open",
		},
		{
			"timestamps backwards within one src stream",
			[]obs.Event{
				coordEvent(5, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
				coordEvent(1, obs.EvLeaseComplete, "w0", 1, "src=coord span=0:8"),
			},
			VOrder, "after",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := analyzeFleetString(t, fleetTrace(t, c.evs))
			if rep.Clean() {
				t.Fatalf("trace linted clean, want %s violation", c.kind)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Kind == c.kind && strings.Contains(v.Msg, c.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation containing %q in %+v", c.kind, c.want, rep.Violations)
			}
		})
	}
}

// TestFleetSplitReLease pins interval accounting: an expired span re-granted
// in two pieces still closes exactly one expire→re-lease episode.
func TestFleetSplitReLease(t *testing.T) {
	rep := analyzeFleetString(t, fleetTrace(t, []obs.Event{
		coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:64"),
		coordEvent(2, obs.EvLeaseExpire, "w0", 1, "src=coord span=0:64 reason=ttl"),
		coordEvent(3, obs.EvReLease, "w1", 2, "src=coord span=0:32"),
		coordEvent(4, obs.EvReLease, "w2", 3, "src=coord span=32:64"),
		coordEvent(5, obs.EvLeaseComplete, "w1", 2, "src=coord span=0:32"),
		coordEvent(6, obs.EvLeaseComplete, "w2", 3, "src=coord span=32:64"),
	}))
	if !rep.Clean() {
		t.Fatalf("dirty: %+v", rep.Violations)
	}
	if rep.ExpireReLeaseEpisodes != 1 {
		t.Errorf("episodes = %d, want 1 (split re-grant is one recovery)", rep.ExpireReLeaseEpisodes)
	}
	if !rep.Leases[0].ReLeased {
		t.Error("L1 not marked re-leased")
	}
}

// TestFleetWorkerEventsAreTimelineOnly: src=worker narration never drives
// the lease state machine, so a worker's own account of a lease it lost
// cannot contradict the coordinator's record.
func TestFleetWorkerEventsAreTimelineOnly(t *testing.T) {
	rep := analyzeFleetString(t, fleetTrace(t, []obs.Event{
		coordEvent(1, obs.EvLeaseGrant, "w0", 1, "src=coord span=0:8"),
		{TUS: 2, Ev: obs.EvLeaseGrant, Run: "fleet/t", Node: "w0", Seq: 1, Detail: "src=worker span=0:8"},
		{TUS: 3, Ev: obs.EvFleetHeartbeat, Run: "fleet/t", Node: "w0", Seq: 1, Detail: "src=worker"},
		coordEvent(4, obs.EvLeaseComplete, "w0", 1, "src=coord span=0:8"),
		{TUS: 5, Ev: obs.EvLeaseComplete, Run: "fleet/t", Node: "w0", Seq: 1, Detail: "src=worker span=0:8"},
	}))
	if !rep.Clean() {
		t.Fatalf("dirty: %+v (worker events must not feed the state machine)", rep.Violations)
	}
	if rep.Grants != 1 || rep.Completed != 1 {
		t.Errorf("grants/completed = %d/%d, want 1/1", rep.Grants, rep.Completed)
	}
	if lane := rep.Lanes["w0"]; lane == nil || lane.Events != 5 {
		t.Errorf("lane w0 = %+v, want 5 events", rep.Lanes["w0"])
	}
}

// TestFleetSkipsSimEvents: a local sweep's trace interleaves simulation
// events with fleet events; the fleet pass counts and skips them.
func TestFleetSkipsSimEvents(t *testing.T) {
	evs := append(obs.SampleEvents(), obs.SampleFleetEvents()...)
	rep := analyzeFleetString(t, fleetTrace(t, evs))
	if !rep.Clean() {
		t.Fatalf("dirty: %+v", rep.Violations)
	}
	if rep.Skipped != int64(len(obs.SampleEvents())) {
		t.Errorf("skipped = %d, want %d", rep.Skipped, len(obs.SampleEvents()))
	}
	if rep.FleetEvents != int64(len(obs.SampleFleetEvents())) {
		t.Errorf("fleet events = %d, want %d", rep.FleetEvents, len(obs.SampleFleetEvents()))
	}
}

func TestFleetChromeExport(t *testing.T) {
	trace := fleetTrace(t, obs.SampleFleetEvents())
	var out bytes.Buffer
	if err := ChromeTrace(strings.NewReader(trace), &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var laneNames, leaseSpans, instants int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			laneNames++
		case ev.Ph == "X" && ev.Cat == "lease":
			leaseSpans++
		case ev.Ph == "i":
			instants++
		}
	}
	if laneNames != 2 {
		t.Errorf("lanes = %d, want 2 (w0, w1)", laneNames)
	}
	if leaseSpans != 2 {
		t.Errorf("lease spans = %d, want 2 (L1, L2)", leaseSpans)
	}
	if instants != len(obs.SampleFleetEvents()) {
		t.Errorf("instants = %d, want %d", instants, len(obs.SampleFleetEvents()))
	}
	// Determinism: a second export must be byte-identical.
	var again bytes.Buffer
	if err := ChromeTrace(strings.NewReader(trace), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("export is not deterministic")
	}
}
