package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// Tiny shapes of the four workloads: the same code paths at a scale that
// runs in seconds. The cold shape's calls last 30 s: long enough that the
// probe's own bookkeeping (its MemStats reads) stays a small share of each
// probed job, as with the real workload's 120 s calls.
var (
	tinyCold  = sweepShape{name: "sweep-cold", seedsPerPass: 1, grids: 2, durationS: 30}
	tinyWarm  = sweepShape{name: "sweep-warm", seedsPerPass: 1, grids: 1, durationS: 10, warm: true}
	tinyFleet = sweepShape{name: "fleet-http", seedsPerPass: 1, grids: 2, fleet: true}
	tinyRelay = relayShape{streams: 60, interval: 20 * time.Millisecond, payload: 160,
		outage: 10, fromOffset: 7, activeMin: 10, activeMax: 20, depth: 5,
		drain: 100 * time.Millisecond, maxLate: 100 * time.Millisecond}
)

func sweepWorkload(sh sweepShape) workload {
	return workload{name: sh.name, open: func(seed int64, expect []string) (session, error) {
		return openSweep(sh, seed, expect)
	}}
}

func relayWorkload(sh relayShape) workload {
	return workload{name: "relay-live", open: func(seed int64, _ []string) (session, error) {
		return openRelay(sh, seed)
	}}
}

// exactCounts are the per-layer metrics that are counts of simulated work:
// a traced run must repeat them exactly.
var exactCounts = []string{
	"sim.events_per_job", "phy.attempts_per_job", "phy.loss_frac", "mac.attempts_per_frame",
	"ap.enqueued_per_job", "ap.queue_drop_frac", "ap.wasted_frac",
	"client.recovered_per_loss", "client.switches_per_job",
}

func traced(t *testing.T, w workload, seed int64) *result {
	t.Helper()
	res, err := runWorkload(w, runOpts{seed: seed, seconds: time.Second, traced: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s traced run incorrect: %d of %d failed: %v", w.name, res.Failed, res.Attempted, res.notes)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
		}
	}
	return res
}

func TestSmokeSweepCold(t *testing.T) {
	a := traced(t, sweepWorkload(tinyCold), 3)
	b := traced(t, sweepWorkload(tinyCold), 3)
	for _, name := range exactCounts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v; a count must repeat exactly", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	for _, name := range []string{"sim.events_per_job", "core.dual_call_ms", "campaign.cache_store_us", "sim.cpu_self_frac"} {
		if a.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on sweep-cold, want > 0", name, a.Metrics[name].Value)
		}
	}
	// The call spans' self times sum to within 5% of each probed job's
	// wall time.
	for _, r := range []*result{a, b} {
		if gap := r.Metrics["bench.probe_gap_frac"].Value; gap < 0 || gap > 0.05 {
			t.Errorf("probe gap %v: the call spans should cover all but 5%% of each probed job", gap)
		}
	}
}

func TestSmokeSweepWarm(t *testing.T) {
	res := traced(t, sweepWorkload(tinyWarm), 1)
	if res.Metrics["campaign.cache_load_us"].Value <= 0 || res.Metrics["sim.events_per_job"].Value != 0 {
		t.Errorf("warm probe: cache load %v us, %v events per job; want loads and no simulation",
			res.Metrics["campaign.cache_load_us"].Value, res.Metrics["sim.events_per_job"].Value)
	}
}

func TestSmokeFleetHTTP(t *testing.T) {
	res := traced(t, sweepWorkload(tinyFleet), 1)
	for _, name := range []string{"sweep.lease_us", "sweep.complete_server_us", "sweep.complete_req_kb", "scenario.job_scenario_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on fleet-http, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestSmokeRelayLive(t *testing.T) {
	res := traced(t, relayWorkload(tinyRelay), 1)
	if got := res.Metrics["emu.replicator_fanout"].Value; got != 2 {
		t.Errorf("replicator fan-out %v, want exactly 2", got)
	}
	if got := res.Metrics["emu.headdrop_per_outage"].Value; got <= 0 || got > float64(tinyRelay.outage-tinyRelay.depth) {
		t.Errorf("head drops per outage %v, want in (0, %d]", got, tinyRelay.outage-tinyRelay.depth)
	}

	// The timed run prints every end-to-end metric and one result line.
	var out strings.Builder
	if code := report(relayWorkload(tinyRelay), runOpts{seed: 2, seconds: time.Second / 2}, &out, io.Discard); code != 0 {
		t.Fatalf("timed relay run exited %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if len(last.Metrics) != len(endToEnd) || !last.Correct || last.Attempted < 1 {
		t.Fatalf("result %+v", last)
	}
	for _, d := range endToEnd {
		if v := last.Metrics[d.name]; v.Unit != d.unit || v.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}
}

// The gates fire: a wrong committed fingerprint, or one control reply the
// relay never sees, fails the run.
func TestGatesFire(t *testing.T) {
	var log strings.Builder
	corrupt := runOpts{seed: 1, seconds: time.Second / 2, expect: []string{strings.Repeat("0", 32)}}
	short := tinyCold
	short.durationS = 10
	if code := report(sweepWorkload(short), corrupt, io.Discard, &log); code == 0 ||
		!strings.Contains(log.String(), "committed "+strings.Repeat("0", 32)) {
		t.Errorf("a corrupted expected fingerprint exited %d:\n%s", code, log.String())
	}
	log.Reset()
	dropped := tinyRelay
	dropped.dropReplies = 1
	if code := report(relayWorkload(dropped), runOpts{seed: 1, seconds: time.Second / 2}, io.Discard, &log); code == 0 ||
		!strings.Contains(log.String(), "1 control commands unanswered") {
		t.Errorf("a dropped relay reply exited %d:\n%s", code, log.String())
	}
}

// BENCHMARK.json must describe exactly what this program prints.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
