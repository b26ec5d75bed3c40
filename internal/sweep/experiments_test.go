package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/stats"
)

// fakeResult is a cheap stand-in for an experiment's result, distinct per
// (experiment, seed).
func fakeResult(j Job) Metrics {
	t := stats.NewTable("t "+j.Name(), "seed")
	t.AddRow(fmt.Sprint(j.Seed))
	return Metrics{Result: &exp.Result{ID: j.Name(), Title: "fake " + j.Name(),
		Tables: []*stats.Table{t}, Notes: []string{"note"}}}
}

// TestExperimentKeysPinned: experiment job keys are the campaign-v1
// addresses the registry cache has always used (computed at the commit
// before the registry ran on the sweep engine), and an entry in that
// cache's encoding resolves as a hit.
func TestExperimentKeysPinned(t *testing.T) {
	for _, c := range []struct {
		doc, want string
	}{
		{`{"name":"k","experiments":["fig2a"],"seeds":{"start":42,"count":1}}`, "baa27e07d544dc20612e5deb4739a58d"},
		{`{"name":"k","experiments":["fig2a"],"n":25,"seeds":{"start":42,"count":1}}`, "af695d7b68ea5d5f85015deb5e6acd5e"},
		{`{"name":"k","experiments":["fig7"],"seeds":{"start":42,"count":1}}`, "d90955c034e2b2a373d496c5593b2725"},
	} {
		j, err := synthSpec(t, c.doc).JobAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Key(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.doc, got, c.want)
		}
	}

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := synthSpec(t, `{"name":"k","experiments":["fig7"],"seeds":{"start":42,"count":1}}`).JobAt(0)
	want := fakeResult(j).Result
	data, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.StoreRaw("d90955c034e2b2a373d496c5593b2725", data); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache, RunFunc: func(Job) Metrics {
		t.Fatal("a cached experiment was executed")
		return Metrics{}
	}}
	m, cached, err := r.Do(j)
	if err != nil || !cached {
		t.Fatalf("old-format entry: cached=%v err=%v", cached, err)
	}
	if !reflect.DeepEqual(m.Result, want) {
		t.Errorf("cached result %+v, want %+v", m.Result, want)
	}
}

// TestExperimentsSpec pins the source's normalization: selectors become
// ids in registry order without duplicates, a normalized spec normalizes
// to itself, and everything that belongs to another source is refused.
func TestExperimentsSpec(t *testing.T) {
	s := synthSpec(t, `{"name":"e","experiments":["fig7","table"," fig7","table1"],"seeds":{"count":2}}`)
	if want := []string{"table1", "table2", "fig7", "table3"}; !reflect.DeepEqual(s.Experiments, want) {
		t.Errorf("normalized experiments %v, want %v", s.Experiments, want)
	}
	if s.Total() != 8 || s.CellCount() != 4 {
		t.Errorf("total %d cells %d, want 8 and 4", s.Total(), s.CellCount())
	}
	if got := s.Grid(); got != "4 experiments × 2 seeds = 8 jobs" {
		t.Errorf("grid %q", got)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if again := synthSpec(t, string(data)); again.Hash() != s.Hash() {
		t.Errorf("normalized spec re-hashes to %s, want %s", again.Hash(), s.Hash())
	}
	if withN := synthSpec(t, `{"name":"e","experiments":["fig7","table"],"n":10,"seeds":{"count":2}}`); withN.Hash() == s.Hash() {
		t.Error("n does not enter the spec hash")
	}

	for _, c := range []struct{ name, doc, wantSub string }{
		{"unknown id", `{"name":"e","experiments":["fig99"],"seeds":{"count":1}}`, "unknown experiment"},
		{"with grid axes", `{"name":"e","experiments":["fig7"],"impairments":["none"],"seeds":{"count":1}}`, "mutually exclusive"},
		{"with scenarios", `{"name":"e","experiments":["fig7"],"scenarios":{},"seeds":{"count":1}}`, "mutually exclusive"},
		{"with profile", `{"name":"e","experiments":["fig7"],"profile":"g711","seeds":{"count":1}}`, "do not apply"},
		{"with duration", `{"name":"e","experiments":["fig7"],"duration_s":5,"seeds":{"count":1}}`, "do not apply"},
		{"with severity", `{"name":"e","experiments":["fig7"],"severity":1,"seeds":{"count":1}}`, "do not apply"},
		{"no seeds", `{"name":"e","experiments":["fig7"]}`, "seeds.count"},
		{"negative n", `{"name":"e","experiments":["fig2a"],"n":-1,"seeds":{"count":1}}`, "n must be"},
		{"empty selection", `{"name":"e","experiments":[""],"seeds":{"count":1}}`, "selects nothing"},
		{"n on a grid", `{"name":"e","n":10,"seeds":{"count":1}}`, "experiments source"},
	} {
		if _, err := ParseSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.wantSub)
		}
	}
}

// TestExperimentsJobAt: the stream is experiment-major, seed-minor, and
// each job's cell is <id>/<kind>/experiment.
func TestExperimentsJobAt(t *testing.T) {
	s := synthSpec(t, `{"name":"e","experiments":["fig7","table1"],"seeds":{"start":5,"count":3}}`)
	var got []string
	for i := int64(0); i < s.Total(); i++ {
		j, err := s.JobAt(i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s/%d", j.Name(), j.Seed))
		if cell := j.CellKey(); cell != j.Name()+"/"+j.Device+"/experiment" {
			t.Errorf("job %d cell %q", i, cell)
		}
	}
	want := []string{"table1/5", "table1/6", "table1/7", "fig7/5", "fig7/6", "fig7/7"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stream %v, want %v", got, want)
	}
	if want := []string{"fig7/figure/experiment", "table1/table/experiment"}; !reflect.DeepEqual(s.CellKeys(), want) {
		t.Errorf("cell keys %v, want %v", s.CellKeys(), want)
	}
}

// runExperimentsSequential is the scheduling-free reference: every job in
// order through one runner, results included.
func runExperimentsSequential(t *testing.T, s *Spec, r *Runner) *Summary {
	t.Helper()
	agg := NewAggregate()
	for i := int64(0); i < s.Total(); i++ {
		j, _ := s.JobAt(i)
		m, _, err := r.Do(j)
		if err != nil {
			t.Fatal(err)
		}
		agg.Observe(j.CellKey(), m)
		agg.ObserveResult(j.Key(), m.Result)
	}
	return Summarize(s, agg)
}

// TestExperimentsSchedulingInvisible: an experiments sweep gives the same
// fingerprint and the same results in job order sequentially, on four
// concurrent workers, and after a dead worker's lease re-queues.
func TestExperimentsSchedulingInvisible(t *testing.T) {
	doc := `{"name":"inv","experiments":["table","fig7","fig1","mbscale"],"seeds":{"start":1,"count":5}}`
	want := runExperimentsSequential(t, synthSpec(t, doc), &Runner{RunFunc: fakeResult})
	if len(want.Results) != 30 {
		t.Fatalf("sequential run has %d results, want 30", len(want.Results))
	}
	check := func(name string, got *Summary) {
		t.Helper()
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("%s: fingerprint %s != sequential %s", name, got.Fingerprint, want.Fingerprint)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: results differ from the sequential run", name)
		}
	}

	c := NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 3})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: fakeResult},
				WorkerOptions{Name: fmt.Sprintf("w%d", n), Parallel: 2}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	check("4 workers", c.Summary())

	c = NewCoordinator(synthSpec(t, doc), CoordinatorOptions{Batch: 7, TTL: 30 * time.Millisecond})
	if doomed := c.Lease("doomed", 7); doomed.LeaseID == "" {
		t.Fatal("doomed worker got no lease")
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := RunWorker(LocalTransport{C: c}, &Runner{RunFunc: fakeResult},
		WorkerOptions{Name: "survivor", Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Releases() < 1 {
		t.Error("the dead worker's lease was never released")
	}
	check("after a dead worker", c.Summary())
}

// TestExperimentsReport: an experiments summary reports its results as
// `experiments all` prints them — calibration plots raw — and survives a
// JSON round trip; its text summary lists the experiments.
func TestExperimentsReport(t *testing.T) {
	s := synthSpec(t, `{"name":"rep","experiments":["fig7","calibrate"],"seeds":{"count":1}}`)
	run := func(j Job) Metrics {
		if j.Name() == "calibrate" {
			return Metrics{Result: &exp.Result{ID: "calibrate", Plots: []string{"raw\n", "plot\n"}}}
		}
		return fakeResult(j)
	}
	sum := runExperimentsSequential(t, s, &Runner{RunFunc: run})
	want := sum.Results[0].Render() + "\n" + "raw\nplot\n"
	data, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Summary{"live": sum, "loaded": back} {
		rep, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Text(); got != want {
			t.Errorf("%s report:\n%q\nwant\n%q", name, got, want)
		}
	}
	text := sum.Text()
	for _, want := range []string{`Campaign "rep"`, "fig7", "calibration", "fingerprint"} {
		if !strings.Contains(text, want) {
			t.Errorf("text summary missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "PCR") {
		t.Errorf("experiments summary renders call metrics:\n%s", text)
	}
}

// TestRunnerRunsInlineWithoutTimeout: without a timeout the job body runs
// on the caller's goroutine; with one it runs on its own.
func TestRunnerRunsInlineWithoutTimeout(t *testing.T) {
	j, _ := synthSpec(t, `{"name":"i","experiments":["fig7"],"seeds":{"count":1}}`).JobAt(0)
	for _, timeout := range []time.Duration{0, time.Minute} {
		inline := false
		r := &Runner{Timeout: timeout, RunFunc: func(j Job) Metrics {
			inline = strings.Contains(string(debug.Stack()), "(*Runner).Do(")
			return fakeResult(j)
		}}
		if _, _, err := r.Do(j); err != nil {
			t.Fatal(err)
		}
		if inline != (timeout == 0) {
			t.Errorf("timeout %s: ran inline = %v", timeout, inline)
		}
	}
}

// TestRunnerNilExperimentResult: an experiment that returns nothing is a
// failed job (after its retry), not an empty cache entry.
func TestRunnerNilExperimentResult(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := synthSpec(t, `{"name":"nil","experiments":["fig7"],"seeds":{"count":1}}`).JobAt(0)
	calls := 0
	r := &Runner{Cache: cache, RunFunc: func(Job) Metrics { calls++; return Metrics{} }}
	if _, _, err := r.Do(j); err == nil || !strings.Contains(err.Error(), "nil result") {
		t.Fatalf("nil result accepted: %v", err)
	}
	if calls != 2 {
		t.Errorf("attempts = %d, want 2", calls)
	}
	if _, ok := cache.LoadRaw(j.Key()); ok {
		t.Error("a failed job was cached")
	}
}
