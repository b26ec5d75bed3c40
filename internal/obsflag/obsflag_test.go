package obsflag

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
)

func TestRegisterBindsFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	err := fs.Parse([]string{"-metrics", "m.txt", "-trace", "t.jsonl", "-series", "s.json,500ms", "-pprof", "prof"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Metrics != "m.txt" || f.Trace != "t.jsonl" || f.Series != "s.json,500ms" || f.Pprof != "prof" {
		t.Fatalf("parsed flags: %+v", f)
	}
	if !f.Enabled() {
		t.Fatal("Enabled() = false with metrics+trace set")
	}
	if !(&Flags{Series: "s.json"}).Enabled() {
		t.Fatal("Enabled() = false for series-only flags")
	}
	if (&Flags{Pprof: "p"}).Enabled() {
		t.Fatal("Enabled() = true for pprof-only flags")
	}
}

func TestParseSeriesSpec(t *testing.T) {
	cases := []struct {
		spec     string
		path     string
		windowUS int64
		wantErr  bool
	}{
		{"out.json", "out.json", obs.DefaultSeriesWindowUS, false},
		{"out.json,250ms", "out.json", 250_000, false},
		{"out,2s", "out", 2_000_000, false},
		{"-,100ms", "-", 100_000, false},
		{"out.json,nonsense", "", 0, true},
		{"out.json,0s", "", 0, true},
		{"out.json,-1s", "", 0, true},
	}
	for _, c := range cases {
		path, windowUS, err := parseSeriesSpec(c.spec)
		if (err != nil) != c.wantErr {
			t.Errorf("%q: err = %v, wantErr %v", c.spec, err, c.wantErr)
			continue
		}
		if err == nil && (path != c.path || windowUS != c.windowUS) {
			t.Errorf("%q: parsed (%q, %d), want (%q, %d)", c.spec, path, windowUS, c.path, c.windowUS)
		}
	}
}

func TestSetupInstrumentsSimulators(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		Metrics: filepath.Join(dir, "metrics.json"),
		Trace:   filepath.Join(dir, "trace.jsonl"),
		Pprof:   filepath.Join(dir, "prof"),
	}
	sess, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}

	// Any simulator constructed while the session is live must pick up an
	// instrumented, run-labelled registry through sim.ObsProvider.
	s := sim.New(7)
	if s.Obs() == nil {
		t.Fatal("sim.New did not receive a registry from ObsProvider")
	}
	if run := s.Obs().Run(); run != "s7" {
		t.Fatalf("run label = %q, want s7", run)
	}
	s.Schedule(0, func() {})
	s.Schedule(5, func() {
		s.Obs().Emit(obs.Event{TUS: 5, Ev: obs.EvPlayoutMiss, Node: "client", Seq: 3})
	})
	s.RunAll()

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if sim.ObsProvider != nil {
		t.Error("Close did not uninstall sim.ObsProvider")
	}

	// Metrics snapshot (JSON flavour) must contain the engine counter.
	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sim.events_executed": 2`) {
		t.Errorf("metrics snapshot missing counter:\n%s", data)
	}

	// Trace lines must decode against the schema and carry the run label.
	raw, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	scan := bufio.NewScanner(bytes.NewReader(raw))
	lines := 0
	for scan.Scan() {
		lines++
		ev, err := obs.DecodeEvent(scan.Bytes())
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Run != "s7" {
			t.Errorf("line %d: run = %q, want s7", lines, ev.Run)
		}
	}
	if lines != 1 {
		t.Fatalf("trace has %d lines, want 1", lines)
	}

	// Profiles must exist and be non-empty.
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		st, err := os.Stat(filepath.Join(f.Pprof, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// runInstrumented drives one tiny simulation under the session so counters
// advance and the series collector sees the clock cross window boundaries.
func runInstrumented(t *testing.T) {
	t.Helper()
	s := sim.New(3)
	if s.Obs() == nil {
		t.Fatal("sim.New did not receive a registry from ObsProvider")
	}
	s.Schedule(0, func() {})
	s.Schedule(150_000, func() {})
	s.Schedule(250_000, func() {})
	s.RunAll()
}

func TestSeriesSessionOutputs(t *testing.T) {
	cases := []struct {
		name string
		file string // output file name, "" for stderr
	}{
		{"json", "series.json"},
		{"jsonl", "series.jsonl"},
		{"text", "series.txt"},
		{"stderr", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := "-"
			if c.file != "" {
				path = filepath.Join(dir, c.file)
			}
			f := &Flags{Series: path + ",100ms"}
			sess, err := f.Setup()
			if err != nil {
				t.Fatal(err)
			}
			var errBuf bytes.Buffer
			sess.Stderr = &errBuf
			if sess.Series() == nil {
				t.Fatal("Series() = nil with -series set")
			}
			runInstrumented(t)
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if pts := sess.Series().Points(); pts < 2 {
				t.Errorf("Points() = %d, want >= 2 (ticks at 0/150ms/250ms with 100ms windows)", pts)
			}

			var data []byte
			if c.file == "" {
				data = errBuf.Bytes()
			} else {
				data, err = os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
			}
			switch c.name {
			case "json":
				var dump obs.SeriesDump
				if err := json.Unmarshal(data, &dump); err != nil {
					t.Fatalf("series output is not a SeriesDump: %v", err)
				}
				if dump.Schema != obs.SeriesSchema || dump.WindowUS != 100_000 {
					t.Errorf("dump schema/window = %q/%d, want %q/100000", dump.Schema, dump.WindowUS, obs.SeriesSchema)
				}
				if len(dump.Points) < 2 {
					t.Errorf("dump has %d points, want >= 2", len(dump.Points))
				}
			case "jsonl":
				lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
				if len(lines) < 3 {
					t.Fatalf("JSONL output has %d lines, want header + >= 2 points:\n%s", len(lines), data)
				}
				if !bytes.Contains(lines[0], []byte(`"schema"`)) {
					t.Errorf("JSONL header line missing schema: %s", lines[0])
				}
			default: // text flavours
				if !strings.Contains(string(data), "windows of") {
					t.Errorf("text series output missing header:\n%s", data)
				}
			}
		})
	}
}

func TestMetricsPathDispatch(t *testing.T) {
	// "-" renders the text snapshot to the session's Stderr.
	f := &Flags{Metrics: "-"}
	sess, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf bytes.Buffer
	sess.Stderr = &errBuf
	runInstrumented(t)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := errBuf.String(); !strings.Contains(got, "counters:") || !strings.Contains(got, "sim.events_executed") {
		t.Errorf("stderr metrics output missing text snapshot:\n%s", got)
	}

	// A *.json path gets the JSON encoding, anything else the text table.
	dir := t.TempDir()
	for _, c := range []struct {
		path string
		want string
	}{
		{filepath.Join(dir, "m.json"), `"sim.events_executed"`},
		{filepath.Join(dir, "m.txt"), "counters:"},
	} {
		f := &Flags{Metrics: c.path}
		sess, err := f.Setup()
		if err != nil {
			t.Fatal(err)
		}
		runInstrumented(t)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), c.want) {
			t.Errorf("%s: output missing %q:\n%s", c.path, c.want, data)
		}
	}
}

// TestRepeatSeedRunLabels pins the uniqueness of run labels: paired
// comparisons reuse a seed across simulations, and each instance must get
// its own label or their trace histories would interleave under one key.
func TestRepeatSeedRunLabels(t *testing.T) {
	sess, err := (&Flags{Metrics: "-"}).Setup()
	if err != nil {
		t.Fatal(err)
	}
	sess.Stderr = &bytes.Buffer{}
	defer sess.Close()
	want := []string{"s7", "s7#2", "s7#3"}
	for i, w := range want {
		if got := sim.New(7).Obs().Run(); got != w {
			t.Fatalf("instance %d of seed 7: run label %q, want %q", i+1, got, w)
		}
	}
	if got := sim.New(8).Obs().Run(); got != "s8" {
		t.Errorf("first instance of seed 8: run label %q, want s8", got)
	}
}

func TestSetupRejectsBadSeriesSpec(t *testing.T) {
	if _, err := (&Flags{Series: "out.json,banana"}).Setup(); err == nil {
		t.Error("Setup accepted an unparsable series window")
	}
	if _, err := (&Flags{Series: "out.json,-5ms"}).Setup(); err == nil {
		t.Error("Setup accepted a negative series window")
	}
}

// failWriter fails every write, standing in for a full or yanked disk.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk gone") }

// TestCloseSurfacesSinkErrors pins the contract that trace-write failures,
// which the sink absorbs during a run, become a loud report and a non-nil
// Close error so a truncated trace never looks like success.
func TestCloseSurfacesSinkErrors(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSink(obs.NewSink(failWriter{}))
	// Push enough events through the 64 KiB buffer that flushes start failing
	// before Close.
	for i := 0; i < 3000; i++ {
		reg.Emit(obs.Event{TUS: int64(i), Ev: obs.EvPlayoutMiss, Node: "client", Seq: i})
	}
	var errBuf bytes.Buffer
	sess := &Session{Reg: reg, Stderr: &errBuf, flags: &Flags{}}
	err := sess.Close()
	if err == nil || !strings.Contains(err.Error(), "events lost") {
		t.Fatalf("Close error = %v, want trace-loss report", err)
	}
	if !strings.Contains(err.Error(), "disk gone") {
		t.Errorf("Close error does not carry the first write error: %v", err)
	}
	if !strings.Contains(errBuf.String(), "events lost") {
		t.Errorf("stderr missing the trace-loss report: %q", errBuf.String())
	}
}

func TestCloseSurfacesOutputWriteErrors(t *testing.T) {
	// Pointing an output flag at an existing directory makes the final
	// WriteFile fail; Close must return that error.
	dir := t.TempDir()
	for _, f := range []*Flags{
		{Metrics: dir},
		{Series: dir},
	} {
		sess, err := f.Setup()
		if err != nil {
			t.Fatal(err)
		}
		runInstrumented(t)
		if err := sess.Close(); err == nil {
			t.Errorf("Close with flags %+v wrote to a directory without error", f)
		}
	}
}

func TestInertSession(t *testing.T) {
	sess, err := (&Flags{}).Setup()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Reg != nil {
		t.Error("inert session has a registry")
	}
	if sim.ObsProvider != nil {
		t.Error("inert session installed ObsProvider")
	}
	if err := sess.Close(); err != nil {
		t.Error(err)
	}
	var nilSess *Session
	if err := nilSess.Close(); err != nil {
		t.Error(err)
	}
}

func TestParseFlightSpec(t *testing.T) {
	cases := []struct {
		spec     string
		dir      string
		capacity int
		wantErr  bool
	}{
		{"dumps", "dumps", flight.DefaultCapacity, false},
		{"dumps,64", "dumps", 64, false},
		{"a,b/dumps,128", "a,b/dumps", 128, false},
		{"dumps,0", "", 0, true},
		{"dumps,-3", "", 0, true},
		{"dumps,banana", "", 0, true},
	}
	for _, c := range cases {
		dir, capacity, err := parseFlightSpec(c.spec)
		if (err != nil) != c.wantErr {
			t.Errorf("%q: err = %v, wantErr %v", c.spec, err, c.wantErr)
			continue
		}
		if err == nil && (dir != c.dir || capacity != c.capacity) {
			t.Errorf("%q: parsed (%q, %d), want (%q, %d)", c.spec, dir, capacity, c.dir, c.capacity)
		}
	}
}

// TestFlightSession: -flight arms a recorder sized by the spec, creates the
// dump directory, and stays orthogonal to the trace/metrics registry — a
// flight ring alone needs no instrumentation session.
func TestFlightSession(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dumps")
	f := &Flags{Flight: dir + ",32"}
	if f.Enabled() {
		t.Error("Enabled() = true for flight-only flags")
	}
	sess, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rec := sess.Flight()
	if rec == nil {
		t.Fatal("Flight() = nil with -flight set")
	}
	if rec.Cap() != 32 {
		t.Errorf("ring capacity = %d, want 32", rec.Cap())
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Errorf("dump directory not created: %v", err)
	}
	if sess.Reg != nil {
		t.Error("flight-only session built a registry")
	}

	// The armed ring records and dumps through the standard JSONL path.
	rec.Record(obs.Event{TUS: 1, Ev: obs.EvLeaseGrant, Node: "w0", Seq: 1, Detail: "src=coord span=0:4"})
	path, err := rec.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("dump %q not in the -flight directory %q", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.DecodeEvent(bytes.TrimSpace(data)); err != nil {
		t.Errorf("dump line does not decode as a trace event: %v", err)
	}

	// Defaulted capacity and the nil-session accessors.
	sess2, err := (&Flags{Flight: filepath.Join(t.TempDir(), "d2")}).Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if got := sess2.Flight().Cap(); got != flight.DefaultCapacity {
		t.Errorf("default ring capacity = %d, want %d", got, flight.DefaultCapacity)
	}
	var nilSess *Session
	if nilSess.Flight() != nil {
		t.Error("nil session flight accessor not inert")
	}
}

func TestSetupRejectsBadFlightSpec(t *testing.T) {
	for _, spec := range []string{",64", "dir,banana", "dir,0"} {
		if _, err := (&Flags{Flight: spec}).Setup(); err == nil {
			t.Errorf("Setup accepted -flight %q", spec)
		}
	}
}

// TestSLOSession: -slo arms the engine against the session registry. With
// no -series set, a default-window collector is installed purely to drive
// evaluation, so rules still see window boundaries.
func TestSLOSession(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "rules.yaml")
	doc := "schema: slo-v1\nrules:\n  - name: exec-rate\n    signal: rate(sim.events_executed)\n    max: 0.000001\n"
	if err := os.WriteFile(rules, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &Flags{Slo: rules}
	if !f.Enabled() {
		t.Fatal("Enabled() = false for slo-only flags")
	}
	sess, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.SLO()
	if eng == nil {
		t.Fatal("SLO() = nil with -slo set")
	}
	if eng.RuleSet() == nil || len(eng.RuleSet().Rules) != 1 {
		t.Fatalf("armed ruleset: %+v", eng.RuleSet())
	}
	runInstrumented(t)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushes the driver series, so the engine saw at least one
	// window — and the impossible-rate ceiling above must have fired.
	a := eng.Alerts()
	if a.Windows < 1 {
		t.Fatalf("engine observed %d windows, want >= 1", a.Windows)
	}
	if a.Rules[0].State == "inactive" && a.Rules[0].Fired == 0 {
		t.Errorf("exec-rate never alerted: %+v", a.Rules[0])
	}

	var nilSess *Session
	if nilSess.SLO() != nil {
		t.Error("nil session SLO() not inert")
	}
}

// TestSLOSessionSharesSeries: with both -series and -slo set, the engine
// rides the explicit series collector instead of installing its own.
func TestSLOSessionSharesSeries(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.json")
	doc := `{"schema":"slo-v1","rules":[{"name":"quiet","signal":"gauge(ap.queue_depth)","max":1e12}]}`
	if err := os.WriteFile(rules, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &Flags{Series: filepath.Join(dir, "s.json") + ",100ms", Slo: rules}
	sess, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if sess.sloSeries != nil {
		t.Error("engine installed its own series despite -series being set")
	}
	runInstrumented(t)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if w := sess.SLO().Alerts().Windows; w < 2 {
		t.Errorf("engine observed %d windows over the shared 100ms series, want >= 2", w)
	}
}

// TestSetupRejectsBadSLO pins -slo error propagation: a missing file and
// an invalid document both fail Setup with the offending path named.
func TestSetupRejectsBadSLO(t *testing.T) {
	if _, err := (&Flags{Slo: filepath.Join(t.TempDir(), "nope.yaml")}).Setup(); err == nil {
		t.Error("Setup accepted a missing ruleset file")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("schema: slo-v1\nrules: []\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := (&Flags{Slo: bad}).Setup()
	if err == nil {
		t.Fatal("Setup accepted an empty ruleset")
	}
	if !strings.Contains(err.Error(), "no rules") || !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q should name the violation and the file", err)
	}
}
