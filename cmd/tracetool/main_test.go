package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// exec runs the CLI entry point and captures its streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, strings.NewReader(""), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestGoldenOutputs pins the exact bytes of every subcommand's text and JSON
// output over the checked-in fixture traces. Regenerate after a deliberate
// format change with
//
//	go test ./cmd/tracetool -run TestGoldenOutputs -update
//
// and review the diff like any other contract change.
func TestGoldenOutputs(t *testing.T) {
	sample := filepath.Join("testdata", "sample.trace.jsonl")
	dirty := filepath.Join("testdata", "dirty.trace.jsonl")
	fleet := filepath.Join("testdata", "fleet.trace.jsonl")
	fleetDirty := filepath.Join("testdata", "fleet-dirty.trace.jsonl")
	sloTrace := filepath.Join("testdata", "slo.trace.jsonl")
	sloDirty := filepath.Join("testdata", "slo-dirty.trace.jsonl")
	// A real simulation trace, pinned by the simtest golden harness: the
	// chrome export of a byte-stable input must itself be byte-stable.
	simtrace := filepath.Join("..", "..", "internal", "simtest", "testdata", "head-drop-recovery.trace.jsonl")
	cases := []struct {
		golden   string
		args     []string
		wantCode int
	}{
		{"episodes.txt", []string{"episodes", sample}, 0},
		{"episodes.json", []string{"episodes", "-json", sample}, 0},
		{"summary.txt", []string{"summary", sample}, 0},
		{"summary.json", []string{"summary", "-json", sample}, 0},
		{"series.txt", []string{"series", "-window", "50ms", sample}, 0},
		{"lint.txt", []string{"lint", sample, dirty}, 1},
		{"chrome.json", []string{"export", "-format", "chrome", sample}, 0},
		{"chrome-head-drop.json", []string{"export", simtrace}, 0},
		{"fleet.txt", []string{"episodes", fleet}, 0},
		{"fleet.json", []string{"episodes", "-json", fleet}, 0},
		{"fleet-dirty.txt", []string{"episodes", fleet, fleetDirty}, 1},
		{"fleet-chrome.json", []string{"export", fleet}, 0},
		{"slo.txt", []string{"episodes", sloTrace}, 0},
		{"slo.json", []string{"episodes", "-json", sloTrace}, 0},
		{"slo-dirty.txt", []string{"episodes", sloTrace, sloDirty}, 1},
		{"slo-chrome.json", []string{"export", sloTrace}, 0},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			code, out, errOut := exec(t, c.args...)
			if code != c.wantCode {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, c.wantCode, errOut)
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s — if intended, re-run with -update and review\ngot:\n%s\nwant:\n%s",
					path, out, want)
			}
		})
	}
}

func TestLintExitCodes(t *testing.T) {
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "sample.trace.jsonl")); code != 0 {
		t.Errorf("lint on clean trace exited %d", code)
	}
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "dirty.trace.jsonl")); code != 1 {
		t.Errorf("lint on dirty trace exited %d, want 1", code)
	}
	if code, out, _ := exec(t, "episodes", filepath.Join("testdata", "dirty.trace.jsonl")); code != 1 ||
		!strings.Contains(out, "lint: 4 violations") {
		t.Errorf("episodes on dirty trace exited %d, want 1 with the lint verdict:\n%s", code, out)
	}
	if code, _, _ := exec(t, "lint", filepath.Join("testdata", "no-such-file.jsonl")); code != 1 {
		t.Errorf("lint on missing file exited %d, want 1", code)
	}
	if code, _, _ := exec(t); code != 2 {
		t.Errorf("no-args exited %d, want 2", code)
	}
	if code, _, _ := exec(t, "frobnicate"); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
	if code, _, _ := exec(t, "help"); code != 0 {
		t.Errorf("help exited %d, want 0", code)
	}
}

func TestStdinInput(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sample.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{"lint", "-"}, bytes.NewReader(data), &out, &out)
	if code != 0 || !strings.Contains(out.String(), "clean") {
		t.Fatalf("lint over stdin: code %d, out %q", code, out.String())
	}
}

func TestExportToFileAndErrors(t *testing.T) {
	sample := filepath.Join("testdata", "sample.trace.jsonl")
	outPath := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := exec(t, "export", "-o", outPath, sample)
	if code != 0 || stdout != "" {
		t.Fatalf("export -o: code %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Error("export -o output differs from stdout golden")
	}

	if code, _, stderr := exec(t, "export", "-format", "svg", sample); code != 2 ||
		!strings.Contains(stderr, "unknown export format") {
		t.Errorf("bad format: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := exec(t, "export", sample, sample); code != 2 {
		t.Errorf("two files: code %d, want usage error", code)
	}
	if code, _, stderr := exec(t, "export", filepath.Join("testdata", "no-such.jsonl")); code != 1 ||
		stderr == "" {
		t.Errorf("missing file: code %d, stderr %q", code, stderr)
	}
}

// simtestGoldens returns the seeded-equivalence golden traces checked in
// under internal/simtest/testdata.
func simtestGoldens(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "internal", "simtest", "testdata", "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 6 {
		t.Fatalf("expected the six simtest golden traces, found %d: %v", len(paths), paths)
	}
	return paths
}

// TestSimtestGoldensLintClean is the acceptance gate: every golden trace of
// the seeded-equivalence harness passes the linter.
func TestSimtestGoldensLintClean(t *testing.T) {
	code, out, errOut := exec(t, append([]string{"lint"}, simtestGoldens(t)...)...)
	if code != 0 {
		t.Fatalf("lint over simtest goldens exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

// TestSimtestGoldenEpisodesMatchMetrics is the acceptance gate for episode
// reconstruction: `tracetool episodes -json` over each golden trace must
// reproduce that scenario's metric snapshot bit-identically —
// client.recovery_switches / client.keepalive_switches as episode counts,
// the client.recovery_delay_us histogram's count/min/max as the
// switch→first-retrieval delay stats, and client.recovered /
// client.playout_misses as the retrieval totals.
func TestSimtestGoldenEpisodesMatchMetrics(t *testing.T) {
	for _, tracePath := range simtestGoldens(t) {
		name := strings.TrimSuffix(filepath.Base(tracePath), ".trace.jsonl")
		t.Run(name, func(t *testing.T) {
			code, out, errOut := exec(t, "episodes", "-json", tracePath)
			if code != 0 {
				t.Fatalf("episodes exited %d: %s", code, errOut)
			}
			var got struct {
				Recoveries    int64              `json:"recoveries"`
				Keepalives    int64              `json:"keepalives"`
				Unclosed      int64              `json:"unclosed"`
				Retrieved     int64              `json:"retrieved"`
				RecoveryDelay analyze.DelayStats `json:"recovery_delay"`
			}
			if err := json.Unmarshal([]byte(out), &got); err != nil {
				t.Fatalf("parse episodes JSON: %v", err)
			}

			metricsPath := strings.TrimSuffix(tracePath, ".trace.jsonl") + ".metrics.json"
			data, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			var metrics struct {
				Counters   map[string]int64 `json:"counters"`
				Histograms map[string]struct {
					Count int64 `json:"count"`
					Min   int64 `json:"min"`
					Max   int64 `json:"max"`
				} `json:"histograms"`
			}
			if err := json.Unmarshal(data, &metrics); err != nil {
				t.Fatal(err)
			}

			if want := metrics.Counters["client.recovery_switches"]; got.Recoveries != want {
				t.Errorf("recoveries = %d, metrics say %d", got.Recoveries, want)
			}
			if want := metrics.Counters["client.keepalive_switches"]; got.Keepalives != want {
				t.Errorf("keepalives = %d, metrics say %d", got.Keepalives, want)
			}
			if want := metrics.Counters["client.recovered"]; got.Retrieved != want {
				t.Errorf("retrieved = %d, metrics say %d", got.Retrieved, want)
			}
			if got.Unclosed != 0 {
				t.Errorf("unclosed episodes = %d, want 0", got.Unclosed)
			}
			hist := metrics.Histograms["client.recovery_delay_us"]
			if got.RecoveryDelay.Count != hist.Count {
				t.Errorf("recovery delay count = %d, histogram says %d", got.RecoveryDelay.Count, hist.Count)
			}
			if hist.Count > 0 {
				if got.RecoveryDelay.MinUS != hist.Min || got.RecoveryDelay.MaxUS != hist.Max {
					t.Errorf("recovery delay min/max = %d/%d, histogram says %d/%d",
						got.RecoveryDelay.MinUS, got.RecoveryDelay.MaxUS, hist.Min, hist.Max)
				}
			}
		})
	}
}

// TestFleetFamily pins the fleet section's exit-code and smoke-grep
// contract: scripts/sweep-smoke.sh greps the "fleet lint: clean" verdict
// and the "expire->re-lease episodes" line of `tracetool episodes` after
// killing a worker, so both handles must stay stable.
func TestFleetFamily(t *testing.T) {
	fleet := filepath.Join("testdata", "fleet.trace.jsonl")
	fleetDirty := filepath.Join("testdata", "fleet-dirty.trace.jsonl")

	code, out, _ := exec(t, "episodes", fleet)
	if code != 0 {
		t.Fatalf("episodes on clean fleet trace exited %d", code)
	}
	if !strings.Contains(out, "fleet lint: clean") {
		t.Errorf("clean trace output missing lint verdict:\n%s", out)
	}
	if !strings.Contains(out, "expire->re-lease episodes: 1") {
		t.Errorf("output missing the smoke-grep episode line:\n%s", out)
	}
	if strings.Contains(out, "episodes: "+fleet) {
		t.Errorf("fleet-only trace printed a packet section:\n%s", out)
	}

	code, out, _ = exec(t, "episodes", "-json", fleet)
	if code != 0 {
		t.Fatalf("episodes -json exited %d", code)
	}
	var rep struct {
		Episodes   int64 `json:"expire_release_episodes"`
		Violations int64 `json:"total_violations"`
		Grants     int64 `json:"grants"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("parse fleet JSON: %v", err)
	}
	if rep.Episodes != 1 || rep.Violations != 0 || rep.Grants != 2 {
		t.Errorf("fleet JSON episodes/violations/grants = %d/%d/%d, want 1/0/2",
			rep.Episodes, rep.Violations, rep.Grants)
	}

	for _, cmd := range []string{"episodes", "lint"} {
		if code, _, _ := exec(t, cmd, fleetDirty); code != 1 {
			t.Errorf("%s on dirty fleet trace exited %d, want 1", cmd, code)
		}
	}
	if code, _, _ := exec(t, "episodes", filepath.Join("testdata", "no-such.jsonl")); code != 1 {
		t.Errorf("episodes on missing file exited %d, want 1", code)
	}

	// The links table holds packet nodes only, so workers are not links.
	if _, out, _ := exec(t, "summary", fleet); strings.Contains(out, "fleet/1a2b3c4d/w0") {
		t.Errorf("summary lists a fleet worker as a link:\n%s", out)
	}

	// Stdin input works for the report path.
	data, err := os.ReadFile(fleet)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"episodes", "-"}, bytes.NewReader(data), &buf, &buf); code != 0 ||
		!strings.Contains(buf.String(), "fleet lint: clean") {
		t.Fatalf("episodes over stdin: code %d, out %q", code, buf.String())
	}
}

// TestSLOFamily pins the slo section's exit-code contract and the handles
// scripts/slo-smoke.sh greps: the per-rule episode accounting and the
// "slo lint: clean" verdict line.
func TestSLOFamily(t *testing.T) {
	sloTrace := filepath.Join("testdata", "slo.trace.jsonl")
	sloDirty := filepath.Join("testdata", "slo-dirty.trace.jsonl")

	code, out, _ := exec(t, "episodes", sloTrace)
	if code != 0 {
		t.Fatalf("episodes on clean slo trace exited %d", code)
	}
	if !strings.Contains(out, "slo lint: clean") {
		t.Errorf("clean trace output missing lint verdict:\n%s", out)
	}
	if !strings.Contains(out, "mos-floor") || !strings.Contains(out, "resolved") {
		t.Errorf("output missing the episode table:\n%s", out)
	}

	code, out, _ = exec(t, "episodes", "-json", sloTrace)
	if code != 0 {
		t.Fatalf("episodes -json exited %d", code)
	}
	var rep struct {
		SLOEvents  int64 `json:"slo_events"`
		Violations int64 `json:"total_violations"`
		Rules      map[string]struct {
			Episodes int64 `json:"episodes"`
			Fired    int64 `json:"fired"`
			Open     int64 `json:"open"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("parse slo JSON: %v", err)
	}
	if rep.SLOEvents != 4 || rep.Violations != 0 {
		t.Errorf("slo JSON events/violations = %d/%d, want 4/0", rep.SLOEvents, rep.Violations)
	}
	if r := rep.Rules["mos-floor"]; r.Episodes != 1 || r.Fired != 1 {
		t.Errorf("mos-floor = %+v", r)
	}
	if r := rep.Rules["miss-rate"]; r.Open != 1 {
		t.Errorf("miss-rate = %+v", r)
	}

	for _, cmd := range []string{"episodes", "lint"} {
		if code, _, _ := exec(t, cmd, sloDirty); code != 1 {
			t.Errorf("%s on dirty slo trace exited %d, want 1", cmd, code)
		}
	}
	if code, _, _ := exec(t, "episodes", filepath.Join("testdata", "no-such.jsonl")); code != 1 {
		t.Errorf("episodes on missing file exited %d, want 1", code)
	}

	data, err := os.ReadFile(sloTrace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"episodes", "-"}, bytes.NewReader(data), &buf, &buf); code != 0 ||
		!strings.Contains(buf.String(), "slo lint: clean") {
		t.Fatalf("episodes over stdin: code %d, out %q", code, buf.String())
	}
}

// TestMixedFamilies: a trace carrying packet and slo events prints both
// sections, in family order, and -json one document per family.
func TestMixedFamilies(t *testing.T) {
	var mixed []byte
	for _, name := range []string{"sample.trace.jsonl", "slo.trace.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		mixed = append(mixed, data...)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"episodes", "-"}, bytes.NewReader(mixed), &out, &errBuf); code != 0 {
		t.Fatalf("episodes on mixed trace exited %d: %s", code, errBuf.String())
	}
	text := out.String()
	packets, slo := strings.Index(text, "episodes: -"), strings.Index(text, "slo lint: clean")
	if packets < 0 || slo < packets {
		t.Errorf("want the packet section, then the slo section:\n%s", text)
	}

	out.Reset()
	if code := run([]string{"episodes", "-json", "-"}, bytes.NewReader(mixed), &out, &errBuf); code != 0 {
		t.Fatalf("episodes -json on mixed trace exited %d", code)
	}
	dec := json.NewDecoder(&out)
	var docs []map[string]any
	for {
		var doc map[string]any
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("parse JSON stream: %v", err)
		}
		docs = append(docs, doc)
	}
	if len(docs) != 2 || docs[0]["recoveries"] == nil || docs[1]["slo_events"] == nil {
		t.Errorf("want a packet document then an slo document, got %v", docs)
	}
}

// TestLintKeysFleetOrderBySrc: a local sweep writes the coordinator's and
// the worker's narration of one node into one file. They are separate
// ordering streams, so a worker event stamped before the coordinator's
// latest one is not an order violation.
func TestLintKeysFleetOrderBySrc(t *testing.T) {
	trace := filepath.Join("testdata", "fleet-mixed-src.trace.jsonl")
	code, out, _ := exec(t, "lint", trace)
	if code != 0 || out != trace+": 4 events, clean\n" {
		t.Errorf("lint: code %d, out %q", code, out)
	}
	if code, out, _ := exec(t, "episodes", trace); code != 0 || !strings.Contains(out, "fleet lint: clean") {
		t.Errorf("episodes: code %d, out %q", code, out)
	}
}

// TestLongLines: every subcommand reads lines up to 4 MiB, export included.
func TestLongLines(t *testing.T) {
	line, err := json.Marshal(obs.Event{TUS: 1, Ev: obs.EvRetry, Run: "r", Node: "prim", Seq: -1,
		Attempt: 1, Detail: strings.Repeat("x", 2<<20)})
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"lint", "episodes", "summary", "export"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{cmd, "-"}, bytes.NewReader(line), &out, &errBuf); code != 0 {
			t.Errorf("%s on a 2 MiB line exited %d: %s", cmd, code, errBuf.String())
		}
		if cmd == "export" && !json.Valid(out.Bytes()) {
			t.Error("export of a 2 MiB line is not valid JSON")
		}
	}
}
