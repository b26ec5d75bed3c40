package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const scenarioTestDoc = `{
  "schema": "scenario-v1",
  "name": "cli-corpus",
  "seed": 11,
  "count": 5,
  "duration_s": 5,
  "corpus": {"severity": [0.5, 1.5]}
}`

func writeScenarioSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(scenarioTestDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioValidate(t *testing.T) {
	path := writeScenarioSpec(t)
	var out, errOut bytes.Buffer
	if err := runScenarioMode([]string{"validate", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ok ", "name=cli-corpus", "count=5", "hash="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("validate output missing %q: %q", want, out.String())
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"scenario-v1","name":"x","duration_s":-1,"corpus":{}}`), 0o644)
	err := runScenarioMode([]string{"validate", bad}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "duration_s") {
		t.Errorf("invalid spec: err = %v, want a duration_s complaint", err)
	}
}

func TestScenarioGen(t *testing.T) {
	path := writeScenarioSpec(t)
	var out, errOut bytes.Buffer
	if err := runScenarioMode([]string{"gen", path, "-n", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("gen -n 3 emitted %d lines", len(lines))
	}
	for i, line := range lines {
		var rec genRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Index != i {
			t.Errorf("line %d: index %d", i, rec.Index)
		}
		if rec.Params.Duration == 0 || rec.Device == "" || rec.Impairment == "" {
			t.Errorf("line %d: incomplete record %+v", i, rec)
		}
	}

	// -out writes one file per scenario.
	dir := filepath.Join(t.TempDir(), "corpus")
	out.Reset()
	if err := runScenarioMode([]string{"gen", path, "-out", dir}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("gen -out wrote %d files, want 5", len(entries))
	}
	if !strings.Contains(out.String(), "wrote 5 scenarios") {
		t.Errorf("gen -out summary: %q", out.String())
	}

	// The committed office corpus generates to pinned bytes: field names,
	// field order and every drawn value of all 100 records.
	out.Reset()
	if err := runScenarioMode([]string{"gen", "../../examples/scenarios/corpus-office.yaml"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	const officeSHA = "b5f7562f6e5bf1c9254083b0a89608556ed26a2df5147c55c1863443fcd6454d"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != officeSHA {
		t.Errorf("gen corpus-office.yaml: sha256 %s, want %s", got, officeSHA)
	}
}

func TestScenarioRun(t *testing.T) {
	path := writeScenarioSpec(t)
	var out, errOut bytes.Buffer
	if err := runScenarioMode([]string{"run", path, "-i", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"cli-corpus[1]", "stronger", "cross", "diversifi", "MOS="} {
		if !strings.Contains(text, want) {
			t.Errorf("run output missing %q:\n%s", want, text)
		}
	}
	if err := runScenarioMode([]string{"run", path, "-i", "9"}, &out, &errOut); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestScenarioUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{{}, {"bogus"}, {"validate"}, {"gen"}, {"run", "a", "b"}} {
		err := runScenarioMode(args, &out, &errOut)
		if _, ok := err.(usageError); !ok {
			t.Errorf("args %v: err = %v, want usageError", args, err)
		}
	}
}
