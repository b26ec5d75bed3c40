package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestAttributeTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim":      600 * time.Millisecond, // innermost repo frame of the leaf
		"rng":      200 * time.Millisecond, // an allocation is its caller's cost
		"obs":      100 * time.Millisecond, // obs/expose folds into obs
		"runtime":  50 * time.Millisecond,  // a GC worker: only runtime frames
		"bench":    150 * time.Millisecond, // the benchmark's own receive loop
		"other":    110 * time.Millisecond, // HTTP plumbing, and an unlisted module
		"scenario": 50 * time.Millisecond,  // scenario/stattest folds into scenario
	}
	for m, d := range want {
		if got[m] != d {
			t.Errorf("%s: %v, want %v", m, got[m], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	sh := shares(got)
	total := 0.0
	for _, m := range cpuModules {
		v, ok := sh[m]
		if !ok {
			t.Errorf("shares lack %s", m)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 || math.Abs(sh["sim"]-600.0/1260) > 1e-9 {
		t.Errorf("shares sum to %v, sim %v", total, sh["sim"])
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	bad := "-----------+----\n   tenms   repro/internal/sim.X\n"
	if _, err := parseTraces(strings.NewReader(bad)); err == nil {
		t.Fatal("a malformed sample value parsed")
	}
}

func TestSampleValueUnits(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.20s": 1200 * time.Millisecond,
		"500us": 500 * time.Microsecond, "2mins": 2 * time.Minute,
	} {
		if got, err := parseSampleValue(in); err != nil || got != want {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
