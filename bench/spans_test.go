package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},  // touches b
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130}, // runs past the parent
		{ID: 6, Parent: 3, Name: "b1", Start: 35, End: 45},
		{ID: 7, Name: "other-root", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	// job: children cover [10,70) and [90,100) = 70 of 100.
	for id, want := range map[int64]int64{1: 30, 2: 30, 3: 20, 4: 10, 5: 40, 6: 10, 7: 5} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	ran := false
	if id := r.timed(0, "x", func() { ran = true }); id != 0 || !ran {
		t.Fatalf("nil recorder: id %d, ran %v", id, ran)
	}
	if r.snapshot() != nil {
		t.Fatal("nil recorder kept spans")
	}
}

func TestSpansJSONLSchema(t *testing.T) {
	r := newRecorder()
	parent := r.id()
	r.timed(parent, "child", func() {})
	r.add(parent, 0, "root", r.t0)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeJSONL(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"id", "parent", "name", "start_ns", "end_ns"} {
			if _, ok := m[k]; !ok {
				t.Errorf("span line %q lacks %q", sc.Text(), k)
			}
		}
		if len(m) != 5 {
			t.Errorf("span line %q has extra keys", sc.Text())
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d span lines, want 2", n)
	}
}
