package flight

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func fleetEvent(i int) obs.Event {
	return obs.Event{TUS: int64(i), Ev: obs.EvFleetHeartbeat, Run: "fleet/test",
		Node: "w0", Seq: 1, Detail: "src=worker"}
}

func TestRingKeepsLastN(t *testing.T) {
	r := New("", 4)
	for i := 0; i < 10; i++ {
		r.Record(fleetEvent(i))
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d, want 4/4", r.Len(), r.Cap())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.TUS != want {
			t.Errorf("event %d has t=%d, want %d (oldest-first last-N)", i, ev.TUS, want)
		}
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r := New("", 8)
	for i := 0; i < 3; i++ {
		r.Record(fleetEvent(i))
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.TUS != int64(i) {
			t.Errorf("event %d has t=%d, want %d", i, ev.TUS, i)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(fleetEvent(0))
	if r.Len() != 0 || r.Total() != 0 || r.Cap() != 0 || r.Events() != nil {
		t.Error("nil recorder should report empty state")
	}
	path, err := r.Dump("x")
	if err != nil || path != "" {
		t.Errorf("nil Dump = (%q, %v), want empty no-op", path, err)
	}
}

// TestDisabledRecordAddsNoAllocs pins the zero-cost contract: recording
// into a disabled (nil) flight recorder must not allocate. The enabled
// path must not allocate either — the ring is preallocated — so recording
// is safe in per-job hot loops.
func TestDisabledRecordAddsNoAllocs(t *testing.T) {
	ev := fleetEvent(1)
	var disabled *Recorder
	if n := testing.AllocsPerRun(1000, func() { disabled.Record(ev) }); n != 0 {
		t.Errorf("disabled Record allocates %.1f/op, want 0", n)
	}
	enabled := New("", 16)
	if n := testing.AllocsPerRun(1000, func() { enabled.Record(ev) }); n != 0 {
		t.Errorf("enabled Record allocates %.1f/op, want 0", n)
	}
}

// TestDumpIsValidTrace holds a dump to the trace contract: every line must
// pass the strict decoder, oldest-first.
func TestDumpIsValidTrace(t *testing.T) {
	r := New("", 8)
	for i, ev := range obs.SampleFleetEvents() {
		_ = i
		r.Record(ev)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []obs.Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		ev, err := obs.DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("dump line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	want := obs.SampleFleetEvents()
	if len(got) != len(want) {
		t.Fatalf("dump has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestDumpFileNamingAndCollisions(t *testing.T) {
	dir := t.TempDir()
	r := New(dir, 4)
	r.Record(fleetEvent(1))
	p1, err := r.Dump("expire-w0/L7")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-expire-w0-L7.jsonl"); p1 != want {
		t.Errorf("dump path = %q, want %q (sanitized tag)", p1, want)
	}
	p2, err := r.Dump("expire-w0/L7")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Errorf("second dump reused %q; collisions must get a fresh suffix", p1)
	}
	if !strings.HasSuffix(p2, "-2.jsonl") {
		t.Errorf("second dump = %q, want -2 suffix", p2)
	}
	for _, p := range []string{p1, p2} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("dump %q missing: %v", p, err)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New("", 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(fleetEvent(i))
			}
		}()
	}
	wg.Wait()
	if r.Total() != 8*500 {
		t.Fatalf("total = %d, want %d", r.Total(), 8*500)
	}
	if r.Len() != 32 {
		t.Fatalf("len = %d, want 32", r.Len())
	}
}
