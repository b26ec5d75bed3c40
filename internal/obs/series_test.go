package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSeriesWindowDeltas(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 1000)
	r.SetSeries(se)
	c := r.Counter("a")
	g := r.Gauge("g")

	c.Add(3)
	g.Set(7)
	se.Tick(10)  // inside window 0: nothing captured
	se.Tick(999) // still inside
	if se.Points() != 0 {
		t.Fatalf("points before first boundary = %d, want 0", se.Points())
	}
	se.Tick(1000) // closes [0, 1000)
	if se.Points() != 1 {
		t.Fatalf("points after boundary = %d, want 1", se.Points())
	}
	c.Add(5)
	se.Tick(3200) // jumps two windows: closes [1000, 3000) as one point
	se.Flush()    // tail [3000, 3200]

	d := se.Snapshot()
	if len(d.Points) != 3 {
		t.Fatalf("points = %d, want 3\n%+v", len(d.Points), d.Points)
	}
	p0, p1, p2 := d.Points[0], d.Points[1], d.Points[2]
	if p0.StartUS != 0 || p0.EndUS != 1000 || p0.Counters["a"] != 3 || p0.Gauges["g"] != 7 {
		t.Errorf("window 0 = %+v", p0)
	}
	if p1.StartUS != 1000 || p1.EndUS != 3000 || p1.Counters["a"] != 5 {
		t.Errorf("window 1 = %+v", p1)
	}
	if p2.StartUS != 3000 || p2.EndUS != 3200 {
		t.Errorf("tail window = %+v", p2)
	}
	if len(p2.Counters) != 0 {
		t.Errorf("tail window should have no deltas: %+v", p2.Counters)
	}
}

func TestSeriesHistogramSubSnapshots(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 1000)
	h := r.Histogram("lat", nil)

	h.Observe(100)
	h.Observe(150)
	se.Tick(1000)
	h.Observe(40_000)
	se.Tick(2000)

	d := se.Snapshot()
	if len(d.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(d.Points))
	}
	w0 := d.Points[0].Histograms["lat"]
	if w0.Count != 2 || w0.Mean != 125 {
		t.Errorf("window 0 hist = %+v, want count 2 mean 125", w0)
	}
	w1 := d.Points[1].Histograms["lat"]
	if w1.Count != 1 || w1.Mean != 40_000 {
		t.Errorf("window 1 hist = %+v, want count 1 mean 40000", w1)
	}
	// The lone 40 ms observation sits in the (20000, 50000] bucket; its
	// quantiles must interpolate inside that bucket, not drag in the first
	// window's sub-millisecond values.
	if w1.P50 <= 20_000 || w1.P50 > 50_000 {
		t.Errorf("window 1 p50 = %d, want within (20000, 50000]", w1.P50)
	}
}

func TestSeriesDumpEncodings(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 500)
	r.Counter("x").Inc()
	se.Tick(500)

	d := se.Snapshot()
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesDump
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Schema != SeriesSchema || back.WindowUS != 500 || len(back.Points) != 1 {
		t.Fatalf("round-tripped dump = %+v", back)
	}

	jl, err := d.JSONL()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(jl, "\n"), []byte("\n"))
	if len(lines) != 2 { // header + one point
		t.Fatalf("JSONL lines = %d, want 2:\n%s", len(lines), jl)
	}

	txt := d.Text()
	if !strings.Contains(txt, "x=1") || !strings.Contains(txt, "1 windows of 0ms") {
		t.Errorf("series text = %q", txt)
	}
	if got := (&SeriesDump{}).Text(); !strings.Contains(got, "no series points") {
		t.Errorf("empty dump text = %q", got)
	}
}

func TestSeriesFlushWithoutTicks(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 1000)
	r.Counter("only").Add(2)
	se.Flush()
	d := se.Snapshot()
	if len(d.Points) != 1 || d.Points[0].Counters["only"] != 2 {
		t.Fatalf("flush-only dump = %+v", d.Points)
	}
}

func TestSinkFirstErr(t *testing.T) {
	s := NewSink(failWriter{})
	// The sink buffers 64 KiB; push enough events to force mid-write
	// flushes so the write error surfaces as dropped events.
	ev := Event{TUS: 1, Ev: EvDrop, Node: "p", Seq: -1, Attempt: 1}
	for i := 0; i < 3000; i++ {
		s.Write(ev)
	}
	if s.Errored() == 0 {
		t.Fatal("no errored writes recorded against a failing writer")
	}
	if err := s.FirstErr(); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("FirstErr = %v, want the writer's error", err)
	}
	if err := s.Close(); err == nil {
		t.Error("Close on a failing writer should return the flush error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errDiskGone
}

var errDiskGone = &diskGoneError{}

type diskGoneError struct{}

func (*diskGoneError) Error() string { return "disk gone" }

// TestSeriesOnCapture pins the window-callback contract the SLO engine
// builds on: the callback observes every captured point in order —
// boundary crossings and the final Flush partial — with the same deltas
// the dump records, and a nil series ignores the installation.
func TestSeriesOnCapture(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 1000)
	var got []SeriesPoint
	se.OnCapture(func(p SeriesPoint) { got = append(got, p) })

	c := r.Counter("net.drops")
	c.Inc()
	se.Tick(500)  // inside window 1: no capture
	se.Tick(1000) // boundary: captures [0,1000)
	c.Add(2)
	se.Tick(2500) // crosses window 2: captures [1000,2000)
	se.Flush()    // partial [2000,2500)

	if len(got) != 3 {
		t.Fatalf("captured %d points, want 3: %+v", len(got), got)
	}
	if got[0].EndUS != 1000 || got[0].Counters["net.drops"] != 1 {
		t.Errorf("point 0 = %+v", got[0])
	}
	if got[1].EndUS != 2000 || got[1].Counters["net.drops"] != 2 {
		t.Errorf("point 1 = %+v", got[1])
	}
	if got[2].StartUS != 2000 || got[2].EndUS != 2500 || len(got[2].Counters) != 0 {
		t.Errorf("flush point = %+v", got[2])
	}

	var nilSe *Series
	nilSe.OnCapture(func(SeriesPoint) { t.Error("callback on nil series invoked") })
	nilSe.Tick(100)
	nilSe.Flush()
}
