package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.hits")
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterSharedAcrossViews(t *testing.T) {
	r := NewRegistry()
	a := r.WithRun("s1")
	b := r.WithRun("s2")
	a.Counter("shared").Add(3)
	b.Counter("shared").Add(4)
	if got := r.Counter("shared").Value(); got != 7 {
		t.Fatalf("shared counter across views = %d, want 7", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after negative add = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(4)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 9 {
		t.Fatalf("gauge = (%d, max %d), want (2, max 9)", g.Value(), g.Max())
	}
	g.Add(10)
	if g.Value() != 12 || g.Max() != 12 {
		t.Fatalf("gauge after add = (%d, max %d), want (12, max 12)", g.Value(), g.Max())
	}
}

func TestGaugeConcurrentMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hw")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Set(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if g.Max() != 7999 {
		t.Fatalf("gauge max = %d, want 7999", g.Max())
	}
}

// TestNilSafety exercises every method on nil instruments and a nil
// registry: the contract is that all of them are no-ops.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.WithRun("x") != nil {
		t.Error("nil registry WithRun should return nil")
	}
	if r.Run() != "" {
		t.Error("nil registry Run should be empty")
	}
	c := r.Counter("a")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	g := r.Gauge("b")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil gauge should read 0")
	}
	h := r.Histogram("c", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should read 0")
	}
	if (HistSummary{}) != h.Summary() {
		t.Error("nil histogram summary should be zero")
	}
	if r.Tracing() {
		t.Error("nil registry should not be tracing")
	}
	r.SetSink(nil)
	r.Emit(Event{Ev: EvTx})
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	var s *Sink
	s.Write(Event{})
	if s.Written() != 0 || s.Errored() != 0 || s.FirstErr() != nil {
		t.Error("nil sink should read 0")
	}
	if s.Flush() != nil || s.Close() != nil {
		t.Error("nil sink Flush/Close should be nil")
	}
	var se *Series
	se.Tick(1)
	se.Flush()
	if se.Points() != 0 || se.WindowUS() != 0 {
		t.Error("nil series should read 0")
	}
	if d := se.Snapshot(); len(d.Points) != 0 {
		t.Error("nil series snapshot should be empty")
	}
	if NewSeries(nil, 1) != nil {
		t.Error("NewSeries on a nil registry should return nil")
	}
	r.SetSeries(nil)
	if r.Series() != nil {
		t.Error("nil registry Series should be nil")
	}
}

// TestDisabledPathAllocs asserts the acceptance criterion directly: the
// disabled (nil-registry) instrumentation path performs zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	se := r.Series() // nil: no series installed on a nil registry
	var now int64
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(4)
		now++
		se.Tick(now)
		if r.Tracing() {
			r.Emit(Event{Ev: EvTx})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestSeriesInWindowTickAllocs: even with a series installed, ticks that
// stay inside the open window must not allocate — the capture cost is paid
// only at window boundaries.
func TestSeriesInWindowTickAllocs(t *testing.T) {
	r := NewRegistry()
	se := NewSeries(r, 1_000_000)
	r.SetSeries(se)
	var now int64
	allocs := testing.AllocsPerRun(1000, func() {
		now++ // stays far below the first 1 s boundary
		se.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("in-window tick allocates %.1f per op, want 0", allocs)
	}
}

// TestEnabledUntracedAllocs: metrics on, tracing off — still zero allocs
// per operation once instruments are cached.
func TestEnabledUntracedAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(4)
		if r.Tracing() {
			r.Emit(Event{Ev: EvTx})
		}
	})
	if allocs != 0 {
		t.Fatalf("enabled-untraced path allocates %.1f per op, want 0", allocs)
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ap.enqueued").Add(10)
	r.Gauge("ap.queue_depth").Set(3)
	h := r.Histogram("mac.access_wait_us", nil)
	h.Observe(100)
	h.Observe(200)
	out := r.Snapshot().Text()
	for _, want := range []string{"counters:", "ap.enqueued", "10",
		"gauges:", "ap.queue_depth", "histograms:", "mac.access_wait_us", "n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot text missing %q:\n%s", want, out)
		}
	}
	if got := NewRegistry().Snapshot().Text(); !strings.Contains(got, "no metrics") {
		t.Errorf("empty snapshot text = %q", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"a": 1`)) {
		t.Errorf("snapshot JSON missing counter: %s", data)
	}
}

func TestEmitStampsRunLabel(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	sink := NewSink(&buf)
	r.SetSink(sink)
	r.WithRun("s7").Emit(Event{TUS: 1, Ev: EvDrop, Node: "prim", Seq: -1, Attempt: 7})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	ev, err := DecodeEvent(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Run != "s7" {
		t.Fatalf("run label = %q, want s7", ev.Run)
	}
}

// TestVisitOrderAndValues checks the exposition enumeration primitive:
// instruments arrive kind-by-kind in ascending name order with the same
// values a Snapshot would report, and a nil registry visits nothing.
func TestVisitOrderAndValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.ctr").Add(2)
	r.Counter("a.ctr").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Set(3)
	r.Histogram("h", []int64{10}).Observe(4)

	var names []string
	var ctrVals []int64
	var gv GaugeValue
	var hs HistSnapshot
	r.Visit(Visitor{
		Counter:   func(name string, v int64) { names = append(names, name); ctrVals = append(ctrVals, v) },
		Gauge:     func(name string, g GaugeValue) { names = append(names, name); gv = g },
		Histogram: func(name string, h HistSnapshot) { names = append(names, name); hs = h },
	})
	want := []string{"a.ctr", "b.ctr", "g", "h"}
	if len(names) != len(want) {
		t.Fatalf("visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("visited %v, want %v", names, want)
		}
	}
	if ctrVals[0] != 1 || ctrVals[1] != 2 {
		t.Fatalf("counter values %v", ctrVals)
	}
	if gv.Value != 3 || gv.Max != 7 {
		t.Fatalf("gauge = %+v", gv)
	}
	if hs.Count != 1 || hs.Counts[0] != 1 {
		t.Fatalf("hist snapshot = %+v", hs)
	}

	var nilReg *Registry
	nilReg.Visit(Visitor{Counter: func(string, int64) { t.Fatal("nil registry visited an instrument") }})
}

// TestTracingFollowsSink pins the registry's one event consumer: Tracing()
// turns on with a sink and off once it is removed, emitted events are
// run-stamped, nothing is written after removal, and a nil registry's Emit
// is a no-op.
func TestTracingFollowsSink(t *testing.T) {
	r := NewRegistry()
	if r.Tracing() {
		t.Fatal("fresh registry should not report tracing")
	}
	var buf bytes.Buffer
	sink := NewSink(&buf)
	r.SetSink(sink)
	if !r.Tracing() {
		t.Fatal("a sink should flip Tracing() on")
	}
	r.WithRun("s3").Emit(Event{TUS: 1, Ev: EvDrop, Node: "p", Seq: -1, Attempt: 1})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	ev, err := DecodeEvent(bytes.TrimSpace(buf.Bytes()))
	if err != nil || ev.Run != "s3" || sink.Written() != 1 {
		t.Fatalf("sink wrote %d lines, first %+v (err %v); want one run-stamped event",
			sink.Written(), ev, err)
	}

	r.SetSink(nil)
	if r.Tracing() {
		t.Error("Tracing() still on after removing the sink")
	}
	r.Emit(Event{TUS: 2, Ev: EvDrop, Node: "p", Seq: -1, Attempt: 1})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Written() != 1 {
		t.Errorf("removed sink wrote %d events, want 1", sink.Written())
	}

	var nilReg *Registry
	nilReg.Emit(Event{TUS: 3, Ev: EvDrop})
}
