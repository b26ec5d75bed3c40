// Package obs is the observability layer of the DiversiFi reproduction: a
// lightweight, allocation-conscious metrics and event-tracing subsystem
// shared by the simulation substrates (sim, phy, mac, ap, client), the
// experiment runners, and the campaign scheduler.
//
// It provides three instrument kinds — atomic Counters, Gauges with
// high-water tracking, and fixed-bucket Histograms with p50/p95/p99
// summaries — plus an optional per-run JSONL trace Sink that records typed
// packet-level events (tx, retry, drop, head-drop, link-switch,
// retrieve-from-secondary, playout-miss) with simulated timestamps.
//
// The whole API is nil-safe: every method on a nil *Registry, *Counter,
// *Gauge, or *Histogram is a no-op (or returns a zero value), so
// instrumented code needs no "is observability on?" branches and the
// disabled path adds no allocations to the simulator's hot loop (see
// bench_test.go). Instruments are safe for concurrent use; a campaign
// running many simulations in parallel can share one Registry and have the
// counters aggregate across the fleet.
//
// Metric names, histogram buckets, and the trace event schema are a
// documented contract: see docs/OBSERVABILITY.md. Experiment tooling may
// depend on those names and shapes; changing them is a breaking change to
// that contract.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores updates and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any non-negative value; negative deltas are ignored
// to keep counters monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value with a high-water mark. The zero value is
// ready to use; a nil Gauge ignores updates and reads as zero.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add shifts the current value by delta and updates the high-water mark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last value set.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark since creation.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// regCore is the shared state behind one Registry and all of its WithRun
// views: the instrument tables, the optional trace sink, and the optional
// time-windowed series collector.
type regCore struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sink     atomic.Pointer[Sink]
	series   atomic.Pointer[Series]
}

// Registry is the root of the observability layer: a named-instrument
// table plus an optional trace sink. A nil *Registry is a valid "disabled"
// registry — every method is a cheap no-op — so components accept and store
// one unconditionally.
//
// WithRun returns a view of the same registry that stamps a run label on
// every emitted trace event; instruments are shared between views, so
// metrics aggregate across runs while traces stay attributable.
type Registry struct {
	core *regCore
	run  string
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &regCore{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}}
}

// WithRun returns a view of r whose emitted events carry the given run
// label (e.g. "s42" for the simulation seeded with 42). Instruments and
// the sink are shared with r. WithRun on a nil registry returns nil.
func (r *Registry) WithRun(run string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{core: r.core, run: run}
}

// Run returns the registry view's run label.
func (r *Registry) Run() string {
	if r == nil {
		return ""
	}
	return r.run
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) on a nil registry. Callers on hot paths should
// look instruments up once and cache the pointer.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.RLock()
	ctr := c.counters[name]
	c.mu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr = c.counters[name]; ctr == nil {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.RLock()
	g := c.gauges[name]
	c.mu.RUnlock()
	if g != nil {
		return g
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if g = c.gauges[name]; g == nil {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (ascending; nil selects DefaultLatencyBounds).
// Bounds are fixed at creation: later callers get the existing histogram
// regardless of the bounds they pass. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.RLock()
	h := c.hists[name]
	c.mu.RUnlock()
	if h != nil {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h = c.hists[name]; h == nil {
		h = newHistogram(bounds)
		c.hists[name] = h
	}
	return h
}

// SetSink installs the trace sink (nil removes it). Safe to call
// concurrently with Emit.
func (r *Registry) SetSink(s *Sink) {
	if r == nil {
		return
	}
	r.core.sink.Store(s)
}

// Sink returns the installed trace sink, or nil. Callers use it to flush
// buffered trace lines at shutdown.
func (r *Registry) Sink() *Sink {
	if r == nil {
		return nil
	}
	return r.core.sink.Load()
}

// SetSeries installs the time-windowed series collector (nil removes it).
// Like SetSink, install it before constructing simulators: the engine
// caches the series pointer when a registry is attached.
func (r *Registry) SetSeries(se *Series) {
	if r == nil {
		return
	}
	r.core.series.Store(se)
}

// Series returns the installed series collector, or nil (also on a nil
// registry). The Series API is itself nil-safe.
func (r *Registry) Series() *Series {
	if r == nil {
		return nil
	}
	return r.core.series.Load()
}

// Tracing reports whether a trace sink is installed. Hot paths use it to
// skip building events entirely when tracing is off.
func (r *Registry) Tracing() bool {
	return r != nil && r.core.sink.Load() != nil
}

// Emit writes one trace event to the sink, stamping the view's run label
// (unless the event already carries one). A nil registry or absent sink
// drops the event without allocation.
func (r *Registry) Emit(ev Event) {
	if r == nil {
		return
	}
	s := r.core.sink.Load()
	if s == nil {
		return
	}
	if ev.Run == "" {
		ev.Run = r.run
	}
	s.Write(ev)
}

// Visitor receives one callback per instrument during Registry.Visit. Any
// callback may be nil to skip that instrument kind. Callbacks run under the
// registry's read lock, so they must not create instruments on the same
// registry (and should not block).
type Visitor struct {
	Counter   func(name string, value int64)
	Gauge     func(name string, g GaugeValue)
	Histogram func(name string, h HistSnapshot)
}

// Visit walks every instrument in ascending name order, one kind at a time
// (counters, then gauges, then histograms). It is the enumeration primitive
// behind live exposition (internal/obs/expose): values are read with the
// same atomic loads Snapshot uses, so a concurrent Visit never perturbs a
// running simulation. A nil registry visits nothing.
func (r *Registry) Visit(v Visitor) {
	if r == nil {
		return
	}
	c := r.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v.Counter != nil {
		for _, name := range sortedKeys(c.counters) {
			v.Counter(name, c.counters[name].Value())
		}
	}
	if v.Gauge != nil {
		for _, name := range sortedKeys(c.gauges) {
			g := c.gauges[name]
			v.Gauge(name, GaugeValue{Value: g.Value(), Max: g.Max()})
		}
	}
	if v.Histogram != nil {
		for _, name := range sortedKeys(c.hists) {
			v.Histogram(name, c.hists[name].Snapshot())
		}
	}
}

// sortedKeys returns a map's keys in ascending order, for deterministic
// snapshot rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
