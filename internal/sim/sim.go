// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the DiversiFi substrates (PHY, MAC, AP, client, middlebox) are
// driven by a single Simulator: components schedule callbacks at virtual
// times and the engine executes them in strict timestamp order. Ties are
// broken by scheduling order, which together with seeded RNG streams makes
// every run exactly reproducible.
//
// The scheduler is built for the hot path (see docs/PERFORMANCE.md): a
// value-typed 4-ary min-heap of (time, seq, slot) entries over a free-listed
// slot pool, so steady-state scheduling allocates nothing, and cancellation
// is O(1) (the slot is released immediately — nil'ing its callback so
// captured packets are not pinned — and the heap entry is skipped lazily
// when it surfaces).
//
// A simulator is recyclable: Release hands it and its storage (heap, slot
// pool, Train lane cursors, named streams) to a pool that New draws from,
// so a process that runs call after call reuses one world's storage
// instead of growing a new one each time (see docs/PERFORMANCE.md,
// "Recycled call worlds").
package sim

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim/rng"
)

// Time is a point in virtual time, in microseconds since the start of the
// simulation. Using integer microseconds (rather than float seconds) keeps
// event ordering exact and comparisons cheap.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1e3) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return fmt.Sprintf("%.3fms", float64(d)/1e3) }

// FromMillis converts floating-point milliseconds to a Duration.
func FromMillis(ms float64) Duration { return Duration(ms * 1e3) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * 1e6) }

// slot holds a scheduled callback in the simulator's pool. A slot is live
// between Schedule and execution/cancellation; freed slots form a free list
// through next and keep fn nil so completed events never pin captured
// state (packets, closures) for the life of the pool.
type slot struct {
	fn   func()
	seq  uint64 // identity of the occupying event; guards against reuse
	next int32  // free-list link while free
	dead bool   // true once executed, cancelled, or free
}

// heapEntry is one value-typed entry of the 4-ary scheduling heap. Entries
// are ordered by (at, seq): time first, FIFO among equal timestamps.
// Cancelled events leave stale entries behind; they are recognized (the
// slot's seq no longer matches, or the slot is dead) and discarded when
// they reach the top.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle to a scheduled event. Timers are plain values (copying
// is fine, no allocation); the zero Timer is valid and behaves as an
// already-fired timer.
type Timer struct {
	s   *Simulator
	idx int32
	seq uint64
}

// Stop cancels the timer if it has not yet fired. It reports whether the
// timer was still pending. The event's slot is released immediately and its
// callback dropped; only a stale heap entry remains, to be skipped when it
// surfaces.
//
// A Timer kept past its simulator's Release stops nothing: a recycled
// simulator keeps counting sequence numbers where it left off, so no later
// event carries the timer's seq.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.s.freeSlot(t.idx)
	t.s.live--
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.s == nil || int(t.idx) >= len(t.s.slots) {
		return false
	}
	sl := &t.s.slots[t.idx]
	return !sl.dead && sl.seq == t.seq
}

// Simulator is a discrete-event scheduler with a virtual clock and named,
// independently seeded random streams. It is not safe for concurrent use;
// a simulation runs on a single goroutine by design.
type Simulator struct {
	now      Time
	seq      uint64 // next event sequence number (FIFO tie-breaker)
	heap     []heapEntry
	slots    []slot
	freeHead int32 // head of the slot free list; -1 when empty
	live     int   // scheduled events not yet executed or cancelled
	seed     int64
	streams  map[string]*rng.Stream
	stopped  bool
	released bool // set by Release until New draws s again

	executed uint64 // total events run, for diagnostics

	// lanes holds the cursors of the Train lanes made since New and, past
	// its length, those a released run left for the next Train to take.
	lanes []*trainLane

	// obs is the observability registry threaded through every substrate
	// built on this simulator (nil = disabled; all hooks become no-ops).
	obs     *obs.Registry
	evCount *obs.Counter // cached "sim.events_executed" counter
	series  *obs.Series  // cached time-series collector (nil = disabled)
}

// ObsProvider, when non-nil, supplies the observability registry attached
// to every Simulator created by New. The CLIs set it once at startup (to a
// shared root registry scoped per run via WithRun) so that experiment code
// — which constructs its own simulators deep inside corpus runners — is
// instrumented without signature changes. The default, nil, leaves every
// simulation unobserved at zero cost.
var ObsProvider func(seed int64) *obs.Registry

// released holds simulators handed back by Release.
var released sync.Pool

// New returns a Simulator whose random streams derive from seed. It
// reuses a released simulator when one is pooled, reset to exactly what a
// fresh one is: empty heap and slot pool, no Train lanes (their cursors
// kept for the next Train), clock at 0, every named stream re-seeded from
// seed and its name, and the registry ObsProvider gives now (none when it
// is nil). Only the sequence counter carries over, which orders events
// relative to each other and so moves no result.
func New(seed int64) *Simulator {
	s, _ := released.Get().(*Simulator)
	if s == nil {
		s = &Simulator{streams: make(map[string]*rng.Stream)}
	}
	*s = Simulator{
		seq:      s.seq,
		heap:     s.heap[:0],
		slots:    s.slots[:0],
		lanes:    s.lanes[:0],
		freeHead: -1,
		seed:     seed,
		streams:  s.streams,
	}
	for name, r := range s.streams {
		r.Reset(seed, name)
	}
	if ObsProvider != nil {
		s.SetObs(ObsProvider(seed))
	}
	return s
}

// Release hands s and its storage to the pool New draws from. Only the
// owner of a call's whole world may call it, once nothing built on s will
// run or be read again: its streams, timers and trains go with it. It
// drops every callback still scheduled and every lane's At and Fn, so the
// pool pins nothing of the call. Release on nil or on a released simulator
// does nothing.
func (s *Simulator) Release() {
	if s == nil || s.released {
		return
	}
	clear(s.slots)
	for _, tl := range s.lanes {
		tl.Lane = Lane{}
	}
	s.slots, s.heap, s.lanes = s.slots[:0], s.heap[:0], s.lanes[:0]
	s.obs, s.evCount, s.series = nil, nil, nil
	s.released = true
	released.Put(s)
}

// SetObs attaches an observability registry (nil detaches). Components
// constructed on this simulator pick the registry up at their own
// construction time, so call SetObs before building the scenario.
func (s *Simulator) SetObs(r *obs.Registry) {
	s.obs = r
	s.evCount = r.Counter("sim.events_executed")
	s.series = r.Series()
}

// Obs returns the attached observability registry (possibly nil; the obs
// API is nil-safe, so callers use the result unconditionally).
func (s *Simulator) Obs() *obs.Registry { return s.obs }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Seed returns the root seed the simulator was created with.
func (s *Simulator) Seed() int64 { return s.seed }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// RNG returns the named random stream, creating it on first use. Each name
// gets an independent deterministic stream derived from the root seed, so
// adding a new consumer of randomness does not perturb existing ones.
func (s *Simulator) RNG(name string) *rng.Stream {
	if r, ok := s.streams[name]; ok {
		return r
	}
	r := rng.Named(s.seed, name)
	s.streams[name] = r
	return r
}

// allocSlot takes a slot from the free list (or grows the pool) and
// installs fn under sequence number seq.
func (s *Simulator) allocSlot(fn func(), seq uint64) int32 {
	if i := s.freeHead; i >= 0 {
		s.freeHead = s.slots[i].next
		s.slots[i] = slot{fn: fn, seq: seq, next: -1}
		return i
	}
	s.slots = append(s.slots, slot{fn: fn, seq: seq, next: -1})
	return int32(len(s.slots) - 1)
}

// freeSlot returns slot i to the free list, dropping its callback so the
// pool never pins captured state.
func (s *Simulator) freeSlot(i int32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.dead = true
	sl.next = s.freeHead
	s.freeHead = i
}

// heapPush inserts e, sifting up through 4-ary parents.
func (s *Simulator) heapPush(e heapEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// heapPop removes the minimum entry (the caller has already read s.heap[0]),
// sifting the displaced tail entry down through the smallest of up to four
// children.
func (s *Simulator) heapPop() {
	h := s.heap
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	s.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// Schedule runs fn at virtual time at. Scheduling in the past (before Now)
// panics: that is always a logic error in a discrete-event model.
func (s *Simulator) Schedule(at Time, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	seq := s.seq
	s.seq++
	idx := s.allocSlot(fn, seq)
	s.heapPush(heapEntry{at: at, seq: seq, idx: idx})
	s.live++
	return Timer{s: s, idx: idx, seq: seq}
}

// Lane is one event stream of a Train: its event i runs Fn(i) at At(i).
// At must be non-decreasing in i.
type Lane struct {
	At func(i int) Time
	Fn func(i int)
}

// Train schedules n events on each lane with exactly the (time, seq)
// order, Executed and Pending counts of the loop it replaces:
//
//	for i := 0; i < n; i++ {
//		for _, l := range lanes {
//			s.Schedule(l.At(i), func() { l.Fn(i) })
//		}
//	}
//
// It reserves that loop's block of sequence numbers up front (event i of
// lane j gets base + i·len(lanes) + j) but materializes the events lazily:
// each lane holds one heap entry, one slot and one cursor, and pushes
// event i+1 when event i runs. A per-packet timer armed for a whole call
// therefore costs one heap entry instead of growing the heap and slot pool
// to the packet count, and a recycled simulator's Train takes the cursors
// of the released run's lanes, so it allocates nothing. An event that
// would fall before Now panics, as Schedule does.
func (s *Simulator) Train(n int, lanes ...Lane) {
	k := len(lanes)
	if n <= 0 || k == 0 {
		return
	}
	base := s.seq
	s.seq += uint64(n) * uint64(k)
	s.live += n * k
	for j, l := range lanes {
		tl := s.cursor()
		*tl = trainLane{Lane: l, s: s, n: n, stride: uint64(k), seq: base + uint64(j), run: tl.run}
		tl.push()
	}
}

// cursor returns a cursor for a new Train lane: one a released run's lane
// left behind, or a new one with its step bound.
func (s *Simulator) cursor() *trainLane {
	if n := len(s.lanes); n < cap(s.lanes) && s.lanes[:n+1][n] != nil {
		s.lanes = s.lanes[:n+1]
		return s.lanes[n]
	}
	tl := new(trainLane)
	tl.run = tl.step
	s.lanes = append(s.lanes, tl)
	return tl
}

// trainLane is the cursor of one Train lane: event i is the one in the heap.
type trainLane struct {
	Lane
	s      *Simulator
	n, i   int
	stride uint64 // sequence numbers between consecutive events of the lane
	seq    uint64 // sequence number of event i
	run    func() // tl.step, bound once
}

// push enqueues event i under its reserved sequence number. The events are
// already counted in s.live, so unlike Schedule it does not touch it.
func (tl *trainLane) push() {
	at := tl.At(tl.i)
	if at < tl.s.now {
		panic(fmt.Sprintf("sim: train event %d at %v before now %v", tl.i, at, tl.s.now))
	}
	idx := tl.s.allocSlot(tl.run, tl.seq)
	tl.s.heapPush(heapEntry{at: at, seq: tl.seq, idx: idx})
}

// step runs event i after enqueueing its successor.
func (tl *trainLane) step() {
	i := tl.i
	tl.i++
	if tl.i < tl.n {
		tl.seq += tl.stride
		tl.push()
	}
	tl.Fn(i)
}

// After runs fn d after the current time.
func (s *Simulator) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), fn)
}

// Stop halts the run loop after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// pop executes one step of the run loop's head inspection: it discards
// stale entries (cancelled or superseded slots) and returns the head entry
// and its slot when live, or ok=false when the heap has drained.
func (s *Simulator) head() (heapEntry, *slot, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		sl := &s.slots[e.idx]
		if sl.dead || sl.seq != e.seq {
			s.heapPop()
			continue
		}
		return e, sl, true
	}
	return heapEntry{}, nil, false
}

// runHead pops and executes the live head entry e backed by sl.
func (s *Simulator) runHead(e heapEntry, sl *slot) {
	s.heapPop()
	s.now = e.at
	// Report the clock advance before running the callback, so a window
	// [A, B) captures exactly the effects of events with t < B.
	s.series.Tick(int64(e.at))
	fn := sl.fn
	s.freeSlot(e.idx)
	s.live--
	s.executed++
	s.evCount.Inc()
	fn()
}

// Run executes events until the queue drains, Stop is called, or the clock
// would pass until. Events scheduled exactly at until are executed. It
// returns the final clock value.
func (s *Simulator) Run(until Time) Time {
	s.stopped = false
	for !s.stopped {
		e, sl, ok := s.head()
		if !ok || e.at > until {
			break
		}
		s.runHead(e, sl)
	}
	if s.now < until && !s.stopped {
		s.now = until
	}
	return s.now
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulator) RunAll() Time {
	s.stopped = false
	for !s.stopped {
		e, sl, ok := s.head()
		if !ok {
			break
		}
		s.runHead(e, sl)
	}
	return s.now
}

// Pending returns the number of live events still queued.
func (s *Simulator) Pending() int { return s.live }
