package sim

import (
	"sort"
	"testing"
)

// FuzzScheduleOrder drives the scheduler with an arbitrary op sequence —
// schedules into a deliberately tiny set of time buckets (to force
// same-timestamp ties), trains over one or two lanes in the same buckets,
// and cancellations of arbitrary live timers — and checks the execution
// order against a reference model: all non-cancelled events run exactly
// once, sorted by time with FIFO order among equal timestamps, and the
// queue drains completely. The model appends a train's events in
// (event, lane) order at the train's position, which is the order of the
// Schedule loop a train stands for.
//
// Ops are byte pairs (op, arg): op%4 == 3 is a train (and consumes one more
// byte for its lane shapes), any other nonzero op%4 cancels when a timer
// exists, and everything else schedules.
func FuzzScheduleOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 0, 5})             // three-way tie
	f.Add([]byte{0, 7, 0, 3, 1, 0, 0, 3})       // schedule, cancel first, more ties
	f.Add([]byte{0, 0, 1, 0, 1, 0})             // double-cancel
	f.Add([]byte{0, 1, 0, 2, 0, 1, 1, 1, 0, 1}) // interleaved
	f.Add([]byte{0, 2, 3, 0x1b, 0x29, 0, 2})    // two-lane train tied with schedules
	f.Add([]byte{3, 0x77, 0xff, 1, 0, 3, 0x03}) // all-tied train, schedule, train tied with it
	f.Add([]byte{3, 0x2a, 0x0b})                // lane 1's event 0 ties lane 0's event 1
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(42)

		type ev struct {
			at    Time
			id    int
			alive bool
		}
		var model []*ev
		var timers []Timer
		var timerEv []*ev // model event behind each timer
		var got []int
		bucket := func(b int) Time {
			if b > 7 {
				b = 7
			}
			return Time(b) * Time(Millisecond)
		}
		live := func() int {
			n := 0
			for _, e := range model {
				if e.alive {
					n++
				}
			}
			return n
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch {
			case op%4 == 3:
				// A train of n events over k lanes; lane j's event m sits
				// in bucket start[j] + m*step[j] (clamped), so its times
				// are non-decreasing and tie with everything else.
				var shape byte
				if i+2 < len(data) {
					shape = data[i+2]
					i++
				}
				n, k := 1+int(arg%8), 1+int(arg/8%2)
				start := [2]int{int(arg / 16 % 8), int(shape % 8)}
				step := [2]int{int(shape / 8 % 3), int(shape / 32 % 3)}
				first := len(model)
				for m := 0; m < n; m++ {
					for j := 0; j < k; j++ {
						model = append(model, &ev{at: bucket(start[j] + m*step[j]), id: len(model), alive: true})
					}
				}
				lanes := make([]Lane, k)
				for j := range lanes {
					j := j
					lanes[j] = Lane{
						At: func(m int) Time { return bucket(start[j] + m*step[j]) },
						Fn: func(m int) { got = append(got, first+m*k+j) },
					}
				}
				s.Train(n, lanes...)
			case op%4 != 0 && len(timers) > 0:
				// Cancel an arbitrary previously scheduled timer. Stopping
				// one that is already stopped must return false and change
				// nothing.
				k := int(arg) % len(timers)
				wasAlive := timerEv[k].alive
				stopped := timers[k].Stop()
				if stopped != wasAlive {
					t.Fatalf("op %d: Stop() = %v, model says alive=%v", i, stopped, wasAlive)
				}
				timerEv[k].alive = false
			default:
				// Schedule into one of 8 time buckets so ties are common.
				e := &ev{at: bucket(int(arg % 8)), id: len(model), alive: true}
				id := e.id
				tm := s.Schedule(e.at, func() { got = append(got, id) })
				if !tm.Pending() {
					t.Fatalf("op %d: freshly scheduled timer not pending", i)
				}
				model = append(model, e)
				timers = append(timers, tm)
				timerEv = append(timerEv, e)
			}
			if s.Pending() != live() {
				t.Fatalf("op %d: Pending() = %d, model says %d live", i, s.Pending(), live())
			}
		}

		n := live()
		before := s.Executed()
		s.RunAll()
		if executed := s.Executed() - before; executed != uint64(n) {
			t.Fatalf("executed %d events, want %d", executed, n)
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending() = %d after RunAll, want 0", s.Pending())
		}

		// Reference order: stable sort by time keeps FIFO among ties
		// because model is already in scheduling order.
		var want []int
		alive := make([]*ev, 0, len(model))
		for _, e := range model {
			if e.alive {
				alive = append(alive, e)
			}
		}
		sort.SliceStable(alive, func(a, b int) bool { return alive[a].at < alive[b].at })
		for _, e := range alive {
			want = append(want, e.id)
		}
		if len(got) != len(want) {
			t.Fatalf("ran %d callbacks, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("execution order diverges at %d: got %v, want %v", i, got, want)
			}
		}

		// Cancelled timers must not report pending after the run either.
		for k, tm := range timers {
			if tm.Pending() {
				t.Fatalf("timer %d still pending after RunAll", k)
			}
		}
	})
}

// TestNestedScheduleFIFO pins the tie-break rule for events scheduled from
// inside a callback at the *current* timestamp: they run after everything
// already queued for that timestamp (scheduling order is global), before
// any later timestamp.
func TestNestedScheduleFIFO(t *testing.T) {
	s := New(1)
	var order []string
	s.Schedule(Time(Millisecond), func() {
		order = append(order, "a")
		s.Schedule(Time(Millisecond), func() { order = append(order, "a-child") })
	})
	s.Schedule(Time(Millisecond), func() { order = append(order, "b") })
	s.Schedule(2*Time(Millisecond), func() { order = append(order, "c") })
	s.RunAll()
	want := []string{"a", "b", "a-child", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
