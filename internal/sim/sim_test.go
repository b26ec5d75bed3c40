package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(100, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order wrong at %d: %v", i, order)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.Schedule(50, func() {
		s.After(25, func() { fired = s.Now() })
	})
	s.RunAll()
	if fired != 75 {
		t.Fatalf("After fired at %v, want 75", fired)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.Schedule(10, func() {
		s.After(-5, func() { fired = s.Now() })
	})
	s.RunAll()
	if fired != 10 {
		t.Fatalf("negative After fired at %v, want 10", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(50, func() {})
	})
	s.RunAll()
}

func TestTrainPastPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s := New(1)
	s.Schedule(100, func() {
		mustPanic("a train starting before now", func() {
			s.Train(2, Lane{At: func(int) Time { return 50 }, Fn: func(int) {}})
		})
	})
	s.RunAll()

	// Event 1 falls before event 0, so it is before Now when event 0 runs.
	s = New(1)
	ran := 0
	s.Train(3, Lane{At: func(i int) Time { return Time(10 - i) }, Fn: func(int) { ran++ }})
	mustPanic("a lane whose next time is before now", func() { s.RunAll() })
	if ran != 0 {
		t.Errorf("ran %d events before the panic, want 0", ran)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.Schedule(10, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before run")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.RunAll()
	if ran {
		t.Fatal("stopped timer still fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.Run(25)
	if len(fired) != 2 {
		t.Fatalf("Run(25) executed %d events, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Fatalf("clock after Run(25) = %v, want 25", s.Now())
	}
	s.Run(100)
	if len(fired) != 4 {
		t.Fatalf("resumed run executed %d total events, want 4", len(fired))
	}
}

func TestRunUntilInclusive(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(25, func() { ran = true })
	s.Run(25)
	if !ran {
		t.Fatal("event exactly at the horizon should run")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	s.Schedule(10, func() { count++; s.Stop() })
	s.Schedule(20, func() { count++ })
	s.RunAll()
	if count != 1 {
		t.Fatalf("Stop did not halt the loop: %d events ran", count)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.RNG("chan").Float64() != b.RNG("chan").Float64() {
			t.Fatal("same seed and stream diverged")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.RNG("chan").Float64() != c.RNG("chan").Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	// Drawing from one stream must not perturb another: this is what keeps
	// experiments reproducible when new random consumers are added.
	a := New(7)
	b := New(7)
	_ = a.RNG("extra").Float64() // extra draw on a only
	for i := 0; i < 50; i++ {
		if a.RNG("main").Float64() != b.RNG("main").Float64() {
			t.Fatal("stream 'main' perturbed by draws on stream 'extra'")
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1000)
	if tm.Add(500) != 1500 {
		t.Errorf("Add: got %v", tm.Add(500))
	}
	if Time(1500).Sub(tm) != 500 {
		t.Errorf("Sub: got %v", Time(1500).Sub(tm))
	}
	if FromMillis(2.5) != 2500 {
		t.Errorf("FromMillis: got %v", FromMillis(2.5))
	}
	if FromSeconds(1.5) != 1500000 {
		t.Errorf("FromSeconds: got %v", FromSeconds(1.5))
	}
	if (2 * Millisecond).Milliseconds() != 2.0 {
		t.Errorf("Milliseconds: got %v", (2 * Millisecond).Milliseconds())
	}
	if Time(3*1e6).Seconds() != 3.0 {
		t.Errorf("Seconds: got %v", Time(3*1e6).Seconds())
	}
}

func TestEventCountProperty(t *testing.T) {
	// Property: scheduling n events and running to completion executes
	// exactly n events, regardless of their (non-negative) times.
	f := func(offsets []uint16) bool {
		s := New(3)
		for _, off := range offsets {
			s.Schedule(Time(off), func() {})
		}
		s.RunAll()
		return s.Executed() == uint64(len(offsets))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: observed event times are non-decreasing.
	f := func(offsets []uint16) bool {
		s := New(9)
		var times []Time
		for _, off := range offsets {
			s.Schedule(Time(off), func() { times = append(times, s.Now()) })
		}
		s.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
