package netsim

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestWireDeliversWithLatency(t *testing.T) {
	s := sim.New(1)
	var at sim.Time
	w := NewWire(s, "lan", 500*sim.Microsecond, 0, 0)
	s.Schedule(0, func() {
		w.Send(pkt.Packet{Seq: 1}, func(p pkt.Packet) { at = s.Now() })
	})
	s.RunAll()
	if at != sim.Time(500*sim.Microsecond) {
		t.Errorf("arrival at %v, want 0.5ms", at)
	}
}

func TestWireLoss(t *testing.T) {
	s := sim.New(2)
	w := NewWire(s, "lossy", sim.Millisecond, 0, 0.5)
	got := 0
	s.Schedule(0, func() {
		for i := 0; i < 1000; i++ {
			w.Send(pkt.Packet{Seq: i}, func(pkt.Packet) { got++ })
		}
	})
	s.RunAll()
	if got < 400 || got > 600 {
		t.Errorf("50%%-loss wire delivered %d/1000", got)
	}
	if w.SentCount() != 1000 {
		t.Errorf("SentCount = %d", w.SentCount())
	}
	if w.DroppedCount() != 1000-got {
		t.Errorf("DroppedCount = %d, delivered %d", w.DroppedCount(), got)
	}
}

func TestWireFIFO(t *testing.T) {
	s := sim.New(3)
	w := NewWire(s, "jittery", sim.Millisecond, 2*sim.Millisecond, 0)
	var got []int
	s.Schedule(0, func() {
		for i := 0; i < 200; i++ {
			i := i
			s.Schedule(sim.Time(i)*sim.Time(100*sim.Microsecond), func() {
				w.Send(pkt.Packet{Seq: i}, func(p pkt.Packet) { got = append(got, p.Seq) })
			})
		}
	})
	s.RunAll()
	if len(got) != 200 {
		t.Fatalf("delivered %d/200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("wire reordered packets")
		}
	}
}

func TestSDNReplication(t *testing.T) {
	s := NewSDNSwitch(nil)
	var a, b []int
	if err := s.InstallRule(7,
		PortFunc(func(p pkt.Packet) { a = append(a, p.Seq) }),
		PortFunc(func(p pkt.Packet) { b = append(b, p.Seq) }),
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Receive(pkt.Packet{StreamID: 7, Seq: i})
	}
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("replication fan-out: %d/%d", len(a), len(b))
	}
	if s.MatchedCount() != 5 {
		t.Errorf("matched = %d", s.MatchedCount())
	}
}

func TestSDNDefaultPath(t *testing.T) {
	var def []int
	s := NewSDNSwitch(PortFunc(func(p pkt.Packet) { def = append(def, p.Seq) }))
	_ = s.InstallRule(1, PortFunc(func(pkt.Packet) {}))
	s.Receive(pkt.Packet{StreamID: 99, Seq: 0})
	if len(def) != 1 {
		t.Fatal("unmatched packet did not take default path")
	}
	if s.UnmatchedCount() != 1 {
		t.Errorf("unmatched = %d", s.UnmatchedCount())
	}
}

func TestSDNRuleLifecycle(t *testing.T) {
	s := NewSDNSwitch(nil)
	if err := s.InstallRule(1); err == nil {
		t.Error("rule with no outputs should be rejected")
	}
	_ = s.InstallRule(1, PortFunc(func(pkt.Packet) {}))
	if !s.HasRule(1) {
		t.Error("rule not installed")
	}
	s.RemoveRule(1)
	if s.HasRule(1) {
		t.Error("rule not removed")
	}
	s.RemoveRule(42) // no-op must not panic
}

func TestMiddleboxBufferAndStart(t *testing.T) {
	s := sim.New(4)
	mb := NewMiddlebox(s, DefaultMiddleboxConfig())
	var out []int
	if err := mb.Register(1, PortFunc(func(p pkt.Packet) { out = append(out, p.Seq) })); err != nil {
		t.Fatal(err)
	}
	s.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			mb.Receive(pkt.Packet{StreamID: 1, Seq: i})
		}
	})
	s.RunAll()
	if len(out) != 0 {
		t.Fatal("inactive middlebox forwarded packets")
	}
	if mb.BufferedCount(1) != 3 {
		t.Fatalf("buffered = %d", mb.BufferedCount(1))
	}
	var delay sim.Duration
	s.Schedule(s.Now()+1, func() { delay = mb.Start(1, -1) })
	s.RunAll()
	if len(out) != 3 {
		t.Fatalf("start released %d packets, want 3", len(out))
	}
	want := mb.ServiceDelay() + DefaultMiddleboxConfig().NetDelay
	if delay != want {
		t.Errorf("start delay = %v, want %v", delay, want)
	}
}

func TestMiddleboxHeadDrop(t *testing.T) {
	s := sim.New(5)
	cfg := DefaultMiddleboxConfig()
	cfg.BufferDepth = 4
	mb := NewMiddlebox(s, cfg)
	var out []int
	_ = mb.Register(1, PortFunc(func(p pkt.Packet) { out = append(out, p.Seq) }))
	s.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			mb.Receive(pkt.Packet{StreamID: 1, Seq: i})
		}
		mb.Start(1, -1)
	})
	s.RunAll()
	want := []int{6, 7, 8, 9}
	if len(out) != len(want) {
		t.Fatalf("released %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("head-drop kept %v, want %v", out, want)
		}
	}
	if mb.DroppedCount(1) != 6 {
		t.Errorf("dropped = %d, want 6", mb.DroppedCount(1))
	}
}

func TestMiddleboxExplicitSelection(t *testing.T) {
	s := sim.New(6)
	mb := NewMiddlebox(s, DefaultMiddleboxConfig())
	var out []int
	_ = mb.Register(1, PortFunc(func(p pkt.Packet) { out = append(out, p.Seq) }))
	s.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			mb.Receive(pkt.Packet{StreamID: 1, Seq: i})
		}
		mb.Start(1, 3) // explicit fetch from seq 3
	})
	s.RunAll()
	if len(out) != 2 || out[0] != 3 || out[1] != 4 {
		t.Fatalf("explicit selection released %v, want [3 4]", out)
	}
}

func TestMiddleboxStartStopCycle(t *testing.T) {
	s := sim.New(7)
	mb := NewMiddlebox(s, DefaultMiddleboxConfig())
	var out []int
	_ = mb.Register(1, PortFunc(func(p pkt.Packet) { out = append(out, p.Seq) }))
	s.Schedule(0, func() { mb.Start(1, -1) })
	// While active, packets flow straight through.
	s.Schedule(sim.Time(10*sim.Millisecond), func() {
		mb.Receive(pkt.Packet{StreamID: 1, Seq: 100})
	})
	s.Schedule(sim.Time(20*sim.Millisecond), func() { mb.Stop(1) })
	// After stop, packets buffer again.
	s.Schedule(sim.Time(40*sim.Millisecond), func() {
		mb.Receive(pkt.Packet{StreamID: 1, Seq: 101})
	})
	s.RunAll()
	if len(out) != 1 || out[0] != 100 {
		t.Fatalf("active-phase flow = %v, want [100]", out)
	}
	if mb.BufferedCount(1) != 1 {
		t.Errorf("post-stop buffer = %d, want 1", mb.BufferedCount(1))
	}
}

func TestMiddleboxLoadDelay(t *testing.T) {
	s := sim.New(8)
	mb := NewMiddlebox(s, DefaultMiddleboxConfig())
	base := mb.ServiceDelay()
	mb.SetBackgroundLoad(1000)
	loaded := mb.ServiceDelay()
	extra := loaded - base
	// §6.4: ≈1.1 ms extra at 1000 streams.
	if extra < 1000*sim.Microsecond || extra > 1200*sim.Microsecond {
		t.Errorf("extra delay at 1000 streams = %v, want ≈1.1ms", extra)
	}
	mb.SetBackgroundLoad(-5)
	if mb.ServiceDelay() != base {
		t.Error("negative load not clamped")
	}
}

func TestMiddleboxUnknownStream(t *testing.T) {
	s := sim.New(9)
	mb := NewMiddlebox(s, DefaultMiddleboxConfig())
	mb.Receive(pkt.Packet{StreamID: 5, Seq: 1}) // must not panic
	if d := mb.Start(5, -1); d != 0 {
		t.Error("start of unknown stream should be a no-op")
	}
	mb.Stop(5)
	if err := mb.Register(6, nil); err == nil {
		t.Error("nil output port should be rejected")
	}
}
