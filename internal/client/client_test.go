package client

import (
	"testing"

	"repro/internal/ap"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// rig wires a stream → wire → two APs → single-NIC client. Link quality is
// controlled per-test through extra attenuation.
type rig struct {
	sim    *sim.Simulator
	client *Client
	primAP *ap.AP
	secAP  *ap.AP
}

// stream returns the lane that sends a call of profile p, starting now:
// packet i leaves at i·Spacing from now.
func stream(s *sim.Simulator, p traffic.Profile, send func(pkt.Packet)) sim.Lane {
	start := s.Now()
	return sim.Lane{
		At: func(i int) sim.Time { return start.Add(sim.Duration(i) * p.Spacing) },
		Fn: func(i int) { send(pkt.Packet{StreamID: 1, Seq: i, Size: p.PacketBytes, SentAt: s.Now()}) },
	}
}

// call runs a G.711 call of n packets, with a LAN wire feeding both APs,
// until the clock reads until.
func (r *rig) call(n int, until sim.Time) {
	wireA := netsim.NewWire(r.sim, "toA", 500*sim.Microsecond, 0, 0)
	wireB := netsim.NewWire(r.sim, "toB", 500*sim.Microsecond, 0, 0)
	r.client.StartCall(n, until)
	r.sim.Train(n, stream(r.sim, traffic.G711, func(p pkt.Packet) {
		wireA.Send(p, func(q pkt.Packet) { r.primAP.Enqueue(q) })
		wireB.Send(p, func(q pkt.Packet) { r.secAP.Enqueue(q) })
	}))
	r.sim.Run(until)
}

// newWiredRig builds the rig with delivery callbacks routed to the client.
func newWiredRig(t *testing.T, seed int64, primExtra, secExtra float64, cfg Config) *rig {
	t.Helper()
	s := sim.New(seed)
	env := phy.NewEnvironment()
	mkLink := func(name string, ch phy.Channel, extra float64) *phy.Link {
		return phy.NewLink(s.RNG("link/"+name), env, phy.LinkParams{
			APPos: phy.Position{X: 0, Y: 0}, Chan: ch,
			Client:   phy.Static{Pos: phy.Position{X: 5, Y: 0}},
			ShadowDB: 0,
			FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
			ExtraLoss: extra,
		})
	}
	cfg.Profile = traffic.G711
	c := New(s, cfg)
	var primAP, secAP *ap.AP
	primAP = ap.New(s, ap.Config{Name: "A", Chan: phy.Chan1, Policy: ap.HeadDrop, MaxQueue: 5},
		mkLink("prim", phy.Chan1, primExtra), s.RNG("ap/A"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(primAP, p, at) })
	secAP = ap.New(s, ap.Config{Name: "B", Chan: phy.Chan11, Policy: ap.HeadDrop, MaxQueue: 5},
		mkLink("sec", phy.Chan11, secExtra), s.RNG("ap/B"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(secAP, p, at) })
	c.BindAPs(primAP, secAP)
	return &rig{sim: s, client: c, primAP: primAP, secAP: secAP}
}

func TestCleanCallNoSwitching(t *testing.T) {
	r := newWiredRig(t, 1, 0, 0, Config{})
	r.call(500, sim.Time(15*sim.Second))
	lost := r.client.Trace().LostWithDeadline(traffic.G711.Deadline)
	if rate := stats.LossRate(lost); rate > 0.01 {
		t.Errorf("clean call loss = %v", rate)
	}
	if r.client.Stats().RecoverySwitches > 3 {
		t.Errorf("clean call made %d recovery switches", r.client.Stats().RecoverySwitches)
	}
}

func TestRecoveryFromSecondary(t *testing.T) {
	// Primary drops ~all frames (huge attenuation); secondary is clean.
	// Every packet should be recovered via the secondary within deadline.
	r := newWiredRig(t, 2, 55, 0, Config{})
	r.call(200, sim.Time(10*sim.Second))
	st := r.client.Stats()
	if st.LossesDetected == 0 {
		t.Fatal("no losses detected on dead primary")
	}
	if st.Recovered == 0 {
		t.Fatal("nothing recovered from clean secondary")
	}
	lost := r.client.Trace().LostWithDeadline(traffic.G711.Deadline)
	rate := stats.LossRate(lost)
	// The dead primary forces constant switching; most packets should
	// still be rescued by the secondary.
	if rate > 0.5 {
		t.Errorf("residual loss with clean secondary = %v", rate)
	}
}

func TestRecoveryMeetsDeadline(t *testing.T) {
	r := newWiredRig(t, 3, 55, 0, Config{})
	r.call(100, sim.Time(5*sim.Second))
	tr := r.client.Trace()
	for seq := 0; seq < 100; seq++ {
		if !tr.Arrived(seq) {
			continue
		}
		delay := tr.ArrivalTime(seq).Sub(r.client.expectedSend(seq))
		if delay > traffic.G711.Deadline+sim.FromMillis(5) {
			t.Fatalf("packet %d recovered %v after send — past deadline", seq, delay)
		}
	}
}

func TestKeepaliveVisits(t *testing.T) {
	cfg := Config{AKT: 2 * sim.Second}
	r := newWiredRig(t, 4, 0, 0, cfg)
	r.call(500, sim.Time(11*sim.Second)) // 10-second call, AKT = 2s → ~4-5 keepalives
	ka := r.client.Stats().KeepaliveSwitches
	if ka < 2 || ka > 6 {
		t.Errorf("keepalive switches = %d, want ~4", ka)
	}
}

// TestKeepaliveDisabled: an AKT longer than the call makes no keepalive
// visit, though its checks run every AKT/4.
func TestKeepaliveDisabled(t *testing.T) {
	cfg := Config{AKT: 12 * sim.Second}
	r := newWiredRig(t, 5, 0, 0, cfg)
	r.call(500, sim.Time(11*sim.Second))
	if ka := r.client.Stats().KeepaliveSwitches; ka != 0 {
		t.Errorf("an AKT longer than the call still made %d keepalive visits", ka)
	}
}

func TestRecoveryDisabled(t *testing.T) {
	cfg := Config{DisableRecovery: true}
	r := newWiredRig(t, 6, 55, 0, cfg)
	r.call(200, sim.Time(10*sim.Second))
	st := r.client.Stats()
	if st.RecoverySwitches != 0 {
		t.Errorf("disabled recovery made %d switches", st.RecoverySwitches)
	}
	if st.LossesDetected == 0 {
		t.Error("loss detection should still run")
	}
}

func TestAbsenceTracking(t *testing.T) {
	cfg := Config{AKT: 2 * sim.Second}
	r := newWiredRig(t, 7, 0, 0, cfg)
	r.call(500, sim.Time(11*sim.Second))
	abs := r.client.AppendAbsences(nil)
	if len(abs) == 0 {
		t.Fatal("keepalive visits recorded no absences")
	}
	var total sim.Duration
	for _, iv := range abs {
		if iv.To <= iv.From {
			t.Fatalf("bad interval %+v", iv)
		}
		total += iv.To.Sub(iv.From)
	}
	got := AbsentDuring(abs, 0, r.sim.Now())
	if got != total {
		t.Errorf("AbsentDuring = %v, sum = %v", got, total)
	}
	// Each keepalive visit ≈ SRT + 2 switches ≈ 46 ms; total should be a
	// tiny fraction of the call.
	if total > sim.Duration(sim.Second) {
		t.Errorf("absent %v of an 10s call", total)
	}
}

func TestAbsentDuringWindowClipping(t *testing.T) {
	ivs := []Interval{{From: 100, To: 200}, {From: 300, To: 400}}
	if d := AbsentDuring(ivs, 150, 350); d != 100 {
		t.Errorf("clipped absence = %v, want 100", d)
	}
	if d := AbsentDuring(ivs, 0, 1000); d != 200 {
		t.Errorf("full absence = %v, want 200", d)
	}
	if d := AbsentDuring(ivs, 201, 299); d != 0 {
		t.Errorf("gap absence = %v, want 0", d)
	}
}

func TestListeningStateMachine(t *testing.T) {
	r := newWiredRig(t, 9, 0, 0, Config{})
	r.call(10, sim.Time(sim.Second))
	// After the call, the client should be settled on the primary.
	if !r.client.Listening(r.primAP, r.sim.Now()) {
		t.Error("client not listening to primary at rest")
	}
	if r.client.Listening(r.secAP, r.sim.Now()) {
		t.Error("client listening to secondary at rest")
	}
	if r.client.Listening(nil, r.sim.Now()) {
		t.Error("client listening to unknown AP")
	}
}

func TestDuplicationOverheadSmall(t *testing.T) {
	// Clean links + keepalives: wasteful transmissions should be a tiny
	// fraction of the 1500-packet call (§6.3's coexistence requirement).
	cfg := Config{AKT: 5 * sim.Second}
	r := newWiredRig(t, 10, 0, 0, cfg)
	r.call(1500, sim.Time(31*sim.Second)) // 30 s
	wasted := r.secAP.Stats().WastedTransmissions + r.client.Stats().DuplicatesReceived
	frac := float64(wasted) / 1500
	if frac > 0.05 {
		t.Errorf("wasteful duplication = %.2f%% on a clean call", frac*100)
	}
}

func TestFutileVisitBackoff(t *testing.T) {
	// Both links dead: recovery visits always come back empty-handed, so
	// after BackoffAfter futile visits the client must stop hopping for a
	// while instead of thrashing.
	cfg := Config{BackoffAfter: 3}
	r := newWiredRig(t, 20, 55, 55, cfg)
	r.call(500, sim.Time(11*sim.Second))
	st := r.client.Stats()
	if st.Backoffs == 0 {
		t.Fatal("no backoffs despite a hopeless secondary")
	}
	// Without backoff, ~every detected loss beyond the first would spawn a
	// visit; with backoff the switch count must be far below the losses.
	if st.RecoverySwitches*4 > st.LossesDetected {
		t.Errorf("backoff ineffective: %d switches for %d losses",
			st.RecoverySwitches, st.LossesDetected)
	}
}

func TestBackoffDisabled(t *testing.T) {
	cfg := Config{BackoffAfter: -1}
	r := newWiredRig(t, 21, 55, 55, cfg)
	r.call(300, sim.Time(7*sim.Second))
	if r.client.Stats().Backoffs != 0 {
		t.Error("disabled backoff still triggered")
	}
}

// fakeSecondary records SecondaryBuffer calls.
type fakeSecondary struct {
	requests []int
	releases int
}

func (f *fakeSecondary) RequestFrom(firstSeq int) { f.requests = append(f.requests, firstSeq) }
func (f *fakeSecondary) Release()                 { f.releases++ }

func TestMiddleboxHookOnRecovery(t *testing.T) {
	fs := &fakeSecondary{}
	cfg := Config{Secondary: fs}
	r := newWiredRig(t, 30, 55, 0, cfg)
	r.call(200, sim.Time(6*sim.Second))
	if len(fs.requests) == 0 {
		t.Fatal("recovery never issued a middlebox request")
	}
	if fs.releases == 0 {
		t.Fatal("client never released the middlebox")
	}
	for _, seq := range fs.requests {
		if seq < 0 {
			t.Fatalf("recovery request with fromSeq %d; explicit selection expected", seq)
		}
	}
}

func TestMiddleboxHookNotUsedByKeepalive(t *testing.T) {
	fs := &fakeSecondary{}
	cfg := Config{Secondary: fs, AKT: 2 * sim.Second, DisableRecovery: true}
	r := newWiredRig(t, 31, 0, 0, cfg)
	r.call(400, sim.Time(9*sim.Second))
	if r.client.Stats().KeepaliveSwitches == 0 {
		t.Fatal("no keepalives happened")
	}
	if len(fs.requests) != 0 {
		t.Errorf("keepalive issued %d middlebox requests; it should only refresh the association", len(fs.requests))
	}
	if fs.releases == 0 {
		t.Error("keepalive departures should still release")
	}
}

func TestHighRateProfileClient(t *testing.T) {
	// The 5 Mbps profile has 1.6 ms spacing and an AP queue of 62; the
	// client machinery must handle it without blowing deadlines.
	s := sim.New(32)
	env := phy.NewEnvironment()
	mkLink := func(name string, ch phy.Channel) *phy.Link {
		return phy.NewLink(s.RNG("link/"+name), env, phy.LinkParams{
			APPos: phy.Position{X: 0, Y: 0}, Chan: ch,
			Client:   phy.Static{Pos: phy.Position{X: 5, Y: 0}},
			ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
		})
	}
	c := New(s, Config{Profile: traffic.HighRate})
	var primAP, secAP *ap.AP
	primAP = ap.New(s, ap.Config{Name: "A", Chan: phy.Chan1, Policy: ap.HeadDrop, MaxQueue: traffic.HighRate.APQueueLen()},
		mkLink("p", phy.Chan1), s.RNG("ap/p"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(primAP, p, at) })
	secAP = ap.New(s, ap.Config{Name: "B", Chan: phy.Chan11, Policy: ap.HeadDrop, MaxQueue: traffic.HighRate.APQueueLen()},
		mkLink("s", phy.Chan11), s.RNG("ap/s"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(secAP, p, at) })
	c.BindAPs(primAP, secAP)

	wire := netsim.NewWire(s, "hrw", 500*sim.Microsecond, 0, 0)
	wire2 := netsim.NewWire(s, "hrw2", 500*sim.Microsecond, 0, 0)
	const n, until = 3000, sim.Time(6 * sim.Second) // ~4.8 seconds of 5 Mbps traffic
	c.StartCall(n, until)
	s.Train(n, stream(s, traffic.HighRate, func(p pkt.Packet) {
		wire.Send(p, primAP.Enqueue)
		wire2.Send(p, secAP.Enqueue)
	}))
	s.Run(until)
	lost := c.Trace().LostWithDeadline(traffic.HighRate.Deadline)
	if rate := stats.LossRate(lost); rate > 0.02 {
		t.Errorf("high-rate clean-link loss = %v", rate)
	}
}

func TestRecoveryDelaysOnlyFromLossVisits(t *testing.T) {
	// Keepalive visits must not contribute recovery-delay samples.
	cfg := Config{AKT: sim.Second, DisableRecovery: true}
	r := newWiredRig(t, 33, 0, 0, cfg)
	r.call(400, sim.Time(9*sim.Second))
	if r.client.Stats().KeepaliveSwitches == 0 {
		t.Fatal("no keepalives")
	}
	if n := len(r.client.AppendRecoveryEvents(nil)); n != 0 {
		t.Errorf("keepalive visits produced %d recovery-delay samples", n)
	}
}

// TestRecoveryEventDecomposition: every recovery delay decomposes into the
// Table 3 components — total = switch + retrieve exactly, switch is the
// fixed PSM+retune cost, and detect covers at least the PacketLossTimeout
// for the triggering packet.
func TestRecoveryEventDecomposition(t *testing.T) {
	r := newWiredRig(t, 4, 55, 0, Config{})
	r.call(200, sim.Time(10*sim.Second))
	events := r.client.AppendRecoveryEvents(nil)
	if len(events) == 0 {
		t.Fatal("no recovery events on a dead primary")
	}
	plt := r.client.plt()
	for i, ev := range events {
		if ev.Switch != switchCost() {
			t.Errorf("event %d: switch %v != fixed cost %v", i, ev.Switch, switchCost())
		}
		if ev.Retrieve != ev.Total-ev.Switch {
			t.Errorf("event %d: retrieve %v != total-switch %v", i, ev.Retrieve, ev.Total-ev.Switch)
		}
		if ev.Detect < plt {
			t.Errorf("event %d: detect %v < PLT %v", i, ev.Detect, plt)
		}
		if ev.Detect > sim.Time(10*sim.Second).Sub(0) {
			t.Errorf("event %d: absurd detect %v", i, ev.Detect)
		}
	}
}
