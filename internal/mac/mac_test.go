package mac

import (
	"repro/internal/sim/rng"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

func goodLink(seed int64) *phy.Link {
	rng := rng.New(seed)
	return phy.NewLink(rng, phy.NewEnvironment(), phy.LinkParams{
		APPos: phy.Position{X: 0, Y: 0}, Chan: phy.Chan1,
		Client:   phy.Static{Pos: phy.Position{X: 3, Y: 0}},
		ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
	})
}

func awfulLink(seed int64) *phy.Link {
	rng := rng.New(seed)
	return phy.NewLink(rng, phy.NewEnvironment(), phy.LinkParams{
		APPos: phy.Position{X: 0, Y: 0}, Chan: phy.Chan1,
		Client:    phy.Static{Pos: phy.Position{X: 80, Y: 0}},
		ShadowDB:  0,
		ExtraLoss: 25,
		FadeGood:  100 * sim.Minute, FadeBad: sim.Millisecond,
	})
}

func TestTransmitGoodLinkDelivers(t *testing.T) {
	tx := NewTransmitter(goodLink(1), rng.New(1))
	delivered := 0
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		out := tx.Transmit(now, 160)
		if out.Delivered {
			delivered++
		}
		if out.At <= now {
			t.Fatal("transmission consumed no time")
		}
		now = now.Add(20 * sim.Millisecond)
	}
	if delivered < 995 {
		t.Errorf("good link delivered %d/1000", delivered)
	}
}

func TestTransmitAwfulLinkDrops(t *testing.T) {
	tx := NewTransmitter(awfulLink(2), rng.New(2))
	delivered := 0
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		out := tx.Transmit(now, 160)
		if out.Delivered {
			delivered++
		}
		if !out.Delivered && out.Attempts != RetryLimit {
			t.Fatalf("failed frame used %d attempts, want %d", out.Attempts, RetryLimit)
		}
		now = now.Add(20 * sim.Millisecond)
	}
	if delivered > 100 {
		t.Errorf("awful link delivered %d/500, want few", delivered)
	}
}

func TestTransmitTimingSane(t *testing.T) {
	tx := NewTransmitter(goodLink(3), rng.New(3))
	out := tx.Transmit(0, 160)
	// A single successful VoIP frame should complete well under 2 ms on a
	// clean link, and always above the DIFS+airtime floor.
	if !out.Delivered {
		t.Fatal("clean-link frame dropped")
	}
	if out.At > sim.Time(2*sim.Millisecond) {
		t.Errorf("clean-link frame took %v", out.At)
	}
	if out.At < sim.Time(DIFS) {
		t.Errorf("frame completed before DIFS: %v", out.At)
	}
}

func TestRetryChainTakesLonger(t *testing.T) {
	// A frame that needs the whole retry chain must take much longer than
	// a first-attempt success.
	txGood := NewTransmitter(goodLink(4), rng.New(4))
	okOut := txGood.Transmit(0, 160)
	txBad := NewTransmitter(awfulLink(5), rng.New(5))
	var failOut TxOutcome
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		failOut = txBad.Transmit(now, 160)
		if !failOut.Delivered {
			break
		}
		now = now.Add(20 * sim.Millisecond)
	}
	if failOut.Delivered {
		t.Skip("awful link never dropped in 200 tries (seed artifact)")
	}
	if failOut.At.Sub(now) <= okOut.At.Sub(0) {
		t.Errorf("retry chain %v not longer than single attempt %v",
			failOut.At.Sub(now), okOut.At.Sub(0))
	}
}

func TestCongestionStretchesAccessDelay(t *testing.T) {
	env := phy.NewEnvironment()
	rs := rng.New(6)
	// Saturated congestion with no collisions: delay impact only.
	c := phy.NewCongestion(rs, phy.Chan1, 0.8, 0, 0, 0)
	env.AddInterferer(c)
	congested := phy.NewLink(rs, env, phy.LinkParams{
		APPos: phy.Position{}, Chan: phy.Chan1,
		Client:   phy.Static{Pos: phy.Position{X: 3, Y: 0}},
		ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
	})
	clean := goodLink(7)

	sum := func(l *phy.Link, seed int64) sim.Duration {
		tx := NewTransmitter(l, rng.New(seed))
		var total sim.Duration
		now := sim.Time(0)
		for i := 0; i < 300; i++ {
			out := tx.Transmit(now, 160)
			total += out.At.Sub(now)
			now = now.Add(20 * sim.Millisecond)
		}
		return total
	}
	dCong := sum(congested, 8)
	dClean := sum(clean, 8)
	if dCong <= dClean {
		t.Errorf("congested delay %v not above clean %v", dCong, dClean)
	}
}

func TestRateAdaptationTracksLinkQuality(t *testing.T) {
	txGood := NewTransmitter(goodLink(9), rng.New(9))
	txBad := NewTransmitter(awfulLink(10), rng.New(10))
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		txGood.Transmit(now, 160)
		txBad.Transmit(now, 160)
		now = now.Add(20 * sim.Millisecond)
	}
	if txGood.CurrentRate().Mbps <= txBad.CurrentRate().Mbps {
		t.Errorf("rate adaptation: good=%v <= bad=%v",
			txGood.CurrentRate().Mbps, txBad.CurrentRate().Mbps)
	}
	if txBad.CurrentRate().Name != "MCS0" {
		t.Errorf("awful link should sit at MCS0, got %v", txBad.CurrentRate().Name)
	}
}

func TestSwitchConstantsMatchPaper(t *testing.T) {
	// Table 3: 2.3 ms switch + 0.5 ms PSM signalling = 2.8 ms total.
	if ChannelSwitchLatency != 2300*sim.Microsecond {
		t.Errorf("ChannelSwitchLatency = %v", ChannelSwitchLatency)
	}
	if PSMSignalLatency != 500*sim.Microsecond {
		t.Errorf("PSMSignalLatency = %v", PSMSignalLatency)
	}
	total := ChannelSwitchLatency + PSMSignalLatency
	if total.Milliseconds() != 2.8 {
		t.Errorf("total switch cost = %vms, want 2.8", total.Milliseconds())
	}
}

func BenchmarkMACTransmit(b *testing.B) {
	s := sim.New(2)
	link := phy.NewLink(s.RNG("l"), phy.NewEnvironment(), phy.LinkParams{
		APPos: phy.Position{X: 0, Y: 0}, Chan: phy.Chan1,
		Client:   phy.Static{Pos: phy.Position{X: 8, Y: 0}},
		ShadowDB: 5, ShadowT: 4 * sim.Second,
		FadeGood: 10 * sim.Second, FadeBad: 300 * sim.Millisecond,
	})
	tx := NewTransmitter(link, rng.New(2))
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := tx.Transmit(now, 160)
		now = out.At.Add(20 * sim.Millisecond)
	}
}
