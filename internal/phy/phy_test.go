package phy

import (
	"math"
	"repro/internal/sim/rng"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestChannelOverlap(t *testing.T) {
	cases := []struct {
		a, b Channel
		want bool
	}{
		{Chan1, Chan1, true},
		{Chan1, Chan6, false}, // classic non-overlapping plan
		{Chan1, Channel{Band2G4, 4}, true},
		{Chan1, Chan11, false},
		{Chan36, Chan36, true},
		{Chan36, Chan48, false},
		{Chan1, Chan36, false}, // different bands never overlap
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestChannelValidity(t *testing.T) {
	if !Chan1.Valid() || !Chan11.Valid() || !Chan36.Valid() {
		t.Error("standard channels should be valid")
	}
	if (Channel{Band2G4, 15}).Valid() {
		t.Error("2.4GHz ch15 should be invalid")
	}
	if (Channel{Band5G, 1}).Valid() {
		t.Error("5GHz ch1 should be invalid")
	}
}

func TestPathLossMonotone(t *testing.T) {
	prev := PathLossDB(1, Band2G4)
	for d := 2.0; d <= 100; d += 1 {
		pl := PathLossDB(d, Band2G4)
		if pl <= prev {
			t.Fatalf("path loss not increasing at %vm", d)
		}
		prev = pl
	}
	if PathLossDB(10, Band5G) <= PathLossDB(10, Band2G4) {
		t.Error("5GHz should attenuate more than 2.4GHz")
	}
	// Near-field floor.
	if PathLossDB(0.01, Band2G4) != PathLossDB(0.5, Band2G4) {
		t.Error("distances below 0.5m should clamp")
	}
}

func TestBestRateForSNR(t *testing.T) {
	if r := BestRateForSNR(-10); r.Name != "MCS0" {
		t.Errorf("hopeless SNR picked %v", r.Name)
	}
	if r := BestRateForSNR(60); r.Name != "MCS7" {
		t.Errorf("excellent SNR picked %v", r.Name)
	}
	// Monotone in SNR.
	prev := 0.0
	for snr := -5.0; snr < 60; snr += 1 {
		r := BestRateForSNR(snr)
		if r.Mbps < prev {
			t.Fatalf("rate selection not monotone at %v dB", snr)
		}
		prev = r.Mbps
	}
}

func TestFrameErrorProb(t *testing.T) {
	r := RateTable[3] // MCS3 @ 14 dB
	high := FrameErrorProb(30, r)
	low := FrameErrorProb(5, r)
	if high >= low {
		t.Errorf("FER should fall with SNR: %v vs %v", high, low)
	}
	if high < 0.004 || high > 0.01 {
		t.Errorf("high-SNR FER = %v, want near the 0.5%% floor", high)
	}
	if low < 0.99 {
		t.Errorf("deep-fade FER = %v, want near 1", low)
	}
}

func TestFrameErrorBoundsProperty(t *testing.T) {
	f := func(snrRaw int8, rateIdx uint8) bool {
		r := RateTable[int(rateIdx)%len(RateTable)]
		p := FrameErrorProb(float64(snrRaw), r)
		return p >= 0.005 && p <= 0.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameErrorShortcutsExact holds FrameErrorProb to the clamped
// logistic without its shortcuts, bit for bit, for every rate at 1e-4 dB
// steps over a margin range that spans both clamps and both shortcut
// thresholds (margins 5.3/1.4 and -7/1.4 dB).
func TestFrameErrorShortcutsExact(t *testing.T) {
	logistic := func(snrDB float64, rate Rate) float64 {
		p := 1 / (1 + math.Exp(1.4*(snrDB-rate.MinSNRdB)))
		return math.Min(math.Max(p, 0.005), 0.999)
	}
	for _, r := range RateTable {
		for i := -60_000; i <= 50_000; i++ {
			snr := r.MinSNRdB + float64(i)*1e-4
			if got, want := FrameErrorProb(snr, r), logistic(snr, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %.4f dB: %v, logistic %v", r.Name, snr, got, want)
			}
		}
	}
}

// stillWalker stands where it is, like Static, but is not a Static: a link
// looks its position up and recomputes its mean RSSI on every query.
type stillWalker struct{ pos Position }

func (w stillWalker) PositionAt(sim.Time) Position { return w.pos }

// TestAttemptShortcutsExact holds a Static client's link, whose position
// and mean RSSI NewLink computes once and whose attempts evaluate the
// environment once, to a twin that looks both up on every query and
// attempts as the per-query formula did (the impact evaluated again inside
// SNRdB). Microwave, congestion, shadowing, fading and a late shift all
// run; every RSSI, SNR and attempt outcome must match bit for bit.
func TestAttemptShortcutsExact(t *testing.T) {
	mk := func(client MobilityModel) *Link {
		env := NewEnvironment()
		env.AddInterferer(NewMicrowave(Position{6, 2}, sim.Time(2*sim.Second), 3*sim.Second))
		env.AddInterferer(NewCongestion(rng.New(41), Chan1, 0.4, 0.3, sim.Time(sim.Second), 0))
		return NewLink(rng.New(40), env, LinkParams{
			APPos: Position{0, 0}, Chan: Chan1, Client: client,
			ShadowDB: 6, ShadowT: sim.Second, FadeGood: 300 * sim.Millisecond, FadeBad: 100 * sim.Millisecond,
			ExtraLoss: 4, LateShiftDB: 8, LateShiftAt: sim.Time(5 * sim.Second),
		})
	}
	pos := Position{9, 4}
	fast, slow := mk(Static{Pos: pos}), mk(stillWalker{pos})
	slowAttempt := func(now sim.Time, rate Rate, priority bool) bool {
		_, coll := slow.env.Impact(now, slow.params.Chan, slow.params.Client.PositionAt(now))
		if priority {
			coll *= 0.5
		}
		if coll > 0 && slow.rng.Float64() < coll {
			return false
		}
		per := FrameErrorProb(slow.SNRdB(now), rate)
		return slow.rng.Float64() >= per
	}
	for i := 0; i < 20_000; i++ {
		now := sim.Time(i) * sim.Time(400*sim.Microsecond)
		rate, priority := RateTable[i%len(RateTable)], i%3 == 0
		if f, s := fast.RSSIdBm(now), slow.RSSIdBm(now); math.Float64bits(f) != math.Float64bits(s) {
			t.Fatalf("step %d: RSSI %v, per-query %v", i, f, s)
		}
		if f, s := fast.SNRdB(now), slow.SNRdB(now); math.Float64bits(f) != math.Float64bits(s) {
			t.Fatalf("step %d: SNR %v, per-query %v", i, f, s)
		}
		if f, s := fast.AttemptPriority(now, rate, priority), slowAttempt(now, rate, priority); f != s {
			t.Fatalf("step %d: attempt %v, per-query %v", i, f, s)
		}
	}
}

func TestAirtime(t *testing.T) {
	slow := AirtimeUS(160, RateTable[0])
	fast := AirtimeUS(160, RateTable[7])
	if slow <= fast {
		t.Errorf("slower rate should take longer: %v vs %v", slow, fast)
	}
	small := AirtimeUS(160, RateTable[3])
	big := AirtimeUS(1000, RateTable[3])
	if big <= small {
		t.Error("bigger frames should take longer")
	}
}

func TestGilbertElliottSojourns(t *testing.T) {
	rng := rng.New(1)
	g := NewGilbertElliott(rng, 100*sim.Millisecond, 50*sim.Millisecond)
	// Sample the chain every ms for 60 virtual seconds and check the
	// fraction of bad time is near MeanBad/(MeanGood+MeanBad) = 1/3.
	bad := 0
	n := 60000
	for i := 0; i < n; i++ {
		if g.Bad(sim.Time(i) * sim.Time(sim.Millisecond)) {
			bad++
		}
	}
	frac := float64(bad) / float64(n)
	if frac < 0.25 || frac > 0.42 {
		t.Errorf("bad fraction = %v, want near 1/3", frac)
	}
}

func TestGilbertElliottBursty(t *testing.T) {
	rng := rng.New(2)
	g := NewGilbertElliott(rng, 500*sim.Millisecond, 200*sim.Millisecond)
	// Sampling at 20 ms (VoIP spacing), consecutive samples should be
	// highly correlated: count state changes.
	changes, samples := 0, 5000
	prev := g.Bad(0)
	for i := 1; i < samples; i++ {
		cur := g.Bad(sim.Time(i) * sim.Time(20*sim.Millisecond))
		if cur != prev {
			changes++
		}
		prev = cur
	}
	if changes > samples/4 {
		t.Errorf("chain flips too often for burstiness: %d changes in %d samples", changes, samples)
	}
	if changes == 0 {
		t.Error("chain never changed state")
	}
}

func TestGilbertElliottAdvanceMonotone(t *testing.T) {
	// Querying the same instant repeatedly must not evolve the chain.
	rng := rng.New(3)
	g := NewGilbertElliott(rng, 10*sim.Millisecond, 10*sim.Millisecond)
	at := sim.Time(123456)
	first := g.Bad(at)
	for i := 0; i < 10; i++ {
		if g.Bad(at) != first {
			t.Fatal("repeated query changed state")
		}
	}
}

func TestShadowingStationary(t *testing.T) {
	rng := rng.New(4)
	s := NewShadowing(rng, 6, 2*sim.Second)
	var vals []float64
	for i := 0; i < 2000; i++ {
		vals = append(vals, s.ValueDB(sim.Time(i)*sim.Time(100*sim.Millisecond)))
	}
	mean, ss := 0.0, 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(len(vals)))
	if math.Abs(mean) > 1.5 {
		t.Errorf("shadowing mean = %v, want ~0", mean)
	}
	if sd < 4 || sd > 8 {
		t.Errorf("shadowing sd = %v, want ~6", sd)
	}
}

func TestShadowingSmooth(t *testing.T) {
	rng := rng.New(5)
	s := NewShadowing(rng, 6, 5*sim.Second)
	prev := s.ValueDB(0)
	for i := 1; i < 100; i++ {
		cur := s.ValueDB(sim.Time(i) * sim.Time(10*sim.Millisecond))
		if math.Abs(cur-prev) > 3 {
			t.Fatalf("shadowing jumped %v dB in 10ms", cur-prev)
		}
		prev = cur
	}
}

func TestMicrowaveImpact(t *testing.T) {
	m := NewMicrowave(Position{0, 0}, sim.Time(sim.Second), 10*sim.Second)
	near := Position{3, 0}
	far := Position{100, 0}
	// Before start: no impact.
	if p, c := m.Impact(0, Chan1, near); p != 0 || c != 0 {
		t.Error("oven impacting before start")
	}
	// During the ON phase of a cycle.
	onTime := sim.Time(sim.Second).Add(1 * sim.Millisecond)
	if p, _ := m.Impact(onTime, Chan1, near); p == 0 {
		t.Error("oven has no impact during ON phase")
	}
	// 5 GHz immune.
	if p, c := m.Impact(onTime, Chan36, near); p != 0 || c != 0 {
		t.Error("oven impacting 5GHz")
	}
	// Out of radius.
	if p, c := m.Impact(onTime, Chan1, far); p != 0 || c != 0 {
		t.Error("oven impacting beyond radius")
	}
	// OFF phase of the cycle (the calibrated oven is ON for 14.5 of each
	// 16.6 ms half-wave).
	offTime := sim.Time(sim.Second).Add(sim.FromMillis(15.5))
	if p, _ := m.Impact(offTime, Chan1, near); p != 0 {
		t.Error("oven impacting during OFF phase")
	}
	// After stop.
	if p, _ := m.Impact(sim.Time(20*sim.Second), Chan1, near); p != 0 {
		t.Error("oven impacting after stop")
	}
}

func TestMicrowaveDutyCycle(t *testing.T) {
	m := NewMicrowave(Position{0, 0}, 0, sim.Minute)
	on := 0
	n := 10000
	for i := 0; i < n; i++ {
		if p, _ := m.Impact(sim.Time(i)*sim.Time(sim.Millisecond), Chan1, Position{1, 0}); p > 0 {
			on++
		}
	}
	frac := float64(on) / float64(n)
	want := 14.5 / 16.6
	if frac < want-0.08 || frac > want+0.08 {
		t.Errorf("duty cycle = %v, want ~%.2f", frac, want)
	}
}

func TestCongestionChannelScoping(t *testing.T) {
	rng := rng.New(6)
	c := NewCongestion(rng, Chan1, 0.6, 0.3, 0, 0)
	if _, coll := c.Impact(0, Chan11, Position{}); coll != 0 {
		t.Error("congestion leaking to non-overlapping channel")
	}
	// Overlapping channel (ch3 overlaps ch1).
	if _, coll := c.Impact(0, Channel{Band2G4, 3}, Position{}); coll == 0 {
		t.Error("congestion not affecting overlapping channel")
	}
	if b := c.BusyFraction(0, Chan11); b != 0 {
		t.Error("busy fraction leaking across channels")
	}
}

func TestEnvironmentAggregation(t *testing.T) {
	env := NewEnvironment()
	rng := rng.New(7)
	env.AddInterferer(NewCongestion(rng, Chan1, 0.4, 0.2, 0, 0))
	env.AddInterferer(NewCongestion(rng, Chan1, 0.4, 0.2, 0, 0))
	_, coll := env.Impact(0, Chan1, Position{})
	if coll <= 0 || coll >= 1 {
		t.Errorf("combined collision = %v, want in (0,1)", coll)
	}
	// Busy fraction is capped.
	env.AddInterferer(NewCongestion(rng, Chan1, 0.9, 0.2, 0, 0))
	var maxBusy float64
	for i := 0; i < 100; i++ {
		if b := env.BusyFraction(sim.Time(i)*sim.Time(100*sim.Millisecond), Chan1, Position{}); b > maxBusy {
			maxBusy = b
		}
	}
	if maxBusy > 0.9 {
		t.Errorf("busy fraction uncapped: %v", maxBusy)
	}
}

func TestStaticAndOrbitMobility(t *testing.T) {
	s := Static{Pos: Position{3, 4}}
	if s.PositionAt(123) != (Position{3, 4}) {
		t.Error("static moved")
	}
	o := Orbit{Center: Position{0, 0}, RadiusM: 5, PeriodUS: sim.Duration(sim.Second)}
	p0 := o.PositionAt(0)
	if math.Abs(p0.DistanceTo(Position{0, 0})-5) > 1e-9 {
		t.Errorf("orbit radius violated: %v", p0)
	}
	pHalf := o.PositionAt(sim.Time(sim.Second / 2))
	if pHalf.X >= 0 {
		t.Errorf("half-period position should be opposite side: %+v", pHalf)
	}
}

func TestRandomWaypointInBounds(t *testing.T) {
	rng := rng.New(8)
	w := NewRandomWaypoint(rng, 0, 0, 30, 15, 1.2, sim.Second, 2*sim.Minute)
	for i := 0; i < 1000; i++ {
		p := w.PositionAt(sim.Time(i) * sim.Time(120*sim.Millisecond))
		if p.X < -1e-9 || p.X > 30+1e-9 || p.Y < -1e-9 || p.Y > 15+1e-9 {
			t.Fatalf("waypoint walker escaped: %+v", p)
		}
	}
}

func TestRandomWaypointSpeedLimit(t *testing.T) {
	rng := rng.New(9)
	speed := 1.5
	w := NewRandomWaypoint(rng, 0, 0, 30, 15, speed, 500*sim.Millisecond, 2*sim.Minute)
	step := sim.Time(50 * sim.Millisecond)
	prev := w.PositionAt(0)
	for i := 1; i < 2000; i++ {
		cur := w.PositionAt(sim.Time(i) * step)
		dist := cur.DistanceTo(prev)
		maxStep := speed*sim.Duration(step).Seconds() + 0.51 // 0.5m near-field clamp in DistanceTo
		if dist > maxStep {
			t.Fatalf("walker teleported %vm in one step", dist)
		}
		prev = cur
	}
}

func TestLinkSNRDegradesWithDistance(t *testing.T) {
	env := NewEnvironment()
	rng := rng.New(10)
	mk := func(d float64) *Link {
		return NewLink(rng, env, LinkParams{
			APPos:  Position{0, 0},
			Chan:   Chan1,
			Client: Static{Pos: Position{d, 0}},
			// No shadowing/fading noise for a clean comparison.
			ShadowDB: 0, FadeGood: sim.Minute * 100, FadeBad: sim.Millisecond,
		})
	}
	near, far := mk(3), mk(40)
	if near.SNRdB(0) <= far.SNRdB(0) {
		t.Error("nearer link should have higher SNR")
	}
	if near.RSSIdBm(0) <= far.RSSIdBm(0) {
		t.Error("nearer link should have higher RSSI")
	}
}

func TestLinkAttemptQuality(t *testing.T) {
	env := NewEnvironment()
	rng := rng.New(11)
	good := NewLink(rng, env, LinkParams{
		APPos: Position{0, 0}, Chan: Chan1,
		Client:   Static{Pos: Position{3, 0}},
		ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
	})
	bad := NewLink(rng, env, LinkParams{
		APPos: Position{0, 0}, Chan: Chan11,
		Client:   Static{Pos: Position{60, 0}},
		ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
		ExtraLoss: 15,
	})
	rate := RateTable[3]
	okGood, okBad := 0, 0
	for i := 0; i < 2000; i++ {
		now := sim.Time(i) * sim.Time(sim.Millisecond)
		if good.Attempt(now, rate) {
			okGood++
		}
		if bad.Attempt(now, rate) {
			okBad++
		}
	}
	if okGood < 1900 {
		t.Errorf("good link success = %d/2000, want ~all", okGood)
	}
	if okBad > 200 {
		t.Errorf("bad link success = %d/2000, want ~none", okBad)
	}
}

func TestMIMODiversityReducesFadeLoss(t *testing.T) {
	// With several independent fading branches, the probability that all
	// are simultaneously bad is much smaller — SNR dips should be rarer.
	env := NewEnvironment()
	countBad := func(order int, seed int64) int {
		rng := rng.New(seed)
		l := NewLink(rng, env, LinkParams{
			APPos: Position{0, 0}, Chan: Chan1,
			Client:   Static{Pos: Position{10, 0}},
			ShadowDB: 0,
			FadeGood: 2 * sim.Second, FadeBad: sim.Second,
			MIMOOrder: order,
		})
		bad := 0
		for i := 0; i < 5000; i++ {
			if l.fadePenaltyDB(sim.Time(i)*sim.Time(20*sim.Millisecond)) > 0 {
				bad++
			}
		}
		return bad
	}
	siso := countBad(1, 20)
	mimo := countBad(4, 20)
	if mimo >= siso/2 {
		t.Errorf("MIMO(4) bad time %d not ≪ SISO %d", mimo, siso)
	}
}

func TestMIMODoesNotHelpInterference(t *testing.T) {
	// Microwave interference penalises all spatial streams equally: the
	// SNR with and without MIMO must match during an ON phase once fading
	// is disabled.
	env := NewEnvironment()
	env.AddInterferer(NewMicrowave(Position{0, 0}, 0, sim.Minute))
	mk := func(order int) *Link {
		rng := rng.New(30)
		return NewLink(rng, env, LinkParams{
			APPos: Position{0, 0}, Chan: Chan1,
			Client:   Static{Pos: Position{3, 0}},
			ShadowDB: 0, FadeGood: 100 * sim.Minute, FadeBad: sim.Millisecond,
			MIMOOrder: order,
		})
	}
	onTime := sim.Time(1 * sim.Millisecond)
	if math.Abs(mk(1).SNRdB(onTime)-mk(4).SNRdB(onTime)) > 1e-9 {
		t.Error("MIMO changed interference-limited SNR")
	}
}

func BenchmarkGilbertElliott(b *testing.B) {
	g := NewGilbertElliott(rng.New(3), sim.Second, 200*sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Bad(sim.Time(i) * sim.Time(20*sim.Millisecond))
	}
}
