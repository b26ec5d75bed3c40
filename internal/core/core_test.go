package core

import (
	"encoding/json"
	"repro/internal/sim/rng"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func shortScenario(seed int64, extraA, extraB float64) Scenario {
	return ControlledScenario(seed, traffic.G711, 20*sim.Second, extraA, extraB)
}

func TestRunDualCallDeterministic(t *testing.T) {
	sc := shortScenario(1, 0, 5)
	a := RunDualCall(sc)
	b := RunDualCall(sc)
	if a.RSSIA != b.RSSIA || a.RSSIB != b.RSSIB {
		t.Fatal("RSSI differs between identical runs")
	}
	la := a.TraceA.LostWithDeadline(traffic.G711.Deadline)
	lb := b.TraceA.LostWithDeadline(traffic.G711.Deadline)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("loss pattern diverged at %d", i)
		}
	}
}

func TestRunDualCallCleanLinks(t *testing.T) {
	d := RunDualCall(shortScenario(2, 0, 0))
	for name, tr := range map[string]interface {
		LostWithDeadline(sim.Duration) []bool
	}{"A": d.TraceA, "B": d.TraceB} {
		lost := tr.LostWithDeadline(traffic.G711.Deadline)
		if r := stats.LossRate(lost); r > 0.01 {
			t.Errorf("clean link %s loss = %v", name, r)
		}
	}
}

func TestStrongerPicksHigherRSSI(t *testing.T) {
	// Link B attenuated 20 dB: A must be the stronger link.
	d := RunDualCall(shortScenario(3, 0, 20))
	if !d.StrongerIsA() {
		t.Fatalf("RSSI A %.1f vs B %.1f: stronger should be A", d.RSSIA, d.RSSIB)
	}
	if d.StrongerTrace() != d.TraceA || d.WeakerTrace() != d.TraceB {
		t.Fatal("trace accessors disagree with RSSI ordering")
	}
}

func TestCrossLinkNeverWorseThanEitherLink(t *testing.T) {
	rng := rng.New(4)
	for i := 0; i < 5; i++ {
		sc := RandomScenario(rng, ImpWeakLink, traffic.G711, int64(100+i)).WithDuration(30 * sim.Second)
		d := RunDualCall(sc)
		deadline := traffic.G711.Deadline
		merged := stats.LossRate(d.CrossLink().LostWithDeadline(deadline))
		lA := stats.LossRate(d.TraceA.LostWithDeadline(deadline))
		lB := stats.LossRate(d.TraceB.LostWithDeadline(deadline))
		if merged > lA+1e-9 || merged > lB+1e-9 {
			t.Fatalf("merged loss %v exceeds a member link (%v, %v)", merged, lA, lB)
		}
	}
}

func TestBetterFollowsTrialPeriod(t *testing.T) {
	// Secondary dead from the start: better must stick with the stronger
	// link after the trial.
	d := RunDualCall(shortScenario(5, 0, 55))
	better := d.Better(5 * sim.Second)
	lost := better.LostWithDeadline(traffic.G711.Deadline)
	if r := stats.LossRate(lost); r > 0.02 {
		t.Errorf("better picked the dead link: loss %v", r)
	}
}

func TestDivertSwitchesOnLoss(t *testing.T) {
	// Both links identical quality: Divert output should roughly match
	// either link's loss, and must produce a full-length trace.
	d := RunDualCall(shortScenario(6, 3, 3))
	out := d.Divert(1, 1)
	if out.Len() != d.TraceA.Len() {
		t.Fatalf("divert trace length %d", out.Len())
	}
	// On clean links Divert stays clean.
	if r := stats.LossRate(out.LostWithDeadline(traffic.G711.Deadline)); r > 0.02 {
		t.Errorf("divert loss on clean links = %v", r)
	}
}

func TestDivertParamValidation(t *testing.T) {
	d := RunDualCall(shortScenario(7, 0, 0))
	out := d.Divert(0, 0) // clamps to 1,1 rather than panicking
	if out.Len() != d.TraceA.Len() {
		t.Fatal("clamped divert broken")
	}
}

func TestRunTemporalImprovesOnBaseline(t *testing.T) {
	// A fading link: duplicating each packet 100 ms later must recover
	// some losses (the copies see different fade states).
	sc := ControlledScenario(8, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 600*sim.Millisecond, 150*sim.Millisecond, 60).
		WithFading(false, 600*sim.Millisecond, 150*sim.Millisecond, 60)
	repl, base := RunTemporal(sc, 100*sim.Millisecond)
	// Figure-2-style network-level accounting: the end-to-end one-way
	// budget (~150 ms) admits Δ=100 ms copies.
	deadline := 150 * sim.Millisecond
	lr := stats.LossRate(repl.LostWithDeadline(deadline))
	lb := stats.LossRate(base.LostWithDeadline(deadline))
	if lb == 0 {
		t.Skip("no baseline loss with this seed")
	}
	if lr >= lb {
		t.Errorf("temporal replication did not help: %v vs %v", lr, lb)
	}
}

func TestRunTemporalZeroDeltaBarelyHelpsBursts(t *testing.T) {
	// Back-to-back copies share the fade: improvement should be much
	// smaller than with a 100 ms offset.
	sc := ControlledScenario(9, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 600*sim.Millisecond, 200*sim.Millisecond, 60).
		WithFading(false, 600*sim.Millisecond, 200*sim.Millisecond, 60)
	deadline := 150 * sim.Millisecond
	repl0, base0 := RunTemporal(sc, 0)
	repl100, base100 := RunTemporal(sc, 100*sim.Millisecond)
	gain := func(repl, base float64) float64 {
		if base == 0 {
			return 0
		}
		return (base - repl) / base
	}
	g0 := gain(stats.LossRate(repl0.LostWithDeadline(deadline)), stats.LossRate(base0.LostWithDeadline(deadline)))
	g100 := gain(stats.LossRate(repl100.LostWithDeadline(deadline)), stats.LossRate(base100.LostWithDeadline(deadline)))
	if g100 <= g0 {
		t.Errorf("Δ=100ms gain %.2f not above Δ=0 gain %.2f", g100, g0)
	}
}

func TestRunDiversiFiCleanLinks(t *testing.T) {
	r := RunDiversiFi(shortScenario(10, 0, 0), DiversiFiOptions{Mode: ModeCustomAP})
	lost := r.Trace.LostWithDeadline(traffic.G711.Deadline)
	if rate := stats.LossRate(lost); rate > 0.01 {
		t.Errorf("clean-link DiversiFi loss = %v", rate)
	}
	if r.WastefulRate > 0.05 {
		t.Errorf("clean-link waste = %v", r.WastefulRate)
	}
}

func TestRunDiversiFiRecoversFadingPrimary(t *testing.T) {
	sc := ControlledScenario(11, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 1200*sim.Millisecond, 60*sim.Millisecond, 60)
	// Single-link baseline: the primary alone.
	dual := RunDualCall(sc)
	baseLoss := stats.LossRate(dual.StrongerTrace().LostWithDeadline(traffic.G711.Deadline))
	if baseLoss < 0.005 {
		t.Skip("fading produced no baseline loss with this seed")
	}
	r := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	dLoss := stats.LossRate(r.Trace.LostWithDeadline(traffic.G711.Deadline))
	if dLoss > baseLoss/3 {
		t.Errorf("DiversiFi residual %v not ≪ baseline %v", dLoss, baseLoss)
	}
	if r.Client.Recovered == 0 {
		t.Error("no recoveries recorded")
	}
}

func TestRunDiversiFiMiddleboxMode(t *testing.T) {
	sc := ControlledScenario(12, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 1200*sim.Millisecond, 60*sim.Millisecond, 60)
	r := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeMiddlebox})
	if r.Client.Recovered == 0 {
		t.Fatal("middlebox mode recovered nothing")
	}
	dLoss := stats.LossRate(r.Trace.LostWithDeadline(traffic.G711.Deadline))
	if dLoss > 0.02 {
		t.Errorf("middlebox-mode residual loss = %v", dLoss)
	}
	if len(r.Recoveries) == 0 {
		t.Fatal("no recovery delays measured")
	}
	// Middlebox recoveries include the request round trip: slower than
	// the bare switch cost, still well under the 100 ms deadline.
	for _, ev := range r.Recoveries {
		if d := ev.Total; d > 100*sim.Millisecond {
			t.Errorf("recovery delay %v exceeds deadline", d)
		}
		if d := ev.Total; d < 2800*sim.Microsecond {
			t.Errorf("recovery delay %v below the physical switch cost", d)
		}
	}

	// Pin the exact outcome: no sweep job or simtest golden runs
	// ModeMiddlebox, so this is tier-1's only exact check of the
	// simulated middlebox's buffering, selection and timing.
	var delaySum sim.Duration
	for _, ev := range r.Recoveries {
		delaySum += ev.Total
	}
	lost := 0
	for _, l := range r.Trace.LostWithDeadline(traffic.G711.Deadline) {
		if l {
			lost++
		}
	}
	got := [...]int{r.Client.Recovered, len(r.Recoveries), int(delaySum / sim.Microsecond),
		r.Client.DuplicatesReceived, lost, r.Secondary.Transmitted, r.Secondary.WastedTransmissions}
	want := [...]int{67, 33, 156658, 45, 2, 131, 15}
	if got != want {
		t.Errorf("recovered, delays, delay sum (µs), duplicates, lost, secondary tx, wasted = %v, want %v", got, want)
	}
	if r.WastefulRate != 0.02 {
		t.Errorf("wasteful rate = %v, want 0.02", r.WastefulRate)
	}
}

func TestModeStockAPWastesMore(t *testing.T) {
	sc := ControlledScenario(13, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 900*sim.Millisecond, 80*sim.Millisecond, 60)
	custom := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	stock := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeStockAP})
	// The stock AP's deep tail-drop queue forces the client to sit
	// through a backlog: more wasted/duplicate transmissions.
	if stock.WastefulRate <= custom.WastefulRate {
		t.Errorf("stock AP waste %v not above custom AP %v",
			stock.WastefulRate, custom.WastefulRate)
	}
}

func TestRecoveryDelaysPlausible(t *testing.T) {
	sc := ControlledScenario(14, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 1500*sim.Millisecond, 30*sim.Millisecond, 60)
	r := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	if len(r.Recoveries) == 0 {
		t.Skip("no recoveries this seed")
	}
	for _, ev := range r.Recoveries {
		if d := ev.Total; d < 2800*sim.Microsecond || d > 50*sim.Millisecond {
			t.Errorf("AP recovery delay %v outside plausible range", d)
		}
	}
}

func TestTCPCoexistenceSmallImpact(t *testing.T) {
	sc := shortScenario(15, 0, 0).WithDuration(60 * sim.Second)
	with, without, absent := TCPCoexistence(sc)
	if absent < 0 || absent > 0.05 {
		t.Errorf("absent fraction = %v, want small", absent)
	}
	if with <= 0 || without <= 0 {
		t.Fatalf("throughputs %v / %v", with, without)
	}
	// DiversiFi on a clean call (keepalives only) costs at most a few
	// percent of TCP throughput.
	if with < without*0.85 {
		t.Errorf("TCP with DiversiFi %v ≪ without %v", with, without)
	}
}

func TestScenarioAccessors(t *testing.T) {
	sc := ControlledScenario(16, traffic.G711, 2*sim.Minute, 0, 0)
	if sc.PacketCount() != 6000 {
		t.Errorf("2-minute G.711 call = %d packets", sc.PacketCount())
	}
	hs := sc
	hs.Profile = traffic.HighRate
	if hs.PacketCount() != 75000 {
		t.Errorf("2-minute 5 Mbps call = %d packets", hs.PacketCount())
	}
	if sc.WithMIMO(4).MIMOOrder != 4 {
		t.Error("WithMIMO ignored")
	}
	if sc.WithDuration(sim.Minute).PacketCount() != 3000 {
		t.Error("WithDuration ignored")
	}
}

// TestParamsPinnedOvenAndWalk: the generator knobs must reach Build — a
// pinned oven interval consumes no draws from the oven stream, and the
// walk overrides change the trajectory.
func TestParamsPinnedOvenAndWalk(t *testing.T) {
	sc := ControlledScenario(1, traffic.G711, 2*sim.Second, 0, 6)
	sc.Oven = true
	sc.OvenPos = phy.Position{X: 15, Y: 7}
	sc.OvenStart = sim.Time(1 * sim.Second)
	sc.OvenDur = 20 * sim.Second

	s := sim.New(1)
	links := sc.Build(s)
	if links.Env == nil {
		t.Fatal("Build returned no environment")
	}
	// The pinned interval must not touch the oven stream: its first draw
	// equals a fresh stream's first draw.
	if got, want := s.RNG("scenario/oven").Float64(), rng.Named(1, "scenario/oven").Float64(); got != want {
		t.Errorf("pinned oven consumed draws from the oven stream (%v != %v)", got, want)
	}

	fast := ControlledScenario(2, traffic.G711, 2*sim.Second, 0, 6)
	fast.Mobile = true
	fast.WalkSpeed = 3.0
	fast.WalkPause = sim.Second
	slow := fast
	slow.WalkSpeed = 0.3
	posAt := func(sc Scenario) phy.Position {
		s := sim.New(2)
		return sc.Build(s).Mob.PositionAt(sim.Time(10 * sim.Second))
	}
	if posAt(fast) == posAt(slow) {
		t.Errorf("walk speed override did not change the trajectory")
	}
}

func TestImpairmentStrings(t *testing.T) {
	want := map[Impairment]string{
		ImpNone: "none", ImpWeakLink: "weak-link", ImpMobility: "mobility",
		ImpMicrowave: "microwave", ImpCongestion: "congestion",
	}
	for imp, s := range want {
		if imp.String() != s {
			t.Errorf("%d.String() = %q", imp, imp.String())
		}
		if got, ok := ImpairmentByName(s); !ok || got != imp {
			t.Errorf("ImpairmentByName(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ImpairmentByName("martian"); ok {
		t.Error("unknown impairment name resolved")
	}
	// sweep.RunJob makes one lookup per job.
	if n := testing.AllocsPerRun(100, func() { ImpairmentByName("congestion") }); n != 0 {
		t.Errorf("ImpairmentByName allocates %v objects", n)
	}
	if ModeCustomAP.String() != "custom-ap" || ModeMiddlebox.String() != "middlebox" || ModeStockAP.String() != "stock-ap" {
		t.Error("mode strings wrong")
	}
}

func TestRandomScenarioCoversImpairments(t *testing.T) {
	rng := rng.New(17)
	for _, imp := range AllImpairments {
		sc := RandomScenario(rng, imp, traffic.G711, 500)
		if sc.Impairment != imp {
			t.Errorf("scenario has impairment %v, want %v", sc.Impairment, imp)
		}
		if sc.PacketCount() != 6000 {
			t.Errorf("%v scenario packet count %d", imp, sc.PacketCount())
		}
		// Build must succeed and produce two live links.
		s := sim.New(sc.Seed)
		links := sc.Build(s)
		if links.A == nil || links.B == nil || links.Env == nil {
			t.Fatalf("%v scenario build incomplete", imp)
		}
	}
}

func TestUplinkBaselineLosesOnFadingLink(t *testing.T) {
	sc := ControlledScenario(30, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 900*sim.Millisecond, 80*sim.Millisecond, 60)
	r := RunUplink(sc, false)
	lost := r.Trace.LostWithDeadline(traffic.G711.Deadline)
	if stats.LossRate(lost) < 0.005 {
		t.Skip("no uplink loss with this seed")
	}
	if r.Stats.RecoverySwitches != 0 || r.Stats.Retransmitted != 0 {
		t.Error("baseline uplink should never switch")
	}
}

func TestUplinkDiversiFiRecovers(t *testing.T) {
	sc := ControlledScenario(30, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 900*sim.Millisecond, 80*sim.Millisecond, 60)
	base := RunUplink(sc, false)
	div := RunUplink(sc, true)
	deadline := traffic.G711.Deadline
	baseLoss := stats.LossRate(base.Trace.LostWithDeadline(deadline))
	divLoss := stats.LossRate(div.Trace.LostWithDeadline(deadline))
	if baseLoss < 0.005 {
		t.Skip("no baseline loss with this seed")
	}
	if divLoss > baseLoss/2 {
		t.Errorf("uplink DiversiFi residual %v not well below baseline %v", divLoss, baseLoss)
	}
	if div.Stats.Recovered == 0 {
		t.Error("no uplink recoveries recorded")
	}
	// Recoveries must respect the deadline.
	tr := div.Trace
	for seq := 0; seq < tr.Len(); seq++ {
		if !tr.Arrived(seq) {
			continue
		}
		if tr.ArrivalTime(seq).Sub(sim.Time(seq)*sim.Time(traffic.G711.Spacing)) > traffic.G711.Deadline+sim.FromMillis(5) {
			t.Fatalf("uplink packet %d delivered past deadline", seq)
		}
	}
}

func TestUplinkCleanLink(t *testing.T) {
	sc := shortScenario(31, 0, 0)
	r := RunUplink(sc, true)
	lost := r.Trace.LostWithDeadline(traffic.G711.Deadline)
	if rate := stats.LossRate(lost); rate > 0.01 {
		t.Errorf("clean uplink loss = %v", rate)
	}
	if r.Stats.RecoverySwitches > r.Stats.PrimaryFailures {
		t.Error("more switches than failures")
	}
}

func TestFECRepairsIsolatedLoss(t *testing.T) {
	sc := ControlledScenario(40, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 1500*sim.Millisecond, 25*sim.Millisecond, 60).
		WithFading(false, 1500*sim.Millisecond, 25*sim.Millisecond, 60)
	r := RunFEC(sc, 4)
	deadline := 150 * sim.Millisecond
	rawLoss := stats.LossRate(r.Raw.LostWithDeadline(deadline))
	decLoss := stats.LossRate(r.Decoded.LostWithDeadline(deadline))
	if rawLoss < 0.002 {
		t.Skip("no raw loss with this seed")
	}
	if decLoss >= rawLoss {
		t.Errorf("FEC did not repair: %v vs %v", decLoss, rawLoss)
	}
	if r.Repaired == 0 {
		t.Error("no repairs recorded")
	}
	if want := sc.PacketCount() / 4; r.ParitySent != want {
		t.Errorf("parity count %d, want %d", r.ParitySent, want)
	}
}

func TestFECCannotRepairBursts(t *testing.T) {
	// Long bad states knock out whole blocks: with k=4 and 20 ms spacing,
	// a 200 ms outage kills 10 packets — multiple per block — and the
	// parity is useless. FEC's repair count must be a small fraction of
	// the losses.
	sc := ControlledScenario(41, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 800*sim.Millisecond, 250*sim.Millisecond, 60).
		WithFading(false, 800*sim.Millisecond, 250*sim.Millisecond, 60)
	r := RunFEC(sc, 4)
	lost := 0
	for _, l := range r.Raw.LostWithDeadline(150 * sim.Millisecond) {
		if l {
			lost++
		}
	}
	if lost < 50 {
		t.Skip("not enough burst loss with this seed")
	}
	if float64(r.Repaired) > 0.3*float64(lost) {
		t.Errorf("FEC repaired %d of %d burst losses; expected a small fraction", r.Repaired, lost)
	}
}

func TestFECParamClamp(t *testing.T) {
	sc := shortScenario(42, 0, 0)
	r := RunFEC(sc, 0) // clamps to k=2
	if r.ParitySent != sc.PacketCount()/2 {
		t.Errorf("clamped k produced %d parity packets", r.ParitySent)
	}
}

func TestMultiCallShapes(t *testing.T) {
	sc := shortScenario(43, 0, 5)
	traces := RunMultiCall(sc, 4)
	if len(traces) != 4 {
		t.Fatalf("got %d traces", len(traces))
	}
	for i, tr := range traces {
		if tr.Len() != sc.PacketCount() {
			t.Fatalf("trace %d has %d packets", i, tr.Len())
		}
	}
	// Clamping.
	if got := len(RunMultiCall(sc, 0)); got != 1 {
		t.Errorf("n=0 gave %d traces", got)
	}
	if got := len(RunMultiCall(sc, 99)); got != 6 {
		t.Errorf("n=99 gave %d traces", got)
	}
}

func TestMergeKClamps(t *testing.T) {
	sc := shortScenario(44, 0, 0)
	traces := RunMultiCall(sc, 3)
	if MergeK(traces, 0).Len() != traces[0].Len() {
		t.Error("MergeK(0) broken")
	}
	if MergeK(traces, 99).Len() != traces[0].Len() {
		t.Error("MergeK(overlong) broken")
	}
}

func TestLongCallSoak(t *testing.T) {
	// A 10-minute call through the full DiversiFi stack: exercises timer
	// churn, keepalives, and long-horizon fading without leaks or drift.
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	sc := ControlledScenario(50, traffic.G711, 10*sim.Minute, 0, 0).
		WithFading(true, 2*sim.Second, 100*sim.Millisecond, 60)
	r := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	if r.Trace.Len() != 30000 {
		t.Fatalf("10-minute call = %d packets", r.Trace.Len())
	}
	lost := r.Trace.LostWithDeadline(traffic.G711.Deadline)
	if rate := stats.LossRate(lost); rate > 0.01 {
		t.Errorf("soak residual loss = %v", rate)
	}
	// Frequent recovery visits refresh the secondary association, so
	// explicit keepalives may legitimately never fire; the association
	// must have been visited many times one way or the other.
	if visits := r.Client.RecoverySwitches + r.Client.KeepaliveSwitches; visits < 20 {
		t.Errorf("only %d secondary visits over 10 minutes", visits)
	}
}

func TestFullAssociationDeliversQueueConfig(t *testing.T) {
	sc := ControlledScenario(60, traffic.G711, 60*sim.Second, 0, 0).
		WithFading(true, 1200*sim.Millisecond, 60*sim.Millisecond, 60)
	r := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP, FullAssociation: true})
	if r.AssociationDelay <= 0 {
		t.Fatal("no association delay recorded")
	}
	// Scan (2 × 20 ms dwell) + two handshakes: tens of milliseconds.
	if r.AssociationDelay < 40*sim.Millisecond || r.AssociationDelay > 300*sim.Millisecond {
		t.Errorf("association delay = %v", r.AssociationDelay)
	}
	// The queue config arrived via the IE: recovery must work as usual.
	if r.Client.Recovered == 0 {
		t.Fatal("no recoveries after IE-configured association")
	}
	dLoss := stats.LossRate(r.Trace.LostWithDeadline(traffic.G711.Deadline))
	if dLoss > 0.02 {
		t.Errorf("residual loss with full association = %v", dLoss)
	}
}

func TestFullAssociationMatchesDirectConfig(t *testing.T) {
	// With clean links the IE-configured run must behave like the
	// directly-configured one (same recovery machinery).
	sc := ControlledScenario(61, traffic.G711, 30*sim.Second, 0, 0).
		WithFading(true, 1500*sim.Millisecond, 30*sim.Millisecond, 60)
	direct := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})
	viaIE := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP, FullAssociation: true})
	deadline := traffic.G711.Deadline
	dl := stats.LossRate(direct.Trace.LostWithDeadline(deadline))
	il := stats.LossRate(viaIE.Trace.LostWithDeadline(deadline))
	// Same machinery, slightly shifted timelines: both must be tiny.
	if dl > 0.02 || il > 0.02 {
		t.Errorf("residual losses direct=%v viaIE=%v", dl, il)
	}
	if viaIE.Client.Recovered == 0 {
		t.Error("IE-configured run recovered nothing")
	}
}

// TestScenarioJSONRoundTrip: a Scenario's JSON encoding is the scenario
// file format, so decoding it must give back the same struct, and the
// decoded scenario must replay the same call.
func TestScenarioJSONRoundTrip(t *testing.T) {
	rng := rng.New(70)
	for _, imp := range AllImpairments {
		orig := RandomScenario(rng, imp, traffic.G711, 7000+int64(imp))
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("%v: marshal: %v", imp, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: unmarshal: %v", imp, err)
		}
		if back != orig {
			t.Fatalf("%v: round trip changed the scenario:\n got %+v\nwant %+v", imp, back, orig)
		}
		// The round-tripped scenario must reproduce the run exactly.
		a := RunDualCall(orig.WithDuration(20 * sim.Second))
		b := RunDualCall(back.WithDuration(20 * sim.Second))
		la := a.TraceA.LostWithDeadline(traffic.G711.Deadline)
		lb := b.TraceA.LostWithDeadline(traffic.G711.Deadline)
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%v: round-tripped scenario diverged at packet %d", imp, i)
			}
		}
	}
}
