// Package core is the DiversiFi library proper: it wires the substrates
// (PHY, MAC, AP, client, wired network, middlebox) into runnable calls and
// implements every link-usage strategy the paper evaluates — stronger/
// better selection, Divert-style fine-grained selection, temporal
// replication, 2-NIC cross-link replication, and the single-NIC DiversiFi
// client with either a customized AP or a middlebox.
package core

import (
	"fmt"
	"repro/internal/sim/rng"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Impairment labels the challenging situations of the paper's measurement
// corpus (§4, Figure 6).
type Impairment int

const (
	ImpNone Impairment = iota
	ImpWeakLink
	ImpMobility
	ImpMicrowave
	ImpCongestion
)

func (i Impairment) String() string {
	switch i {
	case ImpNone:
		return "none"
	case ImpWeakLink:
		return "weak-link"
	case ImpMobility:
		return "mobility"
	case ImpMicrowave:
		return "microwave"
	case ImpCongestion:
		return "congestion"
	default:
		return fmt.Sprintf("Impairment(%d)", int(i))
	}
}

// AllImpairments lists the corpus categories in presentation order.
var AllImpairments = []Impairment{ImpNone, ImpWeakLink, ImpMobility, ImpMicrowave, ImpCongestion}

// ImpairmentByName returns the impairment whose String() is name. It is the
// one name table for flags and spec documents, and allocates nothing.
func ImpairmentByName(name string) (Impairment, bool) {
	for _, imp := range AllImpairments {
		if imp.String() == name {
			return imp, true
		}
	}
	return ImpNone, false
}

// ScenarioLink holds the stochastic parameters of one AP↔client link:
// static attenuation, lognormal shadowing, and the Gilbert–Elliott
// deep-fade process. Durations are exact simulator microseconds.
type ScenarioLink struct {
	ExtraLossDB  float64
	ShadowDB     float64
	ShadowDecorr sim.Duration
	FadeGood     sim.Duration // mean Gilbert–Elliott Good sojourn
	FadeBad      sim.Duration // mean Gilbert–Elliott Bad sojourn
	FadeDepthDB  float64
}

// Scenario describes one simulated call's environment: the office geometry
// of §6.1 (two APs at diagonal corners of a 30 m × 15 m space), the client
// placement or trajectory, per-link stochastic parameters, and at most one
// named impairment. It is the one description of a call: generators set
// its fields directly, and its JSON encoding is the scenario file format.
type Scenario struct {
	Impairment Impairment
	Profile    traffic.Profile
	Duration   sim.Duration
	MIMOOrder  int
	Seed       int64

	APA, APB  phy.Position
	ChanA     phy.Channel
	ChanB     phy.Channel
	ClientPos phy.Position // static placement (ignored when Mobile)
	Mobile    bool
	// Mobility overrides. Zero values fall back to the §6.1 defaults, so
	// scenarios generated before these knobs existed are unchanged.
	WalkSpeed float64      // m/s; 0 = default 1.2
	WalkPause sim.Duration // pause between waypoint legs; 0 = default 2 s
	LinkA     ScenarioLink
	LinkB     ScenarioLink

	CongestA    bool    // congestion on channel A
	CongestB    bool    // congestion on channel B
	CongestHit  float64 // collision probability during saturated periods
	CongestBusy float64 // busy fraction during saturated periods

	Oven    bool
	OvenPos phy.Position
	// Pinned oven duty interval: when OvenDur > 0 the microwave runs over
	// exactly [OvenStart, OvenStart+OvenDur] instead of drawing the
	// interval from the "scenario/oven" stream in Build. The zero value
	// preserves the historical draw, so existing seeds replay bit-for-bit.
	OvenStart sim.Time
	OvenDur   sim.Duration

	// Mid-call collapse (non-stationarity): LateShiftDB lands at LateAt on
	// the weaker link (or the stronger one when LateOnStronger).
	LateShiftDB    float64
	LateAt         sim.Duration
	LateOnStronger bool
}

// Office dimensions from §6.1. The exported names serve the scenario
// generator (internal/scenario), which places APs, clients, and
// interferers inside the same geometry the paper's experiments use.
const (
	officeW = 30.0
	officeH = 15.0

	OfficeWidthM  = officeW
	OfficeHeightM = officeH
)

// RandomScenario draws a scenario of the given impairment class. rng is
// corpus-level randomness (placement, parameters); the per-call fading and
// interference draws come from the simulator seeded with Seed.
func RandomScenario(rng *rng.Stream, imp Impairment, profile traffic.Profile, seed int64) Scenario {
	return RandomScenarioSeverity(rng, imp, profile, seed, 1.0)
}

// RandomScenarioSeverity is RandomScenario with an impairment severity
// scale: 1.0 reproduces the §4 "wild" conditions, smaller values the
// milder §6 office deployment.
func RandomScenarioSeverity(rng *rng.Stream, imp Impairment, profile traffic.Profile, seed int64, severity float64) Scenario {
	sc := Scenario{
		Impairment: imp,
		Profile:    profile,
		Duration:   2 * sim.Minute,
		MIMOOrder:  1,
		Seed:       seed,
		APA:        phy.Position{X: 2, Y: 2},
		APB:        phy.Position{X: officeW - 2, Y: officeH - 2},
		ChanA:      phy.Chan1,
		ChanB:      phy.Chan11,
	}
	uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	dur := func(lo, hi float64) sim.Duration { return sim.FromSeconds(uni(lo, hi)) }

	sc.ClientPos = phy.Position{X: uni(2, officeW-2), Y: uni(1, officeH-1)}
	baseSpec := func() ScenarioLink {
		return ScenarioLink{
			ShadowDB:     uni(4, 6),
			ShadowDecorr: dur(3, 10),
			FadeGood:     dur(15, 60),
			FadeBad:      dur(0.15, 0.6),
			FadeDepthDB:  uni(15, 40),
		}
	}
	sc.LinkA = baseSpec()
	sc.LinkB = baseSpec()
	// Independent wall/obstruction attenuation per link.
	sc.LinkA.ExtraLossDB = uni(0, 6)
	sc.LinkB.ExtraLossDB = uni(0, 12)
	// Environments are non-stationary: with some probability a link
	// collapses partway through the call (door, crowd, re-parked cart).
	// The collapse usually hits the link that started out weaker:
	// marginal links live near fragile geometry. The occasionally-
	// collapsing strong link feeds `stronger`'s tail; the often-
	// collapsing weak link is the trap `better` walks into when the
	// strong link had an unlucky trial period. Target selection happens
	// in Build, where the realized call-start RSSI is known.
	if rng.Float64() < 0.3*severity {
		sc.LateShiftDB = uni(12, 28) * severity
		sc.LateAt = dur(10, 90)
		sc.LateOnStronger = rng.Float64() < 0.1
	}

	switch imp {
	case ImpWeakLink:
		// Deep in the building: both links attenuated, fades become
		// fatal, and slow shadowing drifts shift link quality mid-call
		// (which is what defeats trial-period selection — §4.1).
		// Attenuation deep in a building is partly shared (same walls
		// around the client), so a weak spot degrades BOTH links — which
		// is why even cross-link replication cannot rescue every
		// weak-link call.
		shared := uni(4, 12) * severity
		sc.LinkA.ExtraLossDB += shared + uni(4, 12)*severity
		sc.LinkB.ExtraLossDB += shared + uni(6, 14)*severity
		sc.LinkA.FadeBad = dur(0.3, 1.2)
		sc.LinkB.FadeBad = dur(0.3, 1.2)
		sc.LinkA.ShadowDB = uni(6, 9)
		sc.LinkB.ShadowDB = uni(6, 9)
		sc.LinkA.ShadowDecorr = dur(10, 40)
		sc.LinkB.ShadowDecorr = dur(10, 40)
	case ImpMobility:
		sc.Mobile = true
		sc.LinkA.ShadowDecorr = dur(0.5, 2)
		sc.LinkB.ShadowDecorr = dur(0.5, 2)
		sc.LinkA.ShadowDB = uni(6, 9)
		sc.LinkB.ShadowDB = uni(6, 9)
		sc.LinkA.ExtraLossDB += uni(4, 12) * severity
		sc.LinkB.ExtraLossDB += uni(4, 14) * severity
	case ImpMicrowave:
		sc.Oven = true
		// The oven sits somewhere in the office (a kitchenette); clients
		// that happen to be nearby are wrecked on BOTH links, since both
		// are 2.4 GHz (the paper notes no 5 GHz links were available —
		// §4.4). Clients further away are unaffected.
		sc.OvenPos = phy.Position{X: uni(2, officeW-2), Y: uni(1, officeH-1)}
	case ImpCongestion:
		sc.CongestA = true
		sc.CongestB = rng.Float64() < 0.6 // sometimes both channels busy
		sc.CongestHit = uni(0.52, 0.8) * severity
		sc.CongestBusy = uni(0.52, 0.82) * severity
	}
	return sc
}

// ControlledScenario builds a deterministic lab scenario: fixed geometry,
// no shadowing, negligible fading, and explicit per-link attenuation. Used
// by the Table 3 delay measurements, the middlebox scaling experiment, and
// tests that need a link of known quality.
func ControlledScenario(seed int64, profile traffic.Profile, duration sim.Duration, extraA, extraB float64) Scenario {
	return Scenario{
		Impairment: ImpNone,
		Profile:    profile,
		Duration:   duration,
		MIMOOrder:  1,
		Seed:       seed,
		APA:        phy.Position{X: 2, Y: 2},
		APB:        phy.Position{X: officeW - 2, Y: officeH - 2},
		ChanA:      phy.Chan1,
		ChanB:      phy.Chan11,
		ClientPos:  phy.Position{X: officeW / 2, Y: officeH / 2},
		LinkA: ScenarioLink{
			ExtraLossDB: extraA,
			FadeGood:    1000 * sim.Minute, FadeBad: sim.Millisecond,
		},
		LinkB: ScenarioLink{
			ExtraLossDB: extraB,
			FadeGood:    1000 * sim.Minute, FadeBad: sim.Millisecond,
		},
	}
}

// WithFading returns a copy of the scenario with explicit Gilbert–Elliott
// fading on link A (onA) or link B. Used to make a *strong* link lossy —
// attenuation cannot do that, because a low-RSSI link would never be
// chosen as the primary.
func (sc Scenario) WithFading(onA bool, good, bad sim.Duration, depthDB float64) Scenario {
	spec := &sc.LinkB
	if onA {
		spec = &sc.LinkA
	}
	spec.FadeGood = good
	spec.FadeBad = bad
	spec.FadeDepthDB = depthDB
	return sc
}

// WithMIMO returns a copy of the scenario with the given spatial diversity
// order on both links (Figure 2d).
func (sc Scenario) WithMIMO(order int) Scenario {
	sc.MIMOOrder = order
	return sc
}

// WithDuration returns a copy with a different call length.
func (sc Scenario) WithDuration(d sim.Duration) Scenario {
	sc.Duration = d
	return sc
}

// Links is the built radio environment for one call.
type Links struct {
	A, B *phy.Link
	Env  *phy.Environment
	// Mob is the client's mobility model, shared by any additional links
	// built on top of this environment (RunMultiCall).
	Mob phy.MobilityModel
}

// Build instantiates the scenario's links and interference sources on the
// simulator. Each link draws from its own named RNG stream so the loss
// processes are independent except through shared interference.
func (sc Scenario) Build(s *sim.Simulator) Links {
	env := phy.NewEnvironment()
	if sc.Oven {
		start, dur := sc.OvenStart, sc.OvenDur
		if dur <= 0 {
			// The oven runs for a 30–80 s stretch of the call.
			rng := s.RNG("scenario/oven")
			start = sim.Time(sim.FromSeconds(5 + rng.Float64()*30))
			dur = sim.FromSeconds(30 + rng.Float64()*50)
		}
		env.AddInterferer(phy.NewMicrowave(sc.OvenPos, start, dur))
	}
	if sc.CongestA {
		env.AddInterferer(phy.NewCongestion(s.RNG("scenario/congA"), sc.ChanA, sc.CongestBusy, sc.CongestHit, 0, 0))
	}
	if sc.CongestB {
		env.AddInterferer(phy.NewCongestion(s.RNG("scenario/congB"), sc.ChanB, sc.CongestBusy, sc.CongestHit, 0, 0))
	}

	var mob phy.MobilityModel
	if sc.Mobile {
		speed := sc.WalkSpeed
		if speed <= 0 {
			speed = 1.2
		}
		pause := sc.WalkPause
		if pause <= 0 {
			pause = 2 * sim.Second
		}
		mob = phy.NewRandomWaypoint(s.RNG("scenario/walk"), 1, 1, officeW-1, officeH-1,
			speed, pause, sc.Duration+10*sim.Second)
	} else {
		mob = phy.Static{Pos: sc.ClientPos}
	}

	links := Links{Env: env, Mob: mob}
	links.A = links.newLink(s, sc, "link/A", phy.LinkParams{Name: "A", APPos: sc.APA, Chan: sc.ChanA}, sc.LinkA)
	links.B = links.newLink(s, sc, "link/B", phy.LinkParams{Name: "B", APPos: sc.APB, Chan: sc.ChanB}, sc.LinkB)
	if sc.LateShiftDB > 0 {
		target, weaker, _ := links.stronger()
		if !sc.LateOnStronger {
			target = weaker
		}
		target.SetLateShift(sc.LateShiftDB, sim.Time(sc.LateAt))
	}
	return links
}

// PacketCount returns the number of packets in the scenario's call.
func (sc Scenario) PacketCount() int {
	if sc.Profile.Spacing <= 0 {
		return 0
	}
	return int(sc.Duration / sc.Profile.Spacing)
}
