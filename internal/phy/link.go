package phy

import (
	"sync"

	"repro/internal/sim/rng"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Environment aggregates the external interference sources shared by all
// links in a simulation. Two links on overlapping channels see the same
// sources — this shared component is what produces the small but nonzero
// cross-link loss correlation of Figure 4.
type Environment struct {
	interferers []Interferer
	busy        []BusySource
}

// BusySource is an interference source that also occupies airtime, making
// carrier sense defer transmissions (frozen backoff counters).
type BusySource interface {
	Occupancy(now sim.Time, ch Channel, pos Position) float64
}

// NewEnvironment returns an empty environment.
func NewEnvironment() *Environment { return &Environment{} }

// AddInterferer registers a source (Microwave, Congestion, ...).
func (e *Environment) AddInterferer(i Interferer) {
	e.interferers = append(e.interferers, i)
	if b, ok := i.(BusySource); ok {
		e.busy = append(e.busy, b)
	}
}

// Impact returns the total SNR penalty and combined collision probability
// imposed by all sources on channel ch at position pos at time now.
func (e *Environment) Impact(now sim.Time, ch Channel, pos Position) (penaltyDB, collisionProb float64) {
	miss := 1.0 // probability of NOT colliding with any source
	for _, i := range e.interferers {
		p, c := i.Impact(now, ch, pos)
		penaltyDB += p
		miss *= 1 - c
	}
	return penaltyDB, 1 - miss
}

// BusyFraction returns the fraction of airtime on ch at position pos that
// is consumed by competing traffic or interference, used by the MAC to
// stretch medium-access delay (carrier-sense deferral).
func (e *Environment) BusyFraction(now sim.Time, ch Channel, pos Position) float64 {
	busy := 0.0
	for _, b := range e.busy {
		busy += b.Occupancy(now, ch, pos)
	}
	if busy > 0.9 {
		busy = 0.9
	}
	return busy
}

// LinkParams configures a Link between one AP and one client.
type LinkParams struct {
	// Name labels the link in metrics and traces ("A", "B", ...). Optional.
	Name string
	// Obs, when non-nil, receives the link's attempt/loss counters (see
	// docs/OBSERVABILITY.md). The nil default disables instrumentation at
	// zero cost.
	Obs *obs.Registry

	APPos     Position
	Chan      Channel
	Client    MobilityModel
	ShadowDB  float64      // shadowing std-dev (typ. 4–8 dB indoors)
	ShadowT   sim.Duration // shadowing decorrelation time (typ. 1–10 s)
	FadeGood  sim.Duration // mean Gilbert–Elliott Good sojourn
	FadeBad   sim.Duration // mean Bad sojourn
	MIMOOrder int          // spatial diversity order; 0 or 1 = SISO
	ExtraLoss float64      // fixed extra attenuation in dB (walls etc.)
	// LateShiftDB is extra attenuation that appears at LateShiftAt and
	// persists — a door closing, a crowd arriving, an AP antenna knocked.
	// This is the non-stationarity that defeats trial-period link
	// selection (`better`, §4.1): the link that looked fine in the first
	// seconds collapses later.
	LateShiftDB float64
	LateShiftAt sim.Time
}

// Link models one AP↔client radio link. It composes the deterministic path
// loss with three stochastic processes — shadowing (seconds), Gilbert–
// Elliott fading (hundreds of ms), and external interference — and exposes
// the per-attempt success draw the MAC needs.
type Link struct {
	params LinkParams
	env    *Environment
	shadow Shadowing
	fades  []GilbertElliott // one chain per MIMO spatial branch
	rng    *rng.Stream

	// static is set for a phy.Static client, whose position and mean
	// RSSI never change: NewLink computes them once.
	static     bool
	staticPos  Position
	staticMean float64

	// Cached instruments (nil-safe no-ops when params.Obs is nil).
	ctAttempts  *obs.Counter
	ctCollision *obs.Counter
	ctNoise     *obs.Counter

	released bool // set by Release until NewLink draws the link again
}

// released holds links handed back by Release.
var released sync.Pool

// NewLink builds a link. rng drives all of the link's stochastic processes;
// give each link its own named stream from the simulator for independence.
// It reuses a released link when one is pooled, reset to exactly what a
// fresh one is (the storage of its fading chains kept).
func NewLink(rng *rng.Stream, env *Environment, p LinkParams) *Link {
	if p.MIMOOrder < 1 {
		p.MIMOOrder = 1
	}
	if p.FadeGood <= 0 {
		p.FadeGood = 10 * sim.Second
	}
	if p.FadeBad <= 0 {
		p.FadeBad = 500 * sim.Millisecond
	}
	l, _ := released.Get().(*Link)
	if l == nil {
		l = new(Link)
	}
	*l = Link{
		params:      p,
		env:         env,
		shadow:      *NewShadowing(rng, p.ShadowDB, p.ShadowT),
		fades:       l.fades[:0],
		rng:         rng,
		ctAttempts:  p.Obs.Counter("phy.tx_attempts"),
		ctCollision: p.Obs.Counter("phy.collision_losses"),
		ctNoise:     p.Obs.Counter("phy.noise_losses"),
	}
	for i := 0; i < p.MIMOOrder; i++ {
		l.fades = append(l.fades, GilbertElliott{})
		l.fades[i].init(rng, p.FadeGood, p.FadeBad)
	}
	if s, ok := p.Client.(Static); ok {
		l.static, l.staticPos = true, s.Pos
		l.staticMean = MeanRSSIdBm(s.Pos.DistanceTo(p.APPos), p.Chan.Band)
	}
	return l
}

// Release hands l and its storage to the pool NewLink draws from. Only
// the owner of the call's world may call it, once nothing will query l
// again; it drops the environment, the mobility model and the stream, so
// the pool pins nothing of the call. Release on nil or on a released link
// does nothing.
func (l *Link) Release() {
	if l == nil || l.released {
		return
	}
	clear(l.fades)
	*l = Link{fades: l.fades[:0], released: true}
	released.Put(l)
}

// Channel returns the link's WiFi channel.
func (l *Link) Channel() Channel { return l.params.Chan }

// SetFadeDepth sets the SNR penalty (dB) of the deep-fade state on all
// spatial branches. Deeper fades defeat the MAC's rate fallback and turn
// into packet loss; shallow ones only slow the link down.
func (l *Link) SetFadeDepth(db float64) {
	for i := range l.fades {
		l.fades[i].BadSNRdB = db
	}
}

// SetLateShift installs a persistent mid-call attenuation step (see
// LinkParams.LateShiftDB) after construction.
func (l *Link) SetLateShift(db float64, at sim.Time) {
	l.params.LateShiftDB = db
	l.params.LateShiftAt = at
}

// ClientPos returns the client position at now.
func (l *Link) ClientPos(now sim.Time) Position {
	if l.static {
		return l.staticPos
	}
	return l.params.Client.PositionAt(now)
}

// RSSIdBm returns the received signal strength the OS would report at now:
// mean path loss plus shadowing, without fast fading (drivers average it
// out). This is what the paper's `stronger` selection strategy keys on.
func (l *Link) RSSIdBm(now sim.Time) float64 { return l.rssiAt(now, l.ClientPos(now)) }

// rssiAt is RSSIdBm for a client at pos, the client's position at now.
func (l *Link) rssiAt(now sim.Time, pos Position) float64 {
	mean := l.staticMean
	if !l.static {
		mean = MeanRSSIdBm(pos.DistanceTo(l.params.APPos), l.params.Chan.Band)
	}
	rssi := mean + l.shadow.ValueDB(now) - l.params.ExtraLoss
	if l.params.LateShiftDB != 0 && now >= l.params.LateShiftAt {
		rssi -= l.params.LateShiftDB
	}
	return rssi
}

// fadePenaltyDB returns the effective fast-fading penalty at now. With
// MIMO, spatial branches fade independently and the receiver enjoys the
// best branch — so the penalty applies only if *all* branches are bad
// (selection diversity). Shadowing and interference remain common to all
// branches, which is why MIMO alone cannot match cross-link replication
// (§4.3).
func (l *Link) fadePenaltyDB(now sim.Time) float64 {
	best := l.fades[0].PenaltyDB(now)
	for i := 1; i < len(l.fades); i++ {
		if p := l.fades[i].PenaltyDB(now); p < best {
			best = p
		}
	}
	return best
}

// SNRdB returns the instantaneous SNR at now, after shadowing, the
// best-branch fading penalty, and interference penalties.
func (l *Link) SNRdB(now sim.Time) float64 {
	pos := l.ClientPos(now)
	penalty, _ := l.env.Impact(now, l.params.Chan, pos)
	return l.snrAt(now, pos, penalty)
}

// snrAt is SNRdB for a client at pos, the client's position at now, where
// the environment's interference penalty is penalty.
func (l *Link) snrAt(now sim.Time, pos Position, penalty float64) float64 {
	return l.rssiAt(now, pos) - penalty - l.fadePenaltyDB(now) - NoiseFloorDBm
}

// Attempt draws the outcome of a single frame transmission attempt at the
// given rate at time now: first a collision draw from the environment, then
// a noise-error draw from the SNR-dependent frame error curve.
func (l *Link) Attempt(now sim.Time, rate Rate) bool {
	return l.AttemptPriority(now, rate, false)
}

// AttemptPriority is Attempt with optional 802.11e/EDCA priority access:
// a voice-class frame wins contention against best-effort traffic more
// often, halving its collision exposure. Priority does NOT change the
// SNR-driven error term — prioritization addresses congestion, not
// wireless loss (the paper's §2 point).
//
// The position and the environment's impact are evaluated once and serve
// both draws; evaluating them again at the same now draws nothing and
// returns the same values.
func (l *Link) AttemptPriority(now sim.Time, rate Rate, priority bool) bool {
	l.ctAttempts.Inc()
	pos := l.ClientPos(now)
	penalty, coll := l.env.Impact(now, l.params.Chan, pos)
	if priority {
		coll *= 0.5
	}
	if coll > 0 && l.rng.Float64() < coll {
		l.ctCollision.Inc()
		return false
	}
	per := FrameErrorProb(l.snrAt(now, pos, penalty), rate)
	if l.rng.Float64() < per {
		l.ctNoise.Inc()
		return false
	}
	return true
}

// Name returns the link's metrics/trace label.
func (l *Link) Name() string { return l.params.Name }

// BusyFraction exposes the environment's medium occupancy on this link's
// channel at the client's position, for the MAC's access-delay model.
func (l *Link) BusyFraction(now sim.Time) float64 {
	return l.env.BusyFraction(now, l.params.Chan, l.ClientPos(now))
}
