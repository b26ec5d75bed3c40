// Package client implements DiversiFi's single-NIC client: Algorithm 1 of
// the paper. The client keeps two associations alive with one radio —
// normally tuned to the primary AP, asleep (PSM) toward the secondary —
// and reactively visits the secondary to retrieve packets the primary
// lost, timing each visit so the missing packet sits at the head of the
// secondary AP's shallow head-drop queue.
package client

import (
	"sync"

	"repro/internal/ap"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// state is the client's NIC state machine.
type state int

const (
	onPrimary state = iota
	switchingToSecondary
	onSecondary
	switchingToPrimary
)

// Config parameterises Algorithm 1. Zero values select the paper's
// constants for the profile.
type Config struct {
	Profile traffic.Profile
	// PLTMultiple sets PacketLossTimeout = PLTMultiple × InterPktSpacing
	// (Algorithm 1 uses 2 → 40 ms for G.711).
	PLTMultiple int
	// AKT is the AssociationKeepaliveTimeout (30 s). An AKT longer than the
	// simulated call makes no keepalive visit.
	AKT sim.Duration
	// HeadMargin is how many packet slots before eviction the client aims
	// to arrive at the secondary (1 = when the packet just reaches the
	// queue head; larger = earlier arrival, more duplication).
	HeadMargin int
	// DisableRecovery turns off loss-triggered switching (keepalives
	// only) — used by ablations.
	DisableRecovery bool
	// Secondary optionally routes recovery through a middlebox (§5.3.2)
	// instead of the secondary AP's PSM buffer: on arrival at the
	// secondary the client requests delivery, on departure it releases.
	Secondary SecondaryBuffer
	// BackoffAfter suspends loss-triggered switching for backoffPeriod
	// once this many consecutive recovery visits return empty-handed —
	// when the secondary is no better than the primary, hopping between
	// them only delays primary traffic. 0 selects the default (3);
	// negative disables backoff.
	BackoffAfter int
}

// Algorithm 1's constants that no Config field overrides.
const (
	// srt is the SecondaryResidencyTime of a keepalive visit.
	srt = 40 * sim.Millisecond
	// nominalTransit is the expected source→client delay on a healthy
	// path, used to predict per-packet arrival deadlines.
	nominalTransit = 3 * sim.Millisecond
	// backoffPeriod is how long loss-triggered switching stays suspended
	// after BackoffAfter futile visits.
	backoffPeriod = 5 * sim.Second
)

// SecondaryBuffer abstracts the network-side buffer behind the secondary
// link. The AP's PSM buffer needs no requests (waking the AP flushes it);
// a middlebox speaks the start/stop protocol through this interface.
type SecondaryBuffer interface {
	// RequestFrom asks for delivery of buffered packets with sequence
	// numbers >= firstSeq (< 0 means everything buffered).
	RequestFrom(firstSeq int)
	// Release stops delivery.
	Release()
}

func (c *Config) fillDefaults() {
	if c.PLTMultiple <= 0 {
		c.PLTMultiple = 2
	}
	if c.AKT <= 0 {
		c.AKT = 30 * sim.Second
	}
	if c.HeadMargin <= 0 {
		c.HeadMargin = 1
	}
	if c.BackoffAfter == 0 {
		c.BackoffAfter = 3
	}
}

// Stats counts client-side events.
type Stats struct {
	LossesDetected     int // primary losses that triggered recovery interest
	RecoverySwitches   int // loss-triggered visits to the secondary
	KeepaliveSwitches  int // periodic keepalive visits
	Recovered          int // missing packets retrieved from the secondary
	DuplicatesReceived int // secondary deliveries the client already had
	GaveUp             int // recovery visits that returned empty-handed
	Backoffs           int // times recovery was suspended after futile visits
}

// Interval is a [From, To) span of virtual time.
type Interval struct {
	From, To sim.Time
}

// Client is the single-NIC DiversiFi receiver.
type Client struct {
	kept

	sim  *sim.Simulator
	cfg  Config
	prim *ap.AP
	sec  *ap.AP

	tr        *trace.Trace
	callStart sim.Time

	st            state
	pendingSwitch sim.Timer
	pendingSeq    int // seq whose loss planned the pending switch; -1 when none
	failsafe      sim.Timer
	lastSecVisit  sim.Time

	absentSince sim.Time

	// recovery-delay instrumentation for Table 3: time from initiating a
	// loss-triggered switch to the first packet received on the secondary.
	visitStart     sim.Time
	visitTrigger   int // seq whose loss initiated the visit; -1 for keepalives
	visitDelivered bool

	// futile-visit backoff: when the secondary keeps yielding nothing,
	// stop chasing it for a while.
	futileVisits   int
	backoffUntil   sim.Time
	visitRecovered bool

	stats Stats

	// Observability, taken from the simulator at construction (nil-safe).
	obs         *obs.Registry
	ctLosses    *obs.Counter
	ctRecSwitch *obs.Counter
	ctKASwitch  *obs.Counter
	ctRecovered *obs.Counter
	ctDup       *obs.Counter
	ctMisses    *obs.Counter
	hRecDelay   *obs.Histogram

	released bool // set by Release until New draws the client again
}

// kept is what a released client keeps for its next call: the storage of
// its missing-packet map and its logs, emptied, and the callbacks bound to
// it.
type kept struct {
	missing map[int]sim.Time // seq -> recovery deadline (SentAt+Deadline)

	// absence tracking for the TCP-coexistence experiment: periods when
	// the NIC was not serving the primary/DEF channel.
	absences []Interval
	// one entry per successful loss-triggered recovery (Table 3).
	recoveryEvents []RecoveryEvent

	// The callbacks a secondary visit schedules and the lanes of the
	// trains StartCall makes, bound once when the client is made so that
	// neither a visit nor a call allocates closures.
	onSwitch, onRecoveryArrival, onKeepaliveArrival     func()
	onRecoveryTimeout, onKeepaliveEnd, onPrimaryArrival func()

	checks    [2]sim.Lane // loss check, playout check
	keepalive sim.Lane
}

// released holds clients handed back by Release.
var released sync.Pool

// RecoveryEvent decomposes one successful loss-triggered recovery into the
// paper's Table 3 components, mirroring the trace analyzer's episode
// semantics (internal/obs/analyze):
//
//   - Detect: the triggering packet's nominal arrival time → switch
//     initiation. Covers the PacketLossTimeout plus any wait for the packet
//     to near the head of the secondary's drop queue (§5.2.5).
//   - Switch: the fixed link-move cost (PSM sleep signal + channel retune).
//   - Retrieve: arrival on the secondary → first useful delivery.
//   - Total: switch initiation → first useful delivery (= Switch +
//     Retrieve; Table 3's "total" column).
type RecoveryEvent struct {
	Detect   sim.Duration
	Switch   sim.Duration
	Retrieve sim.Duration
	Total    sim.Duration
}

// AppendRecoveryEvents appends the per-recovery delay decomposition to
// dst, one entry for each loss-triggered secondary visit that yielded at
// least one packet, in order.
func (c *Client) AppendRecoveryEvents(dst []RecoveryEvent) []RecoveryEvent {
	return append(dst, c.recoveryEvents...)
}

// New creates the client. Call BindAPs before starting a call. It reuses
// a released client when one is pooled, reset to exactly what a fresh one
// is: no missing packets and empty logs (their storage kept), and the
// callbacks bound to it.
func New(s *sim.Simulator, cfg Config) *Client {
	cfg.fillDefaults()
	reg := s.Obs()
	c, _ := released.Get().(*Client)
	if c == nil {
		c = new(Client)
		c.missing = make(map[int]sim.Time)
		c.onSwitch = c.recoverySwitch
		c.onRecoveryArrival = c.recoveryArrival
		c.onKeepaliveArrival = c.keepaliveArrival
		c.onRecoveryTimeout = c.recoveryTimeout
		c.onKeepaliveEnd = c.keepaliveEnd
		c.onPrimaryArrival = c.primaryArrival
		c.checks = [2]sim.Lane{
			{At: c.lossCheckAt, Fn: c.lossCheck},
			{At: c.recoveryDeadline, Fn: c.playoutCheck},
		}
		c.keepalive = sim.Lane{At: c.keepaliveAt, Fn: c.keepaliveTick}
	}
	*c = Client{
		kept:         c.kept,
		sim:          s,
		cfg:          cfg,
		pendingSeq:   -1,
		visitTrigger: -1,
		obs:          reg,
		ctLosses:     reg.Counter("client.losses_detected"),
		ctRecSwitch:  reg.Counter("client.recovery_switches"),
		ctKASwitch:   reg.Counter("client.keepalive_switches"),
		ctRecovered:  reg.Counter("client.recovered"),
		ctDup:        reg.Counter("client.duplicates"),
		ctMisses:     reg.Counter("client.playout_misses"),
		hRecDelay:    reg.Histogram("client.recovery_delay_us", nil),
	}
	return c
}

// Release hands c and its storage to the pool New draws from. Only the
// owner of the call's world may call it, once the simulator that drives c
// will run no more of its events and its trace, stats and logs have been
// copied out; it drops the simulator, the APs, the trace and the
// configuration, so the pool pins nothing of the call. Release on nil or
// on a released client does nothing.
func (c *Client) Release() {
	if c == nil || c.released {
		return
	}
	clear(c.missing)
	c.absences, c.recoveryEvents = c.absences[:0], c.recoveryEvents[:0]
	*c = Client{kept: c.kept, released: true}
	released.Put(c)
}

// spacing returns the stream's inter-packet gap.
func (c *Client) spacing() sim.Duration { return c.cfg.Profile.Spacing }

// plt returns the PacketLossTimeout.
func (c *Client) plt() sim.Duration {
	return sim.Duration(c.cfg.PLTMultiple) * c.cfg.Profile.Spacing
}

// switchCost returns the one-way cost of moving between links: the PSM
// sleep signal plus the channel retune.
func switchCost() sim.Duration { return mac.PSMSignalLatency + mac.ChannelSwitchLatency }

// BindAPs attaches the client to its primary and secondary APs. The caller
// constructs the APs with this client as their ClientPresence and with
// OnDelivery as their delivery callback.
func (c *Client) BindAPs(primary, secondary *ap.AP) {
	c.prim = primary
	c.sec = secondary
}

// Trace returns the call trace (valid after StartCall).
func (c *Client) Trace() *trace.Trace { return c.tr }

// Stats returns the client's counters.
func (c *Client) Stats() Stats { return c.stats }

// AppendAbsences appends the NIC's away-from-primary intervals to dst,
// closed as of the current virtual time.
func (c *Client) AppendAbsences(dst []Interval) []Interval {
	dst = append(dst, c.absences...)
	if c.st != onPrimary {
		dst = append(dst, Interval{From: c.absentSince, To: c.sim.Now()})
	}
	return dst
}

// AbsentDuring returns the total time within [from, to) that the
// intervals ivs cover: with a client's Absences, the time the NIC was away
// from the primary channel.
func AbsentDuring(ivs []Interval, from, to sim.Time) sim.Duration {
	var total sim.Duration
	for _, iv := range ivs {
		lo, hi := iv.From, iv.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi.Sub(lo)
		}
	}
	return total
}

// Listening implements ap.ClientPresence.
func (c *Client) Listening(a *ap.AP, _ sim.Time) bool {
	switch a {
	case c.prim:
		return c.st == onPrimary
	case c.sec:
		return c.st == onSecondary
	default:
		return false
	}
}

// StartCall begins receiving a call of count packets whose first packet is
// emitted at the current virtual time; the caller runs the simulator until
// until, the last instant a keepalive check may fire. The secondary
// association starts asleep so the secondary AP buffers from the first
// packet.
func (c *Client) StartCall(count int, until sim.Time) {
	c.callStart = c.sim.Now()
	c.tr = trace.New(count, c.callStart, c.spacing())
	c.st = onPrimary
	c.lastSecVisit = c.sim.Now()
	c.sec.Sleep()
	// One PacketLossTimeout per packet. Playout-miss detection is
	// observability-only: one check per sequence number at its recovery
	// deadline, gated on the registry so unobserved runs schedule nothing
	// extra.
	checks := c.checks[:1]
	if c.obs != nil {
		checks = c.checks[:]
	}
	c.sim.Train(count, checks...)
	// The keepalive check, every AKT/4 through until.
	c.sim.Train(int(until.Sub(c.callStart)/(c.cfg.AKT/4)), c.keepalive)
}

// expectedSend returns when the source emits seq.
func (c *Client) expectedSend(seq int) sim.Time {
	return c.callStart.Add(sim.Duration(seq) * c.spacing())
}

// expectedArrival returns when seq should reach the client on a healthy path.
func (c *Client) expectedArrival(seq int) sim.Time {
	return c.expectedSend(seq).Add(nominalTransit)
}

// lossCheckAt returns when seq's PacketLossTimeout fires.
func (c *Client) lossCheckAt(seq int) sim.Time {
	return c.expectedArrival(seq).Add(c.plt())
}

// recoveryDeadline returns the last useful delivery time for seq.
func (c *Client) recoveryDeadline(seq int) sim.Time {
	return c.expectedSend(seq).Add(c.cfg.Profile.Deadline)
}

// OnDelivery is the delivery callback both APs invoke.
func (c *Client) OnDelivery(from *ap.AP, p pkt.Packet, at sim.Time) {
	already := c.tr.Arrived(p.Seq)
	c.tr.RecordArrival(p.Seq, at)
	if from == c.sec {
		if already {
			c.stats.DuplicatesReceived++
			c.ctDup.Inc()
		} else if _, wasMissing := c.missing[p.Seq]; wasMissing {
			c.stats.Recovered++
			c.ctRecovered.Inc()
			c.visitRecovered = true
			c.futileVisits = 0
			if c.obs.Tracing() {
				c.obs.Emit(obs.Event{TUS: int64(at), Ev: obs.EvRetrieve, Node: "client",
					Seq: p.Seq, DurUS: int64(at.Sub(c.visitStart))})
			}
			// Table 3 metric: switch initiation to the first *useful*
			// packet retrieved over the secondary. Stale flushes of
			// already-received packets do not count.
			if !c.visitDelivered {
				c.visitDelivered = true
				total := at.Sub(c.visitStart)
				c.hRecDelay.Observe(int64(total))
				ev := RecoveryEvent{Switch: switchCost(), Total: total}
				ev.Retrieve = total - ev.Switch
				if c.visitTrigger >= 0 {
					if d := c.visitStart.Sub(c.expectedArrival(c.visitTrigger)); d > 0 {
						ev.Detect = d
					}
				}
				c.recoveryEvents = append(c.recoveryEvents, ev)
			}
		}
	}
	delete(c.missing, p.Seq)
	if c.st == onSecondary && !c.anyRecoverable() {
		// Got what we came for (or nothing left worth waiting for).
		c.returnToPrimary()
	}
}

// minMissing returns the lowest still-missing sequence number, or -1.
func (c *Client) minMissing() int {
	min := -1
	for seq := range c.missing {
		if min < 0 || seq < min {
			min = seq
		}
	}
	return min
}

// anyRecoverable reports whether a known-missing packet can still make its
// deadline, pruning stale entries.
func (c *Client) anyRecoverable() bool {
	now := c.sim.Now()
	any := false
	for seq, dl := range c.missing {
		if dl <= now {
			delete(c.missing, seq)
			continue
		}
		any = true
	}
	return any
}

// playoutCheck fires at seq's recovery deadline and records a playout miss
// if the packet never arrived in time. Only scheduled when a registry is
// attached (see StartCall).
func (c *Client) playoutCheck(seq int) {
	if c.tr.Arrived(seq) {
		return
	}
	c.ctMisses.Inc()
	if c.obs.Tracing() {
		c.obs.Emit(obs.Event{TUS: int64(c.sim.Now()), Ev: obs.EvPlayoutMiss,
			Node: "client", Seq: seq})
	}
}

// lossCheck fires PLT after seq's expected arrival (Algorithm 1 lines 9–12).
func (c *Client) lossCheck(seq int) {
	if c.tr.Arrived(seq) {
		return
	}
	dl := c.recoveryDeadline(seq)
	if dl <= c.sim.Now() {
		return // already unrecoverable
	}
	c.stats.LossesDetected++
	c.ctLosses.Inc()
	c.missing[seq] = dl
	if c.cfg.DisableRecovery || c.sim.Now() < c.backoffUntil {
		return
	}
	c.planRecovery(seq)
}

// planRecovery schedules the switch to the secondary so the client arrives
// when seq is HeadMargin slots from eviction out of the secondary's
// head-drop queue — the implicit packet selection of §5.2.5.
func (c *Client) planRecovery(seq int) {
	if c.st != onPrimary || c.pendingSwitch.Pending() {
		return // a visit is already in progress or planned; it will serve seq too
	}
	apql := c.cfg.Profile.APQueueLen()
	headAt := c.expectedArrival(seq).Add(sim.Duration(apql-c.cfg.HeadMargin) * c.spacing())
	switchAt := headAt.Add(-switchCost())
	now := c.sim.Now()
	if switchAt < now {
		switchAt = now
	}
	c.pendingSeq = seq
	c.pendingSwitch = c.sim.Schedule(switchAt, c.onSwitch)
}

// recoverySwitch is the switch planRecovery schedules.
func (c *Client) recoverySwitch() {
	if c.st == onPrimary && c.anyRecoverable() {
		c.stats.RecoverySwitches++
		c.ctRecSwitch.Inc()
		c.goToSecondary(false)
	}
}

// goToSecondary executes the link switch: PSM-sleep the primary, retune,
// wake the secondary. keepalive marks a periodic visit (bounded residency).
func (c *Client) goToSecondary(keepalive bool) {
	if c.obs.Tracing() {
		detail := obs.SwitchToSecondary
		// Recovery switches carry the seq whose loss planned the visit, so
		// trace analysis can pair the triggering tx-lost/drop with the switch
		// (detect delay). Keepalives are not packet-specific: seq -1.
		seq := c.pendingSeq
		if keepalive {
			detail = obs.SwitchKeepalive
			seq = -1
		}
		c.obs.Emit(obs.Event{TUS: int64(c.sim.Now()), Ev: obs.EvLinkSwitch, Node: "client",
			Seq: seq, DurUS: int64(switchCost()), Detail: detail})
	}
	c.st = switchingToSecondary
	c.absentSince = c.sim.Now()
	c.visitStart = c.sim.Now()
	c.visitTrigger = c.pendingSeq
	if keepalive {
		c.visitTrigger = -1
	}
	// Only loss-triggered visits measure a recovery delay; keepalive
	// deliveries are marked already-delivered so they record nothing.
	c.visitDelivered = keepalive
	c.visitRecovered = keepalive // keepalives never count as futile
	c.prim.Sleep()
	if keepalive {
		c.sim.After(switchCost(), c.onKeepaliveArrival)
	} else {
		c.sim.After(switchCost(), c.onRecoveryArrival)
	}
}

// keepaliveArrival lands a keepalive visit on the secondary and bounds its
// residency to srt.
func (c *Client) keepaliveArrival() {
	c.arriveOnSecondary()
	c.failsafe = c.sim.After(srt, c.onKeepaliveEnd)
}

// recoveryArrival lands a recovery visit on the secondary. Failsafe: if
// the missing packets do not show up within PLT, give up and return
// (Algorithm 1 line 12).
func (c *Client) recoveryArrival() {
	c.arriveOnSecondary()
	if c.cfg.Secondary != nil {
		c.cfg.Secondary.RequestFrom(c.minMissing())
	}
	c.failsafe = c.sim.After(c.plt(), c.onRecoveryTimeout)
}

// arriveOnSecondary completes the retune: the NIC now serves the secondary.
func (c *Client) arriveOnSecondary() {
	c.st = onSecondary
	c.lastSecVisit = c.sim.Now()
	c.sec.Wake()
}

// keepaliveEnd ends a keepalive visit after its residency.
func (c *Client) keepaliveEnd() {
	if c.st == onSecondary {
		c.returnToPrimary()
	}
}

// recoveryTimeout abandons a recovery visit that yielded nothing in time.
func (c *Client) recoveryTimeout() {
	if c.st == onSecondary {
		c.stats.GaveUp++
		c.returnToPrimary()
	}
}

// returnToPrimary switches the NIC back: PSM-sleep the secondary, retune,
// wake the primary (which flushes anything buffered while away).
func (c *Client) returnToPrimary() {
	if c.st != onSecondary {
		return
	}
	c.failsafe.Stop()
	if c.obs.Tracing() {
		c.obs.Emit(obs.Event{TUS: int64(c.sim.Now()), Ev: obs.EvLinkSwitch, Node: "client",
			Seq: -1, DurUS: int64(switchCost()), Detail: obs.SwitchToPrimary})
	}
	c.st = switchingToPrimary
	if !c.visitRecovered && c.cfg.BackoffAfter > 0 {
		c.futileVisits++
		if c.futileVisits >= c.cfg.BackoffAfter {
			c.futileVisits = 0
			c.backoffUntil = c.sim.Now().Add(backoffPeriod)
			c.stats.Backoffs++
		}
	}
	if c.cfg.Secondary != nil {
		c.cfg.Secondary.Release()
	}
	c.sec.Sleep()
	c.sim.After(switchCost(), c.onPrimaryArrival)
}

// primaryArrival completes the retune back to the primary.
func (c *Client) primaryArrival() {
	c.st = onPrimary
	c.absences = append(c.absences, Interval{From: c.absentSince, To: c.sim.Now()})
	c.prim.Wake()
	// Losses detected while we were away may still need a visit. Plan
	// around the lowest missing seq — it is closest to eviction from
	// the secondary's head-drop queue, and (unlike ranging over the
	// map, which Go iterates in random order) keeps runs reproducible.
	if !c.cfg.DisableRecovery && c.sim.Now() >= c.backoffUntil && c.anyRecoverable() {
		if seq := c.minMissing(); seq >= 0 {
			c.planRecovery(seq)
		}
	}
}

// keepaliveAt returns when keepalive check i fires: (i+1)·AKT/4 after the
// call starts.
func (c *Client) keepaliveAt(i int) sim.Time {
	return c.callStart.Add(sim.Duration(i+1) * (c.cfg.AKT / 4))
}

// keepaliveTick is the periodic secondary keepalive check (Algorithm 1
// lines 15–17): if the secondary has not been visited for AKT, pay it a
// short visit to keep the association alive.
func (c *Client) keepaliveTick(int) {
	if c.st != onPrimary {
		return
	}
	if c.sim.Now().Sub(c.lastSecVisit) >= c.cfg.AKT {
		c.stats.KeepaliveSwitches++
		c.ctKASwitch.Inc()
		c.goToSecondary(true)
	}
}
