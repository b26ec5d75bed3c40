// Package ap models a WiFi access point as DiversiFi needs it: per-client
// power-save (PSM) buffering with either the stock tail-drop queue or the
// paper's customized head-drop queue with a settable maximum length
// (§5.3.1), plus the hardware-queue commit behaviour responsible for the
// small wasteful-duplication overhead measured in §6.3.
package ap

import (
	"sync"

	"repro/internal/sim/rng"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// QueuePolicy selects how the PSM buffer behaves when full.
type QueuePolicy int

const (
	// TailDrop is the stock behaviour: new packets are dropped when the
	// buffer is full. Default depth is 64 (OpenWRT) — large, so a client
	// waking to fetch one packet first receives a long backlog.
	TailDrop QueuePolicy = iota
	// HeadDrop is DiversiFi's customization: the oldest packet is evicted
	// to admit the new one, so the buffer always holds the most recent
	// MaxQueue packets.
	HeadDrop
)

func (p QueuePolicy) String() string {
	if p == HeadDrop {
		return "head-drop"
	}
	return "tail-drop"
}

// DefaultTailDropDepth mirrors the OpenWRT default PSM buffer size.
const DefaultTailDropDepth = 64

// DefaultHWBatch is how many frames the host hands to the NIC's hardware
// queue in one go. Frames committed to hardware cannot be recalled: they
// transmit even if the client goes to sleep or leaves the channel, which is
// the mechanism behind the paper's residual duplication overhead (§5.3.1:
// "in practice we find that the AP could also transmit additional queued
// packets, when all of these are handed down to the hardware queue in one
// go").
const DefaultHWBatch = 2

// Packet is the shared packet record; see package pkt.
type Packet = pkt.Packet

// ClientPresence reports whether the (single modelled) client is currently
// tuned to the given channel and listening toward this AP. The AP checks it
// at frame-completion time: transmitting to a client that has switched away
// simply wastes airtime, exactly as over real radios.
type ClientPresence interface {
	Listening(ap *AP, at sim.Time) bool
}

// AlwaysListening is a ClientPresence for two-NIC setups where a dedicated
// radio stays on the AP's channel for the whole call.
type AlwaysListening struct{}

// Listening implements ClientPresence.
func (AlwaysListening) Listening(*AP, sim.Time) bool { return true }

// Config parameterises an AP.
type Config struct {
	Name     string
	Chan     phy.Channel
	Policy   QueuePolicy
	MaxQueue int // PSM buffer depth; 0 selects the policy default
	HWBatch  int // frames committed to hardware per pull; 0 = default
	// Voice marks the stream as 802.11e voice class: the AP transmits it
	// with EDCA priority access.
	Voice bool
}

// Stats counts AP-side events for the overhead analysis.
type Stats struct {
	EnqueuedWhileAsleep int
	QueueDrops          int // packets evicted/refused by the PSM buffer
	Transmitted         int // frames that completed a TX chain (any outcome)
	DeliveredToClient   int // frames received while the client listened
	WastedTransmissions int // frames sent while the client was not listening
	MACDrops            int // frames lost after the full retry chain
}

// AP is an access point serving one modelled client plus background load.
type AP struct {
	cfg  Config
	sim  *sim.Simulator
	tx   mac.Transmitter // held by value, so a recycled AP recycles it too
	pres ClientPresence

	asleep  bool
	queue   pkt.Ring[Packet] // PSM/host buffer
	hw      pkt.Ring[Packet] // hardware queue: committed to the air
	sending bool

	// In-flight transmission state. Only one frame is on the air at a time
	// (sending guards kick), so a single field pair plus the prebuilt
	// txDone closure replaces a per-frame closure allocation.
	curPkt Packet
	curOut mac.TxOutcome
	txDone func()

	deliver func(Packet, sim.Time)
	stats   Stats

	// Observability, taken from the simulator at construction (nil-safe).
	obs         *obs.Registry
	ctEnqueued  *obs.Counter
	ctQDrops    *obs.Counter
	ctDelivered *obs.Counter
	ctWasted    *obs.Counter
	ctLost      *obs.Counter
	gQueueDepth *obs.Gauge

	released bool // set by Release until New draws the AP again
}

// released holds APs handed back by Release.
var released sync.Pool

// New creates an AP transmitting over link. deliver is invoked (in virtual
// time) for every frame the client actually receives. It reuses a released
// AP when one is pooled, reset to exactly what a fresh one is: empty
// queues (their storage kept) and the bound txDone callback.
func New(s *sim.Simulator, cfg Config, link *phy.Link, rng *rng.Stream, pres ClientPresence, deliver func(Packet, sim.Time)) *AP {
	if cfg.MaxQueue <= 0 {
		if cfg.Policy == HeadDrop {
			cfg.MaxQueue = 5
		} else {
			cfg.MaxQueue = DefaultTailDropDepth
		}
	}
	if cfg.HWBatch <= 0 {
		cfg.HWBatch = DefaultHWBatch
	}
	a, _ := released.Get().(*AP)
	if a == nil {
		a = new(AP)
		a.txDone = a.onTxDone
	}
	reg := s.Obs()
	*a = AP{
		cfg:         cfg,
		sim:         s,
		tx:          *mac.NewTransmitter(link, rng),
		pres:        pres,
		queue:       a.queue,
		hw:          a.hw,
		txDone:      a.txDone,
		deliver:     deliver,
		obs:         reg,
		ctEnqueued:  reg.Counter("ap.enqueued"),
		ctQDrops:    reg.Counter("ap.queue_drops"),
		ctDelivered: reg.Counter("ap.tx_delivered"),
		ctWasted:    reg.Counter("ap.tx_wasted"),
		ctLost:      reg.Counter("ap.tx_lost"),
		gQueueDepth: reg.Gauge("ap.queue_depth"),
	}
	if cfg.Voice {
		a.tx.AC = mac.ACVoice
	}
	a.tx.SetObs(reg, cfg.Name)
	return a
}

// Release hands a and its queue storage to the pool New draws from. Only
// the owner of the call's world may call it, once the simulator that
// drives a will run no more of its events; it drops the delivery callback,
// the presence, the link and the simulator, so the pool pins nothing of
// the call. Release on nil or on a released AP does nothing.
func (a *AP) Release() {
	if a == nil || a.released {
		return
	}
	a.queue.Reset()
	a.hw.Reset()
	*a = AP{queue: a.queue, hw: a.hw, txDone: a.txDone, released: true}
	released.Put(a)
}

// Name returns the AP's identifier.
func (a *AP) Name() string { return a.cfg.Name }

// Channel returns the AP's operating channel.
func (a *AP) Channel() phy.Channel { return a.cfg.Chan }

// Stats returns a copy of the AP's counters.
func (a *AP) Stats() Stats { return a.stats }

// Asleep reports whether the client is in power-save toward this AP.
func (a *AP) Asleep() bool { return a.asleep }

// QueueLen returns the current host-side buffer occupancy.
func (a *AP) QueueLen() int { return a.queue.Len() }

// SetQueueConfig applies the client's requested queue policy and size, as
// signalled via the association-request information element (§5.3.1).
func (a *AP) SetQueueConfig(policy QueuePolicy, maxQueue int) {
	a.cfg.Policy = policy
	if maxQueue > 0 {
		a.cfg.MaxQueue = maxQueue
	}
}

// Enqueue hands the AP a downlink packet from the wire at the current
// virtual time. The queue policy applies whenever the buffer is full; while
// the client is awake the transmit loop drains it.
func (a *AP) Enqueue(p Packet) {
	p.Arrived = a.sim.Now()
	a.ctEnqueued.Inc()
	if a.asleep {
		a.stats.EnqueuedWhileAsleep++
	}
	if a.queue.Len() >= a.cfg.MaxQueue {
		a.stats.QueueDrops++
		a.ctQDrops.Inc()
		if a.cfg.Policy == HeadDrop {
			// Evict the oldest to keep the freshest MaxQueue packets.
			if a.obs.Tracing() {
				a.obs.Emit(obs.Event{TUS: int64(a.sim.Now()), Ev: obs.EvHeadDrop,
					Node: a.cfg.Name, Seq: a.queue.Peek().Seq, Detail: obs.DropEvictOldest})
			}
			a.queue.Pop()
			a.queue.Push(p)
		} else {
			// Tail-drop refuses the newcomer instead.
			if a.obs.Tracing() {
				a.obs.Emit(obs.Event{TUS: int64(a.sim.Now()), Ev: obs.EvHeadDrop,
					Node: a.cfg.Name, Seq: p.Seq, Detail: obs.DropRefuseNewest})
			}
		}
	} else {
		a.queue.Push(p)
	}
	a.gQueueDepth.Set(int64(a.queue.Len()))
	if !a.asleep {
		a.kick()
	}
}

// Sleep transitions the client to power-save. Frames already committed to
// the hardware queue keep transmitting — the host cannot recall them.
func (a *AP) Sleep() { a.asleep = true }

// Wake transitions the client out of power-save and (re)starts the
// transmit loop, which pulls buffered packets into the hardware queue in
// batches of HWBatch.
func (a *AP) Wake() {
	a.asleep = false
	a.kick()
}

// kick commits buffered frames to hardware (while awake) and runs the
// transmit loop.
func (a *AP) kick() {
	if a.sending {
		return
	}
	if a.hw.Len() == 0 {
		if a.asleep || a.queue.Len() == 0 {
			return
		}
		n := a.cfg.HWBatch
		if n > a.queue.Len() {
			n = a.queue.Len()
		}
		for i := 0; i < n; i++ {
			a.hw.Push(a.queue.Pop())
		}
		a.gQueueDepth.Set(int64(a.queue.Len()))
	}
	a.sending = true
	a.curPkt = a.hw.Pop()
	a.curOut = a.tx.Transmit(a.sim.Now(), a.curPkt.Size)
	a.sim.Schedule(a.curOut.At, a.txDone)
}

// onTxDone settles the frame whose transmit chain just completed (it is
// scheduled, via the prebuilt txDone closure, at the chain's end time).
func (a *AP) onTxDone() {
	p, out := a.curPkt, a.curOut
	a.stats.Transmitted++
	listening := a.pres.Listening(a, out.At)
	outcome := obs.TxLost
	switch {
	case out.Delivered && listening:
		a.stats.DeliveredToClient++
		a.ctDelivered.Inc()
		outcome = obs.TxDelivered
	case out.Delivered && !listening:
		a.stats.WastedTransmissions++
		a.ctWasted.Inc()
		outcome = obs.TxWasted
	default:
		a.stats.MACDrops++
		a.ctLost.Inc()
	}
	// Emit before invoking the delivery callback so the trace shows
	// the cause (tx) ahead of its effects (retrieve, link-switch).
	if a.obs.Tracing() {
		a.obs.Emit(obs.Event{TUS: int64(out.At), Ev: obs.EvTx, Node: a.cfg.Name,
			Seq: p.Seq, Attempt: out.Attempts, DurUS: int64(out.Airtime), Detail: outcome})
	}
	if outcome == obs.TxDelivered && a.deliver != nil {
		a.deliver(p, out.At)
	}
	a.sending = false
	a.kick()
}
