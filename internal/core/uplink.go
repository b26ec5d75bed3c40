package core

import (
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The paper focuses on the downlink and argues (§5) that the uplink "would
// likely be easier to implement because the client would have direct
// control over what packets are sent over which link and when". This file
// implements that direction as an extension: the client transmits the
// real-time stream toward a wired peer, learns from the MAC whether each
// frame was delivered (no ACK after the retry chain = known loss), and —
// with DiversiFi enabled — immediately hops to the secondary link to
// retransmit exactly the failed packets, then hops back.

// UplinkStats counts uplink-client events.
type UplinkStats struct {
	Transmitted      int // MAC transmit chains on the primary
	PrimaryFailures  int // chains that exhausted their retries
	RecoverySwitches int // hops to the secondary
	Retransmitted    int // packets retransmitted over the secondary
	Recovered        int // retransmissions that got through in time
	QueueDrops       int // packets dropped from the client's own queue
}

// UplinkResult is one uplink call.
type UplinkResult struct {
	Scenario   Scenario
	Trace      *trace.Trace // as seen by the wired peer
	Stats      UplinkStats
	PrimaryIsA bool
}

// uplinkClient is the transmit-side state machine.
type uplinkClient struct {
	s        *sim.Simulator
	sc       Scenario
	txPrim   *mac.Transmitter
	txSec    *mac.Transmitter
	wire     *netsim.Wire
	tr       *trace.Trace
	divers   bool
	stats    UplinkStats
	queue    []pkt.Packet
	sending  bool
	maxQueue int
	onWire   func(pkt.Packet) // prebuilt arrival recorder for wire.Send
}

// RunUplink simulates one uplink call. With diversifi=false the client
// uses only the stronger link; with true, failed packets are retransmitted
// over the secondary within the deadline budget.
func RunUplink(sc Scenario, diversifi bool) UplinkResult {
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	primaryIsA := links.A.RSSIdBm(0) >= links.B.RSSIdBm(0)
	primLink, secLink := links.A, links.B
	if !primaryIsA {
		primLink, secLink = links.B, links.A
	}
	count := sc.PacketCount()
	txPrim := mac.NewTransmitter(primLink, s.RNG("uptx/prim"))
	txPrim.SetObs(s.Obs(), "up/prim")
	txSec := mac.NewTransmitter(secLink, s.RNG("uptx/sec"))
	txSec.SetObs(s.Obs(), "up/sec")
	c := &uplinkClient{
		s:        s,
		sc:       sc,
		txPrim:   txPrim,
		txSec:    txSec,
		wire:     netsim.NewWire(s, "uplan", lanLatency, lanJitter, 0),
		tr:       trace.New(count, 0, sc.Profile.Spacing),
		divers:   diversifi,
		maxQueue: 4 * sc.Profile.APQueueLen(),
	}
	c.onWire = func(q pkt.Packet) { c.tr.RecordArrival(q.Seq, q.Arrived) }

	// The application hands the client a packet every Spacing.
	emit := func(seq int) {
		p := pkt.Packet{StreamID: 1, Seq: seq, Size: sc.Profile.PacketBytes, SentAt: s.Now()}
		c.enqueue(p)
	}
	s.Train(count, sim.Lane{At: periodic(sc.Profile.Spacing), Fn: emit})
	s.Run(sim.Time(sc.Duration + 2*sim.Second))

	return UplinkResult{Scenario: sc, Trace: c.tr, Stats: c.stats, PrimaryIsA: primaryIsA}
}

// enqueue adds a packet to the client's own transmit queue (head-drop:
// stale real-time packets are worthless).
func (c *uplinkClient) enqueue(p pkt.Packet) {
	if len(c.queue) >= c.maxQueue {
		c.queue = c.queue[1:]
		c.stats.QueueDrops++
	}
	c.queue = append(c.queue, p)
	c.kick()
}

// kick drains the transmit queue one packet at a time.
func (c *uplinkClient) kick() {
	if c.sending || len(c.queue) == 0 {
		return
	}
	c.sending = true
	p := c.queue[0]
	c.queue = c.queue[1:]
	out := c.txPrim.Transmit(c.s.Now(), p.Size)
	c.stats.Transmitted++
	c.s.Schedule(out.At, func() {
		if out.Delivered {
			c.deliver(p)
			c.sending = false
			c.kick()
			return
		}
		c.stats.PrimaryFailures++
		if !c.divers || c.pastDeadline(p, switchCostUplink()) {
			// Known loss; nothing to do (or no time left).
			c.sending = false
			c.kick()
			return
		}
		c.recoverOnSecondary(p)
	})
}

// recoverOnSecondary hops to the secondary, retransmits p (and keeps the
// link for immediately following packets while it is there — bursts fail
// together), then hops back.
func (c *uplinkClient) recoverOnSecondary(p pkt.Packet) {
	c.stats.RecoverySwitches++
	c.s.After(switchCostUplink(), func() {
		c.retransmit(p, func() {
			// Return to the primary before resuming the queue.
			c.s.After(switchCostUplink(), func() {
				c.sending = false
				c.kick()
			})
		})
	})
}

// retransmit sends p over the secondary; done runs afterwards.
func (c *uplinkClient) retransmit(p pkt.Packet, done func()) {
	if c.pastDeadline(p, 0) {
		done()
		return
	}
	c.stats.Retransmitted++
	out := c.txSec.Transmit(c.s.Now(), p.Size)
	c.s.Schedule(out.At, func() {
		if out.Delivered {
			c.stats.Recovered++
			c.deliver(p)
		}
		// While on the secondary, serve any queued packet whose primary
		// attempt would anyway start late — but keep it simple and fair:
		// only the failed packet is retried here; queued packets go back
		// through the primary path.
		done()
	})
}

// deliver forwards the packet over the wired LAN to the peer.
func (c *uplinkClient) deliver(p pkt.Packet) {
	c.wire.Send(p, c.onWire)
}

// pastDeadline reports whether p can no longer reach the peer in time,
// assuming extra cost before the next transmission could start.
func (c *uplinkClient) pastDeadline(p pkt.Packet, extra sim.Duration) bool {
	return c.s.Now().Add(extra) > p.SentAt.Add(c.sc.Profile.Deadline)
}

// switchCostUplink is the uplink link-switch cost: the same PSM signalling
// plus retune as the downlink client pays.
func switchCostUplink() sim.Duration {
	return mac.PSMSignalLatency + mac.ChannelSwitchLatency
}
