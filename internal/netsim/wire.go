// Package netsim models the wired side of DiversiFi's deployments: LAN and
// WAN paths, the SDN-capable switch that replicates real-time flows, and the
// buffering middlebox of §5.3.2.
package netsim

import (
	"repro/internal/sim/rng"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Wire is a one-way wired path with fixed propagation delay, random jitter,
// and independent random loss. LAN paths have sub-millisecond delay and
// essentially no loss; WAN paths are configured per scenario.
type Wire struct {
	Name    string
	Latency sim.Duration // base one-way delay
	Jitter  sim.Duration // mean of an exponential jitter term
	Loss    float64      // independent per-packet loss probability

	sim  *sim.Simulator
	rng  *rng.Stream
	last sim.Time // latest scheduled arrival, to keep the wire FIFO

	// In-flight packets, FIFO by arrival time. One dispatch closure (built
	// at construction) is scheduled per arrival and pops the head, so
	// steady-state forwarding allocates nothing per packet.
	inflight pkt.Ring[arrival]
	dispatch func()

	sent, dropped int
}

// arrival is one in-flight packet and its delivery callback.
type arrival struct {
	p       pkt.Packet
	at      sim.Time
	deliver func(pkt.Packet)
}

// NewWire creates a wire driven by the simulator's named RNG stream.
func NewWire(s *sim.Simulator, name string, latency, jitter sim.Duration, loss float64) *Wire {
	w := &Wire{
		Name: name, Latency: latency, Jitter: jitter, Loss: loss,
		sim: s, rng: s.RNG("wire/" + name),
	}
	w.dispatch = func() {
		a := w.inflight.Pop()
		a.p.Arrived = a.at
		a.deliver(a.p)
	}
	return w
}

// Send puts p on the wire at the current virtual time; deliver fires at the
// arrival time unless the packet is lost. The wire is FIFO: a packet never
// overtakes one sent before it, even when jitter draws would reorder them.
func (w *Wire) Send(p pkt.Packet, deliver func(pkt.Packet)) {
	w.sent++
	if w.Loss > 0 && w.rng.Float64() < w.Loss {
		w.dropped++
		return
	}
	delay := w.Latency
	if w.Jitter > 0 {
		delay += sim.Duration(w.rng.ExpFloat64() * float64(w.Jitter))
	}
	at := w.sim.Now().Add(delay)
	if at < w.last {
		at = w.last
	}
	w.last = at
	// FIFO arrival times mean each scheduled dispatch maps 1:1, in order,
	// onto the in-flight queue's head.
	w.inflight.Push(arrival{p: p, at: at, deliver: deliver})
	w.sim.Schedule(at, w.dispatch)
}

// SentCount returns packets offered to the wire.
func (w *Wire) SentCount() int { return w.sent }

// DroppedCount returns packets lost on the wire.
func (w *Wire) DroppedCount() int { return w.dropped }
