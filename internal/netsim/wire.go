// Package netsim models the wired side of DiversiFi's deployments: LAN and
// WAN paths, the SDN-capable switch that replicates real-time flows, and the
// buffering middlebox of §5.3.2.
package netsim

import (
	"sync"

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

	released bool // set by Release until NewWire draws the wire again
}

// released holds wires handed back by Release.
var released sync.Pool

// arrival is one in-flight packet and its delivery callback.
type arrival struct {
	p       pkt.Packet
	at      sim.Time
	deliver func(pkt.Packet)
}

// NewWire creates a wire driven by the simulator's named RNG stream. It
// reuses a released wire when one is pooled, reset to exactly what a fresh
// one is: nothing in flight (the ring's storage kept), the bound dispatch
// callback, and zero counts.
func NewWire(s *sim.Simulator, name string, latency, jitter sim.Duration, loss float64) *Wire {
	w, _ := released.Get().(*Wire)
	if w == nil {
		w = new(Wire)
		w.dispatch = func() {
			a := w.inflight.Pop()
			a.p.Arrived = a.at
			a.deliver(a.p)
		}
	}
	*w = Wire{
		Name: name, Latency: latency, Jitter: jitter, Loss: loss,
		sim: s, rng: s.RNG("wire/" + name),
		inflight: w.inflight, dispatch: w.dispatch,
	}
	return w
}

// Release hands w and its in-flight storage to the pool NewWire draws
// from. Only the owner of the call's world may call it, once the simulator
// that drives w will run no more of its events; it drops every packet still
// in flight with its delivery callback, so the pool pins nothing of the
// call. Release on nil or on a released wire does nothing.
func (w *Wire) Release() {
	if w == nil || w.released {
		return
	}
	w.inflight.Reset()
	*w = Wire{inflight: w.inflight, dispatch: w.dispatch, released: true}
	released.Put(w)
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
