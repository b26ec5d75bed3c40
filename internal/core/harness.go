package core

import (
	"sync"

	"repro/internal/ap"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Every runner builds its call through this harness: newWorld builds the
// simulator and the scenario's links, stronger picks the primary, leg
// builds an AP and the LAN wire that feeds it, packets is the train lane
// that sends the call's stream, and release hands all of it back. The
// callers name every random stream, so each runner keeps its own.

// LAN path parameters used by every deployment: sub-millisecond wired hops.
const (
	lanLatency = 500 * sim.Microsecond
	lanJitter  = 200 * sim.Microsecond
)

// world is one call's simulator and links, with every part a runner built
// on them through own.
type world struct {
	s *sim.Simulator
	Links
	parts []interface{ Release() }
}

// worlds holds released worlds, so a world's list of parts keeps its
// storage.
var worlds sync.Pool

// newWorld builds sc's simulator and links.
func newWorld(sc Scenario) *world {
	w, _ := worlds.Get().(*world)
	if w == nil {
		w = new(world)
	}
	w.s = sim.New(sc.Seed)
	w.Links = sc.Build(w.s)
	return w
}

// own adds p to what w's release hands back, and returns it.
func own[T interface{ Release() }](w *world, p T) T {
	w.parts = append(w.parts, p)
	return p
}

// release hands every owned part, both links and the simulator back to the
// pools their constructors draw from. Only the runner that built w may call
// it, once its result holds only values and storage of its own: nothing
// built on w may run or be read afterwards.
func (w *world) release() {
	for _, p := range w.parts {
		p.Release()
	}
	clear(w.parts)
	w.A.Release()
	w.B.Release()
	w.s.Release()
	*w = world{parts: w.parts[:0]}
	worlds.Put(w)
}

// stronger returns the link with the higher RSSI at call start and the
// other one, and whether the stronger is link A, which wins a tie. A
// link's first query draws its shadowing and later queries at t=0 read
// it, so picking right after Build draws what a query at t=0 would.
func (l Links) stronger() (strong, weak *phy.Link, isA bool) {
	if l.A.RSSIdBm(0) >= l.B.RSSIdBm(0) {
		return l.A, l.B, true
	}
	return l.B, l.A, false
}

// newLink builds one of a call's links on the named stream, for the
// client on l's trajectory in l's environment: p names the link and places
// its AP, spec gives its attenuation, shadowing and fading.
func (l Links) newLink(s *sim.Simulator, sc Scenario, stream string, p phy.LinkParams, spec ScenarioLink) *phy.Link {
	p.Client, p.Obs, p.MIMOOrder, p.ExtraLoss = l.Mob, s.Obs(), sc.MIMOOrder, spec.ExtraLossDB
	p.ShadowDB, p.ShadowT, p.FadeGood, p.FadeBad = spec.ShadowDB, spec.ShadowDecorr, spec.FadeGood, spec.FadeBad
	link := phy.NewLink(s.RNG(stream), l.Env, p)
	link.SetFadeDepth(spec.FadeDepthDB)
	return link
}

// lan builds a wired LAN hop drawing from stream wire/<name>.
func (w *world) lan(name string) *netsim.Wire {
	return own(w, netsim.NewWire(w.s, name, lanLatency, lanJitter, 0))
}

// leg builds one link's downlink leg: an AP on the link's channel,
// configured by cfg and drawing from stream apStream, and the LAN wire
// wireName that feeds it. It returns the AP and the function that sends a
// packet down the wire to it.
func (w *world) leg(link *phy.Link, cfg ap.Config, apStream, wireName string, pres ap.ClientPresence, deliver func(pkt.Packet, sim.Time)) (*ap.AP, func(pkt.Packet)) {
	cfg.Chan = link.Channel()
	a := own(w, ap.New(w.s, cfg, link, w.s.RNG(apStream), pres, deliver))
	// Bind the AP's Enqueue once: a method value per packet would allocate.
	wire, enq := w.lan(wireName), a.Enqueue
	return a, func(p pkt.Packet) { wire.Send(p, enq) }
}

// recorder returns an AP delivery callback that records arrivals in tr.
func recorder(tr *trace.Trace) func(pkt.Packet, sim.Time) {
	return func(p pkt.Packet, at sim.Time) { tr.RecordArrival(p.Seq, at) }
}

// packets returns the Train lane that sends a call's stream of profile p to
// send: packet i (stream 1, Seq i, p's PacketBytes) leaves at start +
// i·Spacing, its SentAt.
func packets(p traffic.Profile, start sim.Time, send func(pkt.Packet)) sim.Lane {
	spacing, size := p.Spacing, p.PacketBytes
	at := func(i int) sim.Time { return start.Add(sim.Duration(i) * spacing) }
	return sim.Lane{At: at, Fn: func(i int) {
		send(pkt.Packet{StreamID: 1, Seq: i, Size: size, SentAt: at(i)})
	}}
}
