package core

import (
	"repro/internal/ap"
	"repro/internal/assoc"
	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// LAN path parameters used by every deployment: sub-millisecond wired hops.
const (
	lanLatency = 500 * sim.Microsecond
	lanJitter  = 200 * sim.Microsecond
)

// DualCall is the result of a two-NIC run: the full stream received
// independently over both links, the raw material for every §4 strategy
// comparison (the paper's 458-call corpus has exactly this form).
type DualCall struct {
	Scenario       Scenario
	TraceA, TraceB *trace.Trace
	RSSIA, RSSIB   float64 // OS-visible RSSI at call start
	// RSSISeriesA/B sample each link's OS-visible RSSI once per second
	// over the call — the signal a handoff policy watches.
	RSSISeriesA, RSSISeriesB []float64
}

// StrongerIsA reports whether link A is the stronger (higher-RSSI) link.
func (d DualCall) StrongerIsA() bool { return d.RSSIA >= d.RSSIB }

// StrongerTrace returns the stronger link's trace, WeakerTrace the other.
func (d DualCall) StrongerTrace() *trace.Trace {
	if d.StrongerIsA() {
		return d.TraceA
	}
	return d.TraceB
}

// WeakerTrace returns the weaker link's trace.
func (d DualCall) WeakerTrace() *trace.Trace {
	if d.StrongerIsA() {
		return d.TraceB
	}
	return d.TraceA
}

// Release hands the call's traces and RSSI series back for later calls to
// reuse. Only the holder of d and of every copy and view of it (a
// StrongerTrace, say) may call it, and nothing may read them afterwards: a
// later call may be recording into the same storage. A DualCall nobody
// releases is collected as usual.
func (d *DualCall) Release() {
	d.TraceA.Release()
	d.TraceB.Release()
	rssiSeries.put(d.RSSISeriesA)
	rssiSeries.put(d.RSSISeriesB)
	d.RSSISeriesA, d.RSSISeriesB = nil, nil
}

// release hands the call's two links back to the pool phy.NewLink draws
// from.
func (l Links) release() {
	l.A.Release()
	l.B.Release()
}

// RunDualCall simulates one call received concurrently on both links with
// a dedicated NIC per link (stock tail-drop APs, client always listening).
// Its world (simulator, links, APs, wires, source) is released once the
// result holds only values and its own traces and series.
func RunDualCall(sc Scenario) DualCall {
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	count := sc.PacketCount()
	trA := trace.New(count, 0, sc.Profile.Spacing)
	trB := trace.New(count, 0, sc.Profile.Spacing)

	apA := ap.New(s, ap.Config{Name: "A", Chan: links.A.Channel()}, links.A, s.RNG("ap/A"),
		ap.AlwaysListening{}, func(p pkt.Packet, at sim.Time) { trA.RecordArrival(p.Seq, at) })
	apB := ap.New(s, ap.Config{Name: "B", Chan: links.B.Channel()}, links.B, s.RNG("ap/B"),
		ap.AlwaysListening{}, func(p pkt.Packet, at sim.Time) { trB.RecordArrival(p.Seq, at) })

	wireA := netsim.NewWire(s, "lanA", lanLatency, lanJitter, 0)
	wireB := netsim.NewWire(s, "lanB", lanLatency, lanJitter, 0)
	// Bind the delivery callbacks once; building a method value per packet
	// shows up in -benchmem at corpus scale.
	enqA, enqB := apA.Enqueue, apB.Enqueue
	src := traffic.NewSource(s, 1, sc.Profile, func(p pkt.Packet) {
		wireA.Send(p, enqA)
		wireB.Send(p, enqB)
	})

	var rssiA, rssiB float64
	s.Schedule(0, func() {
		rssiA = links.A.RSSIdBm(0)
		rssiB = links.B.RSSIdBm(0)
		src.Start(count)
	})
	// One RSSI sample at the start of every second of the call; the train
	// runs all of them, so every entry is written.
	seconds := int((sc.Duration + sim.Second - 1) / sim.Second)
	seriesA, seriesB := rssiSeries.take(seconds), rssiSeries.take(seconds)
	s.Train(seconds, sim.Lane{At: periodic(sim.Second), Fn: func(i int) {
		seriesA[i] = links.A.RSSIdBm(s.Now())
		seriesB[i] = links.B.RSSIdBm(s.Now())
	}})
	s.Run(sim.Time(sc.Duration + 2*sim.Second))

	src.Release()
	apA.Release()
	apB.Release()
	wireA.Release()
	wireB.Release()
	links.release()
	s.Release()
	return DualCall{Scenario: sc, TraceA: trA, TraceB: trB, RSSIA: rssiA, RSSIB: rssiB,
		RSSISeriesA: seriesA, RSSISeriesB: seriesB}
}

// periodic returns the Train times of a stream with one event every period
// from t=0.
func periodic(period sim.Duration) func(int) sim.Time {
	return func(i int) sim.Time { return sim.Time(i) * sim.Time(period) }
}

// DiversiFiMode selects where the secondary copy is buffered.
type DiversiFiMode int

const (
	// ModeCustomAP buffers at a minimally modified secondary AP
	// (head-drop PSM queue, settable depth) — §5.3.1.
	ModeCustomAP DiversiFiMode = iota
	// ModeMiddlebox buffers at a middlebox behind an SDN switch,
	// leaving both APs unmodified — §5.3.2.
	ModeMiddlebox
	// ModeStockAP is the inefficient "End-to-End" strawman: the secondary
	// AP keeps its stock deep tail-drop PSM buffer.
	ModeStockAP
)

func (m DiversiFiMode) String() string {
	switch m {
	case ModeCustomAP:
		return "custom-ap"
	case ModeMiddlebox:
		return "middlebox"
	case ModeStockAP:
		return "stock-ap"
	default:
		return "unknown"
	}
}

// DiversiFiOptions tunes a single-NIC DiversiFi run beyond the defaults.
type DiversiFiOptions struct {
	Mode DiversiFiMode
	// ClientConfig overrides Algorithm 1 constants; the Profile field is
	// set from the scenario.
	ClientConfig client.Config
	// SecondaryQueue overrides the secondary buffer depth (0 = profile's
	// APQueueLen, i.e. 5 for G.711).
	SecondaryQueue int
	// SecondaryPolicy overrides the queue policy for ModeCustomAP
	// ablations; ignored unless forceQueuePolicy.
	SecondaryPolicy  ap.QueuePolicy
	ForceQueuePolicy bool
	// MiddleboxLoad adds background streams to the middlebox (§6.4).
	MiddleboxLoad int
	// SecondaryHWBatch overrides the secondary AP's hardware commit batch
	// (0 = ap.DefaultHWBatch) — the knob behind the wasteful-duplication
	// mechanism of §5.3.1.
	SecondaryHWBatch int
	// FullAssociation runs the 802.11 management plane before the call:
	// the client scans both channels, associates a virtual adapter with
	// each AP, and delivers the queue configuration through the vendor IE
	// of the association request (§5.2.2, §5.3.1) instead of by fiat.
	FullAssociation bool
}

// DiversiFiResult is the outcome of a single-NIC DiversiFi call.
type DiversiFiResult struct {
	Scenario Scenario
	Mode     DiversiFiMode
	// AssociationDelay is the management-plane setup time when
	// FullAssociation was requested (scan dwells + handshakes).
	AssociationDelay sim.Duration
	Trace            *trace.Trace
	Client           client.Stats
	Primary          ap.Stats
	Secondary        ap.Stats
	PrimaryIsA       bool
	// Recoveries holds one entry per loss-triggered recovery: its
	// switch-to-first-secondary-packet delay (Total) and the paper's
	// detect / switch / retrieve components.
	Recoveries []client.RecoveryEvent
	// WastefulRate is unnecessary secondary transmissions (client already
	// had the packet, or nobody was listening) over total stream packets.
	WastefulRate float64
	// Absences are the NIC's away-from-primary intervals (for TCP).
	Absences []client.Interval
}

// Release hands the result's trace and logs back for later calls to reuse.
// Only the holder of r and of every copy of it may call it, and nothing
// may read them afterwards. A result nobody releases is collected as
// usual.
func (r *DiversiFiResult) Release() {
	r.Trace.Release()
	recoveryLogs.put(r.Recoveries)
	absenceLogs.put(r.Absences)
	r.Recoveries, r.Absences = nil, nil
}

// mbAdapter connects the client's SecondaryBuffer hook to a middlebox.
type mbAdapter struct {
	mb       *netsim.Middlebox
	streamID int
}

func (a mbAdapter) RequestFrom(firstSeq int) { a.mb.Start(a.streamID, firstSeq) }
func (a mbAdapter) Release()                 { a.mb.Stop(a.streamID) }

// RunDiversiFi simulates one single-NIC DiversiFi call. The stronger link
// (by RSSI at call start) becomes the primary, matching §6.1. Its world
// (simulator, links, APs, wires, client, source) is released once the
// result holds only values, its trace and copies of the client's logs.
func RunDiversiFi(sc Scenario, opts DiversiFiOptions) DiversiFiResult {
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	count := sc.PacketCount()

	// Pick primary by start-of-call RSSI, as the OS would.
	primaryIsA := links.A.RSSIdBm(0) >= links.B.RSSIdBm(0)
	primLink, secLink := links.A, links.B
	if !primaryIsA {
		primLink, secLink = links.B, links.A
	}

	qlen := sc.Profile.APQueueLen()
	if opts.SecondaryQueue > 0 {
		qlen = opts.SecondaryQueue
	}
	secPolicy := ap.HeadDrop
	secQueue := qlen
	switch {
	case opts.ForceQueuePolicy:
		secPolicy = opts.SecondaryPolicy
	case opts.Mode == ModeStockAP:
		secPolicy = ap.TailDrop
		secQueue = ap.DefaultTailDropDepth
	}

	cfg := opts.ClientConfig
	cfg.Profile = sc.Profile

	// The secondary feed depends on the mode; both closures capture secAP,
	// which is assigned below before any packet flows.
	var primAP, secAP *ap.AP
	var wireSec, mbOut, wireMB *netsim.Wire
	var feedSecondary func(pkt.Packet)
	// secEnq is built once and captures secAP by reference (it is assigned
	// below, before any packet flows); per-packet closures would dominate
	// the wired path's allocation profile.
	secEnq := func(q pkt.Packet) { secAP.Enqueue(q) }
	if opts.Mode == ModeMiddlebox {
		mbCfg := netsim.DefaultMiddleboxConfig()
		mbCfg.BufferDepth = qlen
		mb := netsim.NewMiddlebox(s, mbCfg)
		mb.SetBackgroundLoad(opts.MiddleboxLoad)
		mbOut = netsim.NewWire(s, "mbToSec", lanLatency, lanJitter, 0)
		_ = mb.Register(1, netsim.PortFunc(func(p pkt.Packet) {
			mbOut.Send(p, secEnq)
		}))
		wireMB = netsim.NewWire(s, "lanMB", lanLatency, lanJitter, 0)
		mbRecv := mb.Receive
		feedSecondary = func(p pkt.Packet) { wireMB.Send(p, mbRecv) }
		cfg.Secondary = mbAdapter{mb: mb, streamID: 1}
	} else {
		wireSec = netsim.NewWire(s, "lanSec", lanLatency, lanJitter, 0)
		feedSecondary = func(p pkt.Packet) {
			wireSec.Send(p, secEnq)
		}
	}

	c := client.New(s, cfg)
	primAP = ap.New(s, ap.Config{Name: "prim", Chan: primLink.Channel(), Policy: ap.HeadDrop, MaxQueue: qlen},
		primLink, s.RNG("ap/prim"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(primAP, p, at) })
	secAP = ap.New(s, ap.Config{Name: "sec", Chan: secLink.Channel(), Policy: secPolicy, MaxQueue: secQueue, HWBatch: opts.SecondaryHWBatch},
		secLink, s.RNG("ap/sec"), c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(secAP, p, at) })
	c.BindAPs(primAP, secAP)

	wirePrim := netsim.NewWire(s, "lanPrim", lanLatency, lanJitter, 0)

	// The SDN switch (or source-side replication) fans the stream out.
	primEnq := primAP.Enqueue
	sw := netsim.NewSDNSwitch(nil)
	_ = sw.InstallRule(1,
		netsim.PortFunc(func(p pkt.Packet) { wirePrim.Send(p, primEnq) }),
		netsim.PortFunc(func(p pkt.Packet) { feedSecondary(p) }),
	)

	src := traffic.NewSource(s, 1, sc.Profile, func(p pkt.Packet) { sw.Receive(p) })
	startCall := func() {
		c.StartCall(count)
		src.Start(count)
	}
	var assocDelay sim.Duration
	if opts.FullAssociation {
		// The APs start with stock queue settings; the vendor IE in the
		// association request configures them, exercising the real
		// signalling path of §5.3.1.
		primAP.SetQueueConfig(ap.TailDrop, ap.DefaultTailDropDepth)
		secAP.SetQueueConfig(ap.TailDrop, ap.DefaultTailDropDepth)
		applyCfg := func(target *ap.AP) func(assoc.QueueConfig, bool) {
			return func(cfg assoc.QueueConfig, has bool) {
				if !has {
					return
				}
				policy := ap.TailDrop
				if cfg.HeadDrop {
					policy = ap.HeadDrop
				}
				target.SetQueueConfig(policy, int(cfg.MaxQueue))
			}
		}
		air := assoc.NewAir(s)
		rPrim := assoc.NewResponder("corp", assoc.MAC{2, 0, 0, 0, 0, 1}, primLink.Channel(), primLink)
		rPrim.OnAssociate = applyCfg(primAP)
		rSec := assoc.NewResponder("corp", assoc.MAC{2, 0, 0, 0, 0, 2}, secLink.Channel(), secLink)
		rSec.OnAssociate = applyCfg(secAP)
		air.AddResponder(rPrim)
		air.AddResponder(rSec)
		station := assoc.NewStation(s, air)
		wantCfg := &assoc.QueueConfig{HeadDrop: secPolicy == ap.HeadDrop, MaxQueue: uint16(secQueue)}
		primCfg := &assoc.QueueConfig{HeadDrop: true, MaxQueue: uint16(qlen)}
		s.Schedule(0, func() {
			station.Scan([]phy.Channel{primLink.Channel(), secLink.Channel()}, 20*sim.Millisecond,
				func([]assoc.ScanResult) {
					station.Associate(assoc.MAC{6, 0, 0, 0, 0, 1}, rPrim.BSSID,
						assoc.AssocOptions{QueueCfg: primCfg}, func(bool) {
							station.Associate(assoc.MAC{6, 0, 0, 0, 0, 2}, rSec.BSSID,
								assoc.AssocOptions{QueueCfg: wantCfg}, func(bool) {
									assocDelay = sim.Duration(s.Now())
									startCall()
								})
						})
				})
		})
	} else {
		s.Schedule(0, startCall)
	}
	s.Run(sim.Time(assocDelay) + sim.Time(sc.Duration+2*sim.Second))

	cs := c.Stats()
	res := DiversiFiResult{
		AssociationDelay: assocDelay,
		Scenario:         sc,
		Mode:             opts.Mode,
		Trace:            c.Trace(),
		Client:           cs,
		Primary:          primAP.Stats(),
		Secondary:        secAP.Stats(),
		PrimaryIsA:       primaryIsA,
		Recoveries:       recoveryLogs.keep(c.AppendRecoveryEvents(recoveryLogs.take(0))),
		Absences:         absenceLogs.keep(c.AppendAbsences(absenceLogs.take(0))),
	}
	wasted := res.Secondary.WastedTransmissions + cs.DuplicatesReceived
	if count > 0 {
		res.WastefulRate = float64(wasted) / float64(count)
	}

	src.Release()
	c.Release()
	primAP.Release()
	secAP.Release()
	wirePrim.Release()
	wireSec.Release()
	mbOut.Release()
	wireMB.Release()
	links.release()
	s.Release()
	return res
}

// RunTemporal simulates temporal replication (§4.2): two copies of each
// packet sent over the stronger link, the second delayed by delta. The
// returned traces are (replicated, baselineFirstCopyOnly).
func RunTemporal(sc Scenario, delta sim.Duration) (*trace.Trace, *trace.Trace) {
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	link := links.A
	if links.B.RSSIdBm(0) > links.A.RSSIdBm(0) {
		link = links.B
	}
	count := sc.PacketCount()
	repl := trace.New(count, 0, sc.Profile.Spacing)
	base := trace.New(count, 0, sc.Profile.Spacing)

	const copyStream = 2
	a := ap.New(s, ap.Config{Name: "T", Chan: link.Channel()}, link, s.RNG("ap/T"),
		ap.AlwaysListening{}, func(p pkt.Packet, at sim.Time) {
			repl.RecordArrival(p.Seq, at)
			if p.StreamID != copyStream {
				base.RecordArrival(p.Seq, at)
			}
		})
	wire := netsim.NewWire(s, "lanT", lanLatency, lanJitter, 0)
	enq := a.Enqueue
	src := traffic.NewSource(s, 1, sc.Profile, func(p pkt.Packet) {
		wire.Send(p, enq)
		cp := p
		cp.StreamID = copyStream
		s.After(delta, func() { wire.Send(cp, enq) })
	})
	s.Schedule(0, func() { src.Start(count) })
	s.Run(sim.Time(sc.Duration + 2*sim.Second))
	return repl, base
}

// TCPCoexistence runs the §6.3 experiment for one scenario: a DiversiFi
// VoIP call plus an iperf-style TCP flow on the DEF (primary) link, versus
// the same TCP flow with DiversiFi turned off. It returns the two
// throughputs in kbit/s plus the fraction of the call the NIC spent away
// from the DEF channel (the noise-free cost driver).
func TCPCoexistence(sc Scenario) (withKbps, withoutKbps, absentFrac float64) {
	res := RunDiversiFi(sc, DiversiFiOptions{Mode: ModeCustomAP})

	// Rebuild the same radio environment to query the DEF link's quality
	// over the call; the TCP model is fluid, so only link state matters.
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	def := links.A
	if !res.PrimaryIsA {
		def = links.B
	}
	from, to := sim.Time(0), sim.Time(sc.Duration)
	cfg := traffic.DefaultTCPConfig()

	absent := func(a, b sim.Time) sim.Duration { return client.AbsentDuring(res.Absences, a, b) }
	withKbps = traffic.TCPThroughputKbps(def, from, to, cfg, absent, s.RNG("tcp/with"))
	withoutKbps = traffic.TCPThroughputKbps(def, from, to, cfg, nil, s.RNG("tcp/without"))
	absentFrac = float64(absent(from, to)) / float64(to.Sub(from))
	return withKbps, withoutKbps, absentFrac
}

// RunPriorityCall simulates a single-link call (stronger link) with the
// stream transmitted either as best-effort (voice=false, plain DCF) or as
// 802.11e/EDCA voice class (voice=true). Used by the EDCA experiment to
// test the paper's §2 claim that prioritization addresses congestion but
// not wireless loss.
func RunPriorityCall(sc Scenario, voice bool) *trace.Trace {
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	link := links.A
	if links.B.RSSIdBm(0) > links.A.RSSIdBm(0) {
		link = links.B
	}
	count := sc.PacketCount()
	tr := trace.New(count, 0, sc.Profile.Spacing)
	a := ap.New(s, ap.Config{Name: "prio", Chan: link.Channel(), Voice: voice},
		link, s.RNG("ap/prio"), ap.AlwaysListening{},
		func(p pkt.Packet, at sim.Time) { tr.RecordArrival(p.Seq, at) })
	wire := netsim.NewWire(s, "prioLan", lanLatency, lanJitter, 0)
	enq := a.Enqueue
	src := traffic.NewSource(s, 1, sc.Profile, func(p pkt.Packet) { wire.Send(p, enq) })
	s.Schedule(0, func() { src.Start(count) })
	s.Run(sim.Time(sc.Duration + 2*sim.Second))
	return tr
}
