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

// DualCall is the result of a two-NIC run: the full stream received
// independently over both links, the raw material for every §4 strategy
// comparison (the paper's 458-call corpus has exactly this form).
type DualCall struct {
	TraceA, TraceB *trace.Trace
	RSSIA, RSSIB   float64 // OS-visible RSSI at call start
	// RSSISeriesA/B sample each link's OS-visible RSSI once per second
	// over the call — the signal a handoff policy watches.
	RSSISeriesA, RSSISeriesB []float64
}

// StrongerIsA reports whether link A is the stronger (higher-RSSI) link.
func (d DualCall) StrongerIsA() bool { return d.RSSIA >= d.RSSIB }

// WeakerTrace returns the weaker link's trace.
func (d DualCall) WeakerTrace() *trace.Trace {
	if d.StrongerIsA() {
		return d.TraceB
	}
	return d.TraceA
}

// Release hands the call's traces and RSSI series back for later calls to
// reuse. Only the holder of d and of every copy and view of it (the trace
// Stronger returns, say) may call it, and nothing may read them
// afterwards: a later call may be recording into the same storage. A
// DualCall nobody releases is collected as usual.
func (d *DualCall) Release() {
	d.TraceA.Release()
	d.TraceB.Release()
	rssiSeries.put(d.RSSISeriesA)
	rssiSeries.put(d.RSSISeriesB)
	d.RSSISeriesA, d.RSSISeriesB = nil, nil
}

// RunDualCall simulates one call received concurrently on both links with
// a dedicated NIC per link (stock tail-drop APs, client always listening).
// Its world (simulator, links, APs, wires) is released once the result
// holds only values and its own traces and series.
func RunDualCall(sc Scenario) DualCall {
	w := newWorld(sc)
	defer w.release()
	s, count := w.s, sc.PacketCount()
	rssiA, rssiB := w.A.RSSIdBm(0), w.B.RSSIdBm(0) // as the OS reads them when the call starts
	trA := trace.New(count, 0, sc.Profile.Spacing)
	trB := trace.New(count, 0, sc.Profile.Spacing)
	_, sendA := w.leg(w.A, ap.Config{Name: "A"}, "ap/A", "lanA", ap.AlwaysListening{}, recorder(trA))
	_, sendB := w.leg(w.B, ap.Config{Name: "B"}, "ap/B", "lanB", ap.AlwaysListening{}, recorder(trB))
	s.Train(count, packets(sc.Profile, 0, func(p pkt.Packet) {
		sendA(p)
		sendB(p)
	}))
	// One RSSI sample at the start of every second of the call; the train
	// runs all of them, so every entry is written.
	seconds := int((sc.Duration + sim.Second - 1) / sim.Second)
	seriesA, seriesB := rssiSeries.take(seconds), rssiSeries.take(seconds)
	s.Train(seconds, sim.Lane{
		At: func(i int) sim.Time { return sim.Time(i) * sim.Time(sim.Second) },
		Fn: func(i int) {
			seriesA[i] = w.A.RSSIdBm(s.Now())
			seriesB[i] = w.B.RSSIdBm(s.Now())
		},
	})
	s.Run(sim.Time(sc.Duration + 2*sim.Second))
	return DualCall{TraceA: trA, TraceB: trB, RSSIA: rssiA, RSSIB: rssiB,
		RSSISeriesA: seriesA, RSSISeriesB: seriesB}
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
	// AP keeps its stock deep tail-drop PSM buffer (SecondaryQueue sets
	// its depth).
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
	// SecondaryQueue overrides the depth of DiversiFi's buffers (0 = the
	// profile's APQueueLen, 5 for G.711). It sets the primary AP's
	// head-drop queue and the depth the primary's association IE asks
	// for, as well as the secondary's buffer: its head-drop queue, the
	// middlebox buffer in ModeMiddlebox, or its tail-drop queue in
	// ModeStockAP (ap.DefaultTailDropDepth when 0). A sweep of it, such
	// as ablation-queue-size, therefore changes both APs' queues.
	SecondaryQueue int
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
// (simulator, links, APs, wires, client) is released once the result holds
// only values, its trace and copies of the client's logs.
func RunDiversiFi(sc Scenario, opts DiversiFiOptions) DiversiFiResult {
	w := newWorld(sc)
	defer w.release()
	s, count := w.s, sc.PacketCount()
	// Pick primary by start-of-call RSSI, as the OS would.
	primLink, secLink, primaryIsA := w.stronger()

	qlen := sc.Profile.APQueueLen()
	if opts.SecondaryQueue > 0 {
		qlen = opts.SecondaryQueue
	}
	secPolicy, secQueue := ap.HeadDrop, qlen
	if opts.Mode == ModeStockAP {
		secPolicy = ap.TailDrop
		if opts.SecondaryQueue <= 0 {
			secQueue = ap.DefaultTailDropDepth
		}
	}

	cfg := opts.ClientConfig
	cfg.Profile = sc.Profile
	// In middlebox mode the secondary AP's wire comes from the middlebox,
	// which a wire of its own feeds.
	secWire := "lanSec"
	var mb *netsim.Middlebox
	if opts.Mode == ModeMiddlebox {
		mbCfg := netsim.DefaultMiddleboxConfig()
		mbCfg.BufferDepth = qlen
		mb = netsim.NewMiddlebox(s, mbCfg)
		mb.SetBackgroundLoad(opts.MiddleboxLoad)
		cfg.Secondary = mbAdapter{mb: mb, streamID: 1}
		secWire = "mbToSec"
	}

	c := own(w, client.New(s, cfg))
	var primAP, secAP *ap.AP
	primAP, sendPrim := w.leg(primLink, ap.Config{Name: "prim", Policy: ap.HeadDrop, MaxQueue: qlen}, "ap/prim", "lanPrim", c,
		func(p pkt.Packet, at sim.Time) { c.OnDelivery(primAP, p, at) })
	secAP, feedSecondary := w.leg(secLink, ap.Config{Name: "sec", Policy: secPolicy, MaxQueue: secQueue, HWBatch: opts.SecondaryHWBatch},
		"ap/sec", secWire, c, func(p pkt.Packet, at sim.Time) { c.OnDelivery(secAP, p, at) })
	c.BindAPs(primAP, secAP)
	if mb != nil {
		_ = mb.Register(1, netsim.PortFunc(feedSecondary))
		wireMB, mbRecv := w.lan("lanMB"), mb.Receive
		feedSecondary = func(p pkt.Packet) { wireMB.Send(p, mbRecv) }
	}

	// The SDN switch (or source-side replication) fans the stream out.
	sw := netsim.NewSDNSwitch(nil)
	_ = sw.InstallRule(1, netsim.PortFunc(sendPrim), netsim.PortFunc(feedSecondary))

	// The call starts once the association, if any, completes; the run
	// ends at horizon, counted from t=0. startCall captures the profile
	// rather than sc, which would put a copy of sc on the heap per call.
	prof, horizon := sc.Profile, sim.Time(sc.Duration+2*sim.Second)
	startCall := func() {
		c.StartCall(count, horizon)
		s.Train(count, packets(prof, s.Now(), sw.Receive))
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
	s.Run(horizon)

	cs := c.Stats()
	res := DiversiFiResult{
		AssociationDelay: assocDelay,
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
	return res
}

// RunTemporal simulates temporal replication (§4.2): two copies of each
// packet sent over the stronger link, the second delayed by delta. The
// returned traces are (replicated, baselineFirstCopyOnly).
func RunTemporal(sc Scenario, delta sim.Duration) (*trace.Trace, *trace.Trace) {
	w := newWorld(sc)
	defer w.release()
	s, count := w.s, sc.PacketCount()
	link, _, _ := w.stronger()
	repl := trace.New(count, 0, sc.Profile.Spacing)
	base := trace.New(count, 0, sc.Profile.Spacing)

	const copyStream = 2
	_, send := w.leg(link, ap.Config{Name: "T"}, "ap/T", "lanT", ap.AlwaysListening{}, func(p pkt.Packet, at sim.Time) {
		repl.RecordArrival(p.Seq, at)
		if p.StreamID != copyStream {
			base.RecordArrival(p.Seq, at)
		}
	})
	// Each packet's copy (stream 2) leaves delta after it and keeps its
	// SentAt; a negative delta sends it with the packet.
	delta = max(delta, 0)
	s.Train(count, packets(sc.Profile, 0, send), packets(sc.Profile, sim.Time(delta), func(p pkt.Packet) {
		p.StreamID, p.SentAt = copyStream, p.SentAt.Add(-delta)
		send(p)
	}))
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
	defer res.Release()

	// Rebuild the same radio environment to query the DEF link's quality
	// over the call; the TCP model is fluid, so only link state matters.
	w := newWorld(sc)
	defer w.release()
	def, _, _ := w.stronger()
	from, to := sim.Time(0), sim.Time(sc.Duration)
	cfg := traffic.DefaultTCPConfig()

	absent := func(a, b sim.Time) sim.Duration { return client.AbsentDuring(res.Absences, a, b) }
	withKbps = traffic.TCPThroughputKbps(def, from, to, cfg, absent, w.s.RNG("tcp/with"))
	withoutKbps = traffic.TCPThroughputKbps(def, from, to, cfg, nil, w.s.RNG("tcp/without"))
	absentFrac = float64(absent(from, to)) / float64(to.Sub(from))
	return withKbps, withoutKbps, absentFrac
}

// RunPriorityCall simulates a single-link call (stronger link) with the
// stream transmitted either as best-effort (voice=false, plain DCF) or as
// 802.11e/EDCA voice class (voice=true). Used by the EDCA experiment to
// test the paper's §2 claim that prioritization addresses congestion but
// not wireless loss.
func RunPriorityCall(sc Scenario, voice bool) *trace.Trace {
	w := newWorld(sc)
	defer w.release()
	link, _, _ := w.stronger()
	count := sc.PacketCount()
	tr := trace.New(count, 0, sc.Profile.Spacing)
	_, send := w.leg(link, ap.Config{Name: "prio", Voice: voice}, "ap/prio", "prioLan", ap.AlwaysListening{}, recorder(tr))
	w.s.Train(count, packets(sc.Profile, 0, send))
	w.s.Run(sim.Time(sc.Duration + 2*sim.Second))
	return tr
}
