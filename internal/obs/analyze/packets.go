package analyze

import (
	"fmt"

	"repro/internal/obs"
)

// The packet family: simulation and relay traffic (obs.EventTypes). One
// pass yields
//
//   - episode reconstruction: pairs each client link-switch to the
//     secondary with its retrievals and the switch back, decomposing every
//     recovery into detect / switch / retrieve delays (Table 3's "total"
//     metric is the switch-initiation → first-useful-retrieval delay, the
//     same quantity the client.recovery_delay_us histogram observes);
//   - link structure: per-(run, node) transmit outcomes, loss-burst runs,
//     and head-drop churn;
//   - a causality lint: episodes are well-formed (open before close,
//     retrievals only while open), retrieval durations are consistent with
//     their episode start, and every retrieval inside an AP-served episode
//     was preceded by a delivered tx for that sequence number.
//
// Its ordering stream is (run, node).

// Packet violation kinds.
const (
	// VEpisode is an episode state-machine violation: a switch to the
	// secondary while a visit is already open, a switch to the primary with
	// no visit open, a retrieval outside any visit, or a visit left open at
	// end of trace.
	VEpisode = "episode"
	// VCausality is an effect without its cause: a retrieval whose dur_us
	// disagrees with its episode's start time, or a retrieval with no
	// preceding delivered tx for its seq within the episode.
	VCausality = "causality"
)

// LossHorizonUS is how long a tx-lost event stays eligible as the
// detect-delay trigger for a later recovery switch.
const LossHorizonUS = 5_000_000

// packetFamily is the packet family's state within a pass. Its report is
// the pass's whole-trace Report.
type packetFamily struct {
	p    *pass
	rep  *Report
	runs map[string]*runState
}

// runState is one run's open episode (if any), and the delivered-seq set
// and loss times feeding the causality checks.
type runState struct {
	open         *Episode
	delivered    map[int]bool // seqs tx-delivered while the episode is open
	sawDelivered bool         // episode saw >= 1 delivered tx (AP-served visit)
	lostAt       map[int]int64
}

func newPackets(p *pass) family {
	p.rep.Links = map[string]*LinkStats{}
	return &packetFamily{p: p, rep: p.rep, runs: map[string]*runState{}}
}

// event feeds one packet event to the link accumulators and the episode
// state machine.
func (f *packetFamily) event(ev obs.Event) {
	rs := f.runs[ev.Run]
	if rs == nil {
		rs = &runState{}
		f.runs[ev.Run] = rs
	}
	ls := f.link(ev.Run, ev.Node)
	switch ev.Ev {
	case obs.EvTx:
		switch ev.Detail {
		case obs.TxDelivered:
			ls.TxDelivered++
			ls.endBurst()
			if rs.open != nil {
				if rs.delivered == nil {
					rs.delivered = make(map[int]bool)
				}
				rs.delivered[ev.Seq] = true
				rs.sawDelivered = true
			}
		case obs.TxWasted:
			ls.TxWasted++
			ls.endBurst()
		case obs.TxLost:
			ls.TxLost++
			ls.curBurst++
			ls.MaxBurst = max(ls.MaxBurst, ls.curBurst)
			rs.noteLost(ev.Seq, ev.TUS)
		}
	case obs.EvRetry:
		ls.Retries++
	case obs.EvDrop:
		ls.Drops++
	case obs.EvHeadDrop:
		if ev.Detail == obs.DropEvictOldest {
			ls.HeadDropEvict++
		} else {
			ls.HeadDropRefuse++
		}
	case obs.EvLinkSwitch:
		f.linkSwitch(rs, ev)
	case obs.EvRetrieve:
		f.retrieve(rs, ev)
	case obs.EvPlayoutMiss:
		f.rep.PlayoutMisses++
	}
}

// linkSwitch advances the episode state machine on a link-switch event.
func (f *packetFamily) linkSwitch(rs *runState, ev obs.Event) {
	switch ev.Detail {
	case obs.SwitchToSecondary, obs.SwitchKeepalive:
		if rs.open != nil {
			f.p.violate(famPackets, VEpisode, "link-switch %s at t=%d while episode open since t=%d (run %q)",
				ev.Detail, ev.TUS, rs.open.StartUS, ev.Run)
			f.closeEpisode(rs, -1)
		}
		e := &Episode{
			Run:        ev.Run,
			Kind:       EpisodeRecovery,
			Line:       f.p.line,
			StartUS:    ev.TUS,
			EndUS:      -1,
			TriggerSeq: ev.Seq,
			DetectUS:   -1,
			SwitchUS:   ev.DurUS,
			RetrieveUS: -1,
			TotalUS:    -1,
		}
		if ev.Detail == obs.SwitchKeepalive {
			e.Kind = EpisodeKeepalive
			e.TriggerSeq = -1
			f.rep.Keepalives++
		} else {
			f.rep.Recoveries++
			if ev.Seq >= 0 {
				if lt, ok := rs.lostAt[ev.Seq]; ok {
					e.DetectUS = ev.TUS - lt
					f.rep.DetectDelay.observe(e.DetectUS)
					delete(rs.lostAt, ev.Seq)
				}
			}
		}
		rs.open = e
		rs.delivered = nil
		rs.sawDelivered = false
	case obs.SwitchToPrimary:
		if rs.open == nil {
			f.p.violate(famPackets, VEpisode, "link-switch to-primary at t=%d with no episode open (run %q)",
				ev.TUS, ev.Run)
			return
		}
		f.closeEpisode(rs, ev.TUS)
	}
}

// retrieve checks one retrieve-from-secondary event against its episode and
// accounts the Table 3 delays.
func (f *packetFamily) retrieve(rs *runState, ev obs.Event) {
	f.rep.Retrieved++
	e := rs.open
	if e == nil {
		f.p.violate(famPackets, VEpisode, "retrieve seq %d at t=%d outside any episode (run %q)",
			ev.Seq, ev.TUS, ev.Run)
		return
	}
	// The client stamps dur_us = now - visit start, and the visit starts at
	// the switch event's timestamp, so the two must agree exactly.
	if ev.TUS-ev.DurUS != e.StartUS {
		f.p.violate(famPackets, VCausality, "retrieve seq %d at t=%d has dur_us=%d inconsistent with episode start t=%d",
			ev.Seq, ev.TUS, ev.DurUS, e.StartUS)
	}
	// In an AP-served visit every retrieval is the delivery callback of a
	// secondary tx, so the delivered tx must precede it. Middlebox-served
	// visits emit no tx events; the check arms only once the episode has
	// seen a delivered tx.
	if rs.sawDelivered && !rs.delivered[ev.Seq] {
		f.p.violate(famPackets, VCausality, "retrieve seq %d at t=%d with no delivered tx for that seq in the episode",
			ev.Seq, ev.TUS)
	}
	e.Retrieved++
	if e.TotalUS < 0 {
		e.TotalUS = ev.DurUS
		e.RetrieveUS = ev.DurUS - e.SwitchUS
		if e.Kind == EpisodeRecovery {
			// The first useful retrieval of a recovery visit is exactly the
			// observation client.recovery_delay_us records.
			f.rep.RecoveryDelay.observe(e.TotalUS)
		}
	}
}

// closeEpisode finalizes the run's open episode with the given end time
// (-1 marks an episode that never closed).
func (f *packetFamily) closeEpisode(rs *runState, endUS int64) {
	e := rs.open
	rs.open = nil
	rs.delivered = nil
	rs.sawDelivered = false
	e.EndUS = endUS
	if f.p.opts.KeepEpisodes {
		f.rep.Episodes = append(f.rep.Episodes, *e)
	}
}

// link returns the per-(run, node) accumulator.
func (f *packetFamily) link(run, node string) *LinkStats {
	key := node
	if run != "" {
		key = run + "/" + node
	}
	ls := f.rep.Links[key]
	if ls == nil {
		ls = &LinkStats{}
		f.rep.Links[key] = ls
	}
	return ls
}

// finish closes still-open episodes, flagging each, and the running loss
// bursts.
func (f *packetFamily) finish(*Result) {
	for _, run := range sortedKeys(f.runs) {
		rs := f.runs[run]
		if rs.open != nil {
			f.rep.Unclosed++
			f.p.violate(famPackets, VEpisode, "episode open since t=%d never closed (run %q)",
				rs.open.StartUS, run)
			f.closeEpisode(rs, -1)
		}
	}
	for _, ls := range f.rep.Links {
		ls.endBurst()
	}
}

// noteLost remembers seq's loss time for detect-delay pairing, pruning
// entries past LossHorizonUS so the map stays bounded.
func (rs *runState) noteLost(seq int, tUS int64) {
	if rs.lostAt == nil {
		rs.lostAt = make(map[int]int64)
	}
	rs.lostAt[seq] = tUS
	if len(rs.lostAt) > 256 {
		for s, t := range rs.lostAt {
			if t < tUS-LossHorizonUS {
				delete(rs.lostAt, s)
			}
		}
	}
}

// Packet tracks on the Chrome timeline: one per node, carrying its events
// — tx and retrieve as duration slices (they have dur_us), the rest as
// instants — plus two synthetic per-run tracks. "episodes" holds each
// secondary visit as one slice spanning switch-out to switch-back;
// "episode phases" decomposes the same visit into its detect → switch →
// retrieve delay slices (the Table 3 decomposition). Phases sit on their
// own track because the detect phase starts at the triggering loss, before
// the episode slice opens — the spans overlap rather than nest.
const (
	chromeEpisodeTrack = "episodes"
	chromePhaseTrack   = "episode phases"
)

func (f *packetFamily) chrome(c *chromeWriter, evs []obs.Event) {
	for _, ev := range evs {
		c.add(ev.Run, ev.Node, packetEvent(ev))
	}
	for _, e := range f.rep.Episodes {
		episodeEvents(c, e)
	}
}

// packetEvent renders one packet event: a duration slice when it carries
// dur_us, an instant otherwise.
func packetEvent(ev obs.Event) chromeEvent {
	name := ev.Ev
	if ev.Seq >= 0 {
		name = fmt.Sprintf("%s seq %d", ev.Ev, ev.Seq)
	}
	ce := chromeEvent{Name: name, Cat: ev.Ev, TS: ev.TUS}
	args := &chromeArgs{Attempt: ev.Attempt, Detail: ev.Detail}
	if ev.Seq >= 0 {
		args.Seq = intPtr(ev.Seq)
	}
	if *args != (chromeArgs{}) {
		ce.Args = args
	}
	if ev.DurUS > 0 {
		// The timestamp marks completion; the slice spans the duration.
		ce.Ph = "X"
		ce.TS = ev.TUS - ev.DurUS
		ce.Dur = int64Ptr(ev.DurUS)
	} else {
		ce.Ph = "i"
		ce.S = "t"
	}
	return ce
}

// episodeEvents renders one reconstructed secondary visit: the whole span
// on the episodes track, then its detect/switch/retrieve delay slices on
// the phases track, which exists even when no phase is known. Episodes
// still open at end of trace (EndUS < 0) get a zero-length marker instead
// of a span.
func episodeEvents(c *chromeWriter, e Episode) {
	span := chromeEvent{
		Name: e.Kind + " visit", Cat: "episode", Ph: "X", TS: e.StartUS, Dur: int64Ptr(0),
		Args: &chromeArgs{Line: e.Line, TotalUS: int64Ptr(e.TotalUS), Retrieved: intPtr(e.Retrieved)},
	}
	if e.TriggerSeq >= 0 {
		span.Args.TriggerSeq = intPtr(e.TriggerSeq)
	}
	if e.EndUS >= e.StartUS {
		span.Dur = int64Ptr(e.EndUS - e.StartUS)
	}
	c.add(e.Run, chromeEpisodeTrack, span)
	c.declare(e.Run, chromePhaseTrack)

	phase := func(name string, start, dur int64) {
		if dur >= 0 {
			c.add(e.Run, chromePhaseTrack, chromeEvent{Name: name, Cat: "phase", Ph: "X", TS: start, Dur: int64Ptr(dur)})
		}
	}
	// detect runs from the triggering loss up to switch initiation; switch
	// and retrieve follow back-to-back (TotalUS = SwitchUS + RetrieveUS).
	if e.DetectUS >= 0 {
		phase("detect", e.StartUS-e.DetectUS, e.DetectUS)
	}
	phase("switch", e.StartUS, e.SwitchUS)
	if e.RetrieveUS >= 0 {
		phase("retrieve", e.StartUS+e.SwitchUS, e.RetrieveUS)
	}
}
