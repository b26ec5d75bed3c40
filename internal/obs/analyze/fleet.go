package analyze

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The fleet family: a sweep's lease lifecycle (fleet-trace-v1,
// docs/OBSERVABILITY.md). One pass yields per-worker timelines (lanes),
// per-lease episodes (grant → heartbeats → complete/expire, with
// stale-reject accounting), and a causality lint over the coordinator's
// lease state machine:
//
//   - a lease sequence is granted at most once;
//   - expire closes an open lease, and only an open lease;
//   - a re-lease grant covers only spans some expired lease returned to
//     the requeue list (split re-grants are tracked by interval);
//   - complete closes an open lease — a complete after expire means the
//     coordinator merged a stale report, the exact double-merge the
//     sharded-equals-single contract forbids;
//   - reject-stale refers to a previously-expired lease;
//   - every expired span is eventually re-leased (checked at end of
//     trace), so no work is silently lost;
//   - per-(run, node, src) timestamps never run backwards.
//
// Only src=coord events drive the state machine — the coordinator is the
// authority on lease state. src=worker events are timeline annotations:
// they appear in lanes and exports but cannot create or close episodes,
// so a worker's trace of its own death never contradicts the
// coordinator's record.

// VLease is the violation kind for lease state-machine findings.
const VLease = "lease"

// LeaseEpisode is one lease's reconstructed lifetime.
type LeaseEpisode struct {
	// ID is the wire lease id ("L7"); Seq its numeric sequence.
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	// Worker holds the lease; From/To its half-open job span.
	Worker string `json:"worker"`
	From   int64  `json:"from"`
	To     int64  `json:"to"`
	// GrantUS/EndUS bound the episode (EndUS -1 while open). ReLease marks
	// a grant from the requeue list rather than fresh work.
	GrantUS int64 `json:"grant_us"`
	EndUS   int64 `json:"end_us"`
	ReLease bool  `json:"re_lease,omitempty"`
	// TTLUS is the granted lease TTL (the grant event's dur_us).
	TTLUS int64 `json:"ttl_us,omitempty"`
	// Heartbeats counts acked keepalives; StaleRejects posthumous reports.
	Heartbeats   int64 `json:"heartbeats"`
	StaleRejects int64 `json:"stale_rejects,omitempty"`
	// Outcome is "completed", "expired", or "open" (end of trace).
	Outcome string `json:"outcome"`
	// Reason annotates expiry ("ttl", "mismatch"); empty otherwise.
	Reason string `json:"reason,omitempty"`
	// ReLeased marks an expired lease whose whole span was granted again
	// — the expire→re-lease episode the kill-worker smoke asserts on.
	ReLeased bool `json:"re_leased,omitempty"`

	run string // the grant's run label, which places the Chrome span
}

// FleetLane is one node's (worker's or coordinator's) timeline summary.
type FleetLane struct {
	Events  int64            `json:"events"`
	ByType  map[string]int64 `json:"by_type"`
	FirstUS int64            `json:"first_us"`
	LastUS  int64            `json:"last_us"`
}

// FleetReport is the fleet family's report.
type FleetReport struct {
	Lines       int64 `json:"lines"`
	Blank       int64 `json:"blank"`
	Events      int64 `json:"events"`
	FleetEvents int64 `json:"fleet_events"`
	// Skipped counts well-formed events of other families sharing the
	// file; they are not violations.
	Skipped int64            `json:"skipped"`
	Runs    []string         `json:"runs"`
	ByType  map[string]int64 `json:"by_type"`

	// Lanes maps node name → timeline summary; Leases lists episodes in
	// grant order.
	Lanes  map[string]*FleetLane `json:"lanes"`
	Leases []LeaseEpisode        `json:"leases"`

	Grants       int64 `json:"grants"`
	ReLeases     int64 `json:"re_lease_grants"`
	Expired      int64 `json:"expired_leases"`
	Completed    int64 `json:"completed_leases"`
	StaleRejects int64 `json:"stale_rejects"`
	Heartbeats   int64 `json:"heartbeats"`
	// ExpireReLeaseEpisodes counts expired leases whose span was fully
	// granted again — each is one recovered worker-death.
	ExpireReLeaseEpisodes int64 `json:"expire_release_episodes"`

	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int64       `json:"total_violations"`
}

// Clean reports whether the trace passed the fleet lint.
func (r *FleetReport) Clean() bool { return r.TotalViolations == 0 }

// pendingSpan is an expired span awaiting re-lease, attributed to the
// lease that lost it.
type pendingSpan struct {
	from, to int64
	seq      int // expired lease's sequence
}

// fleetFamily is the fleet family's state within a pass.
type fleetFamily struct {
	p        *pass
	rep      *FleetReport
	episodes map[int]*LeaseEpisode // by lease seq
	pending  []pendingSpan         // expired intervals not yet re-granted
	// remaining tracks, per expired lease seq, how many jobs of its span
	// still await re-grant; at zero the expire→re-lease episode closes.
	remaining map[int]int64
	order     []*LeaseEpisode // episodes in grant order
	runs      map[string]bool
}

func newFleet(p *pass) family {
	return &fleetFamily{
		p:         p,
		rep:       &FleetReport{ByType: map[string]int64{}, Lanes: map[string]*FleetLane{}},
		episodes:  map[int]*LeaseEpisode{},
		remaining: map[int]int64{},
		runs:      map[string]bool{},
	}
}

// event feeds one fleet event to its lane and — for src=coord events — the
// lease state machine.
func (f *fleetFamily) event(ev obs.Event) {
	f.rep.ByType[ev.Ev]++
	f.runs[ev.Run] = true
	lane := f.rep.Lanes[ev.Node]
	if lane == nil {
		lane = &FleetLane{ByType: map[string]int64{}, FirstUS: ev.TUS}
		f.rep.Lanes[ev.Node] = lane
	}
	lane.Events++
	lane.ByType[ev.Ev]++
	lane.FirstUS = min(lane.FirstUS, ev.TUS)
	lane.LastUS = max(lane.LastUS, ev.TUS)

	tok := parseTokens(ev.Detail)
	if tok["src"] != "coord" {
		return // worker-side narration: timeline only
	}
	switch ev.Ev {
	case obs.EvLeaseGrant:
		f.grant(ev, tok, false)
	case obs.EvReLease:
		f.grant(ev, tok, true)
	case obs.EvFleetHeartbeat:
		f.rep.Heartbeats++
		e := f.episodes[ev.Seq]
		if tok["ok"] == "true" && (e == nil || e.Outcome != "open") {
			f.p.violate(famFleet, VLease, "heartbeat acked at t=%d for lease L%d which is not open", ev.TUS, ev.Seq)
		}
		if e != nil && e.Outcome == "open" && tok["ok"] != "false" {
			e.Heartbeats++
		}
	case obs.EvLeaseExpire:
		e := f.episodes[ev.Seq]
		if e == nil || e.Outcome != "open" {
			f.p.violate(famFleet, VLease, "expire at t=%d for lease L%d which is not open", ev.TUS, ev.Seq)
			return
		}
		e.Outcome = "expired"
		e.EndUS = ev.TUS
		e.Reason = tok["reason"]
		f.rep.Expired++
		if e.To > e.From {
			f.pending = append(f.pending, pendingSpan{from: e.From, to: e.To, seq: e.Seq})
			f.remaining[e.Seq] = e.To - e.From
		}
	case obs.EvLeaseComplete:
		e := f.episodes[ev.Seq]
		switch {
		case e == nil:
			f.p.violate(famFleet, VLease, "complete at t=%d for unknown lease L%d", ev.TUS, ev.Seq)
		case e.Outcome == "expired":
			f.p.violate(famFleet, VLease, "complete at t=%d for expired lease L%d — stale report merged (expected reject-stale)",
				ev.TUS, ev.Seq)
		case e.Outcome == "completed":
			f.p.violate(famFleet, VLease, "lease L%d completed twice (second at t=%d)", ev.Seq, ev.TUS)
		default:
			e.Outcome = "completed"
			e.EndUS = ev.TUS
			f.rep.Completed++
		}
	case obs.EvRejectStale:
		f.rep.StaleRejects++
		e := f.episodes[ev.Seq]
		switch {
		case e == nil:
			f.p.violate(famFleet, VLease, "reject-stale at t=%d for unknown lease L%d", ev.TUS, ev.Seq)
		case e.Outcome == "open":
			f.p.violate(famFleet, VLease, "reject-stale at t=%d for lease L%d which is still open", ev.TUS, ev.Seq)
		default:
			e.StaleRejects++
		}
	}
}

// grant handles lease-grant and re-lease events.
func (f *fleetFamily) grant(ev obs.Event, tok map[string]string, reLease bool) {
	from, to, ok := parseSpan(tok["span"])
	if !ok {
		f.p.violate(famFleet, VLease, "%s at t=%d for lease L%d has no span=a:b token (detail %q)",
			ev.Ev, ev.TUS, ev.Seq, ev.Detail)
	}
	if prev := f.episodes[ev.Seq]; prev != nil {
		f.p.violate(famFleet, VLease, "lease L%d granted twice (second at t=%d)", ev.Seq, ev.TUS)
		return
	}
	e := &LeaseEpisode{
		ID: fmt.Sprintf("L%d", ev.Seq), Seq: ev.Seq, Worker: ev.Node,
		From: from, To: to, GrantUS: ev.TUS, EndUS: -1, ReLease: reLease,
		TTLUS: ev.DurUS, Outcome: "open", run: ev.Run,
	}
	f.episodes[ev.Seq] = e
	f.order = append(f.order, e)
	f.rep.Grants++
	if reLease {
		f.rep.ReLeases++
		if took := f.consumePending(from, to); took < to-from {
			f.p.violate(famFleet, VLease, "re-lease at t=%d grants L%d span %d:%d of which %d jobs were never expired",
				ev.TUS, ev.Seq, from, to, (to-from)-took)
		}
	} else if f.coveredByPending(from, to) {
		f.p.violate(famFleet, VLease, "lease-grant at t=%d for L%d covers expired span %d:%d — should be re-lease",
			ev.TUS, ev.Seq, from, to)
	}
}

// consumePending subtracts a re-granted span from the expired-interval
// pool, closing expire→re-lease episodes whose span is fully recovered.
// Returns how many jobs of [from, to) were actually pending.
func (f *fleetFamily) consumePending(from, to int64) int64 {
	var took int64
	for i := 0; i < len(f.pending); i++ {
		p := &f.pending[i]
		if p.to <= p.from || to <= p.from || p.to <= from {
			continue
		}
		lo := max(from, p.from)
		hi := min(to, p.to)
		took += hi - lo
		// Shrink the pending interval (pending intervals are disjoint, so
		// each overlaps [from, to) independently).
		switch {
		case lo == p.from && hi == p.to:
			p.from, p.to = 0, 0
		case lo == p.from:
			p.from = hi
		case hi == p.to:
			p.to = lo
		default:
			// Middle take: keep the front, append the tail.
			tail := pendingSpan{from: hi, to: p.to, seq: p.seq}
			p.to = lo
			f.pending = append(f.pending, tail)
		}
		f.remaining[p.seq] -= hi - lo
		if f.remaining[p.seq] == 0 {
			if e := f.episodes[p.seq]; e != nil {
				e.ReLeased = true
			}
			f.rep.ExpireReLeaseEpisodes++
			delete(f.remaining, p.seq)
		}
	}
	return took
}

func (f *fleetFamily) coveredByPending(from, to int64) bool {
	for _, p := range f.pending {
		if p.to > p.from && from < p.to && p.from < to {
			return true
		}
	}
	return false
}

// finish flags expired spans never re-leased and fills res.Fleet.
func (f *fleetFamily) finish(res *Result) {
	for _, seq := range sortedKeys(f.remaining) {
		f.p.violate(famFleet, VLease, "lease L%d expired but %d jobs of its span were never re-leased",
			seq, f.remaining[seq])
	}
	r := f.rep
	for _, e := range f.order {
		r.Leases = append(r.Leases, *e)
	}
	r.Lines, r.Blank, r.Events = f.p.rep.Lines, f.p.rep.Blank, f.p.rep.Events
	r.FleetEvents = f.p.owned[famFleet]
	r.Skipped = r.Events - r.FleetEvents
	r.Runs = sortedKeys(f.runs)
	r.Violations, r.TotalViolations = f.p.findings(famFleet)
	res.Fleet = r
}

// chrome draws one lane per node — each worker gets its own, so a sharded
// sweep's lease churn reads as a per-worker Gantt chart. Coordinator-
// authoritative lease episodes render as duration slices spanning grant →
// complete/expire (open leases get a zero-length span at the grant);
// every fleet event renders as an instant.
func (f *fleetFamily) chrome(c *chromeWriter, evs []obs.Event) {
	for _, e := range f.rep.Leases {
		name := e.ID
		if e.ReLease {
			name = e.ID + " (re-lease)"
		}
		span := chromeEvent{
			Name: name, Cat: "lease", Ph: "X", TS: e.GrantUS, Dur: int64Ptr(0),
			Args: &chromeArgs{Detail: fmt.Sprintf("span=%d:%d outcome=%s heartbeats=%d",
				e.From, e.To, e.Outcome, e.Heartbeats)},
		}
		if e.EndUS >= e.GrantUS {
			span.Dur = int64Ptr(e.EndUS - e.GrantUS)
		}
		c.add(e.run, "worker "+e.Worker, span)
	}
	for _, ev := range evs {
		ce := chromeEvent{Name: ev.Ev, Cat: ev.Ev, Ph: "i", S: "t", TS: ev.TUS}
		if ev.Seq >= 0 {
			ce.Name = fmt.Sprintf("%s L%d", ev.Ev, ev.Seq)
			ce.Args = &chromeArgs{Seq: intPtr(ev.Seq), Detail: ev.Detail}
		} else if ev.Detail != "" {
			ce.Args = &chromeArgs{Detail: ev.Detail}
		}
		c.add(ev.Run, "worker "+ev.Node, ce)
	}
}

// parseSpan parses "from:to" into a half-open interval.
func parseSpan(s string) (from, to int64, ok bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return 0, 0, false
	}
	from, err1 := strconv.ParseInt(s[:i], 10, 64)
	to, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	return from, to, err1 == nil && err2 == nil
}
