package analyze

import (
	"fmt"

	"repro/internal/obs"
)

// The slo family: alert episodes from the slo-trace-v1 events the
// streaming SLO engine (internal/obs/slo) emits under its "slo/<hash8>"
// run label. One pass yields per-rule lifetime stats and per-episode
// timelines (pending → firing → resolved), plus a lint over the engine's
// state machine:
//
//   - episode sequences per (run, rule) are strictly increasing;
//   - at most one episode per (run, rule) is open at a time;
//   - slo-firing and slo-resolved refer to the open episode's sequence
//     (firing at most once per episode, resolving only what is open);
//   - per-(run, rule) timestamps never run backwards.
//
// An episode still open at end of trace is not a violation — a process
// may exit mid-alert — it is reported with outcome "open".

// VSLO is the violation kind for SLO state-machine findings.
const VSLO = "slo"

// SLOEpisode is one alert episode's reconstructed lifetime.
type SLOEpisode struct {
	// Rule is the alert rule name (the event Node); Seq the rule-local
	// episode sequence; Run the engine's "slo/<hash8>" label.
	Rule string `json:"rule"`
	Seq  int    `json:"seq"`
	Run  string `json:"run"`
	// Line is the trace line of the opening slo-pending event.
	Line int64 `json:"line"`
	// PendingUS/FiringUS/ResolvedUS are the transition times in simulated
	// microseconds (-1 where the transition never happened).
	PendingUS  int64 `json:"pending_us"`
	FiringUS   int64 `json:"firing_us"`
	ResolvedUS int64 `json:"resolved_us"`
	// Fired marks an episode that reached firing before resolving.
	Fired bool `json:"fired"`
	// Outcome is "resolved" or "open" (end of trace).
	Outcome string `json:"outcome"`
	// Value and Bound echo the opening transition's detail tokens: the
	// violating signal value and the threshold it crossed ("min=3.600").
	Value string `json:"value,omitempty"`
	Bound string `json:"bound,omitempty"`
}

// SLORuleStat is one rule's lifetime accounting across the trace.
type SLORuleStat struct {
	Episodes int64 `json:"episodes"`
	Fired    int64 `json:"fired"`
	Resolved int64 `json:"resolved"`
	Open     int64 `json:"open"`
	// FiringUS sums time spent in the firing state over resolved episodes.
	FiringUS int64 `json:"firing_us"`
}

// SLOReport is the slo family's report.
type SLOReport struct {
	Lines  int64 `json:"lines"`
	Blank  int64 `json:"blank"`
	Events int64 `json:"events"`
	// SLOEvents counts the slo-* family; Skipped well-formed events of
	// other families sharing the file (not violations).
	SLOEvents int64            `json:"slo_events"`
	Skipped   int64            `json:"skipped"`
	Runs      []string         `json:"runs"`
	ByType    map[string]int64 `json:"by_type"`

	// Rules maps rule name → lifetime stats; Episodes lists episodes in
	// pending order.
	Rules    map[string]*SLORuleStat `json:"rules"`
	Episodes []SLOEpisode            `json:"episodes"`

	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int64       `json:"total_violations"`
}

// Clean reports whether the trace passed the SLO lint.
func (r *SLOReport) Clean() bool { return r.TotalViolations == 0 }

// sloKey names one rule's alert stream within a run.
type sloKey struct{ run, rule string }

// sloFamily is the slo family's state within a pass.
type sloFamily struct {
	p        *pass
	rep      *SLOReport
	episodes map[sloKey]*SLOEpisode // open episode per (run, rule)
	lastSeq  map[sloKey]int         // highest seq per (run, rule)
	order    []*SLOEpisode          // episodes in pending order
	runs     map[string]bool
}

func newSLO(p *pass) family {
	return &sloFamily{
		p:        p,
		rep:      &SLOReport{ByType: map[string]int64{}, Rules: map[string]*SLORuleStat{}},
		episodes: map[sloKey]*SLOEpisode{},
		lastSeq:  map[sloKey]int{},
		runs:     map[string]bool{},
	}
}

// event advances the alert state machine of the event's (run, rule).
func (f *sloFamily) event(ev obs.Event) {
	f.rep.ByType[ev.Ev]++
	f.runs[ev.Run] = true
	key := sloKey{ev.Run, ev.Node}
	st := f.rep.Rules[ev.Node]
	if st == nil {
		st = &SLORuleStat{}
		f.rep.Rules[ev.Node] = st
	}
	open := f.episodes[key]
	switch ev.Ev {
	case obs.EvSLOPending:
		if open != nil {
			f.p.violate(famSLO, VSLO, "pending at t=%d opens episode %d of rule %q while episode %d is still open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
			return
		}
		if last := f.lastSeq[key]; ev.Seq <= last {
			f.p.violate(famSLO, VSLO, "pending at t=%d reuses episode seq %d of rule %q (last was %d)",
				ev.TUS, ev.Seq, ev.Node, last)
		}
		f.lastSeq[key] = ev.Seq
		tok := parseTokens(ev.Detail)
		e := &SLOEpisode{
			Rule: ev.Node, Seq: ev.Seq, Run: ev.Run, Line: f.p.line,
			PendingUS: ev.TUS, FiringUS: -1, ResolvedUS: -1, Outcome: "open",
			Value: tok["value"],
		}
		if v, ok := tok["min"]; ok {
			e.Bound = "min=" + v
		} else if v, ok := tok["max"]; ok {
			e.Bound = "max=" + v
		}
		f.episodes[key] = e
		f.order = append(f.order, e)
		st.Episodes++
	case obs.EvSLOFiring:
		switch {
		case open == nil:
			f.p.violate(famSLO, VSLO, "firing at t=%d for rule %q with no open episode", ev.TUS, ev.Node)
		case open.Seq != ev.Seq:
			f.p.violate(famSLO, VSLO, "firing at t=%d names episode %d of rule %q but episode %d is open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
		case open.Fired:
			f.p.violate(famSLO, VSLO, "episode %d of rule %q fired twice (second at t=%d)", ev.Seq, ev.Node, ev.TUS)
		default:
			open.Fired = true
			open.FiringUS = ev.TUS
			st.Fired++
		}
	case obs.EvSLOResolved:
		switch {
		case open == nil:
			f.p.violate(famSLO, VSLO, "resolved at t=%d for rule %q with no open episode", ev.TUS, ev.Node)
		case open.Seq != ev.Seq:
			f.p.violate(famSLO, VSLO, "resolved at t=%d names episode %d of rule %q but episode %d is open",
				ev.TUS, ev.Seq, ev.Node, open.Seq)
		default:
			open.Outcome = "resolved"
			open.ResolvedUS = ev.TUS
			if open.Fired && open.FiringUS >= 0 {
				st.FiringUS += ev.TUS - open.FiringUS
			}
			st.Resolved++
			delete(f.episodes, key)
		}
	}
}

// finish counts the episodes still open and fills res.SLO.
func (f *sloFamily) finish(res *Result) {
	for _, e := range f.episodes {
		f.rep.Rules[e.Rule].Open++
	}
	r := f.rep
	for _, e := range f.order {
		r.Episodes = append(r.Episodes, *e)
	}
	r.Lines, r.Blank, r.Events = f.p.rep.Lines, f.p.rep.Blank, f.p.rep.Events
	r.SLOEvents = f.p.owned[famSLO]
	r.Skipped = r.Events - r.SLOEvents
	r.Runs = sortedKeys(f.runs)
	r.Violations, r.TotalViolations = f.p.findings(famSLO)
	res.SLO = r
}

// chrome draws one lane per rule: each episode a span from pending to
// resolved (an open one to its run's last slo event) with its firing arc
// as a nested slice, then every transition as an instant.
func (f *sloFamily) chrome(c *chromeWriter, evs []obs.Event) {
	lastUS := map[string]int64{}
	for _, ev := range evs {
		lastUS[ev.Run] = max(lastUS[ev.Run], ev.TUS)
	}
	for _, e := range f.rep.Episodes {
		end := e.ResolvedUS
		if end < 0 {
			end = lastUS[e.Run]
		}
		c.add(e.Run, "rule "+e.Rule, chromeEvent{
			Name: fmt.Sprintf("episode %d", e.Seq), Cat: "slo-episode", Ph: "X",
			TS: e.PendingUS, Dur: int64Ptr(end - e.PendingUS),
			Args: &chromeArgs{Seq: intPtr(e.Seq), Detail: fmt.Sprintf("outcome=%s %s value=%s", e.Outcome, e.Bound, e.Value)},
		})
		if e.Fired && e.FiringUS >= 0 {
			c.add(e.Run, "rule "+e.Rule, chromeEvent{
				Name: "firing", Cat: "slo-firing", Ph: "X", TS: e.FiringUS, Dur: int64Ptr(end - e.FiringUS),
			})
		}
	}
	for _, ev := range evs {
		c.add(ev.Run, "rule "+ev.Node, chromeEvent{
			Name: ev.Ev, Cat: ev.Ev, Ph: "i", S: "t", TS: ev.TUS,
			Args: &chromeArgs{Seq: intPtr(ev.Seq), Detail: ev.Detail},
		})
	}
}
