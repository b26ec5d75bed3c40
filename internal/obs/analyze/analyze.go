// Package analyze is a streaming analytics engine over the JSONL trace
// contract defined in docs/OBSERVABILITY.md.
//
// One pass reads a trace line by line, decodes every line with the strict
// obs.DecodeEvent, and hands each event to the one family that owns its
// type:
//
//   - packets (obs.EventTypes, packets.go): recovery-episode
//     reconstruction with the Table 3 delay decomposition, per-link
//     transmit outcomes and loss bursts, and the retrieval causality lint;
//   - fleet (obs.FleetEventTypes, fleet.go): a sweep's lease lifecycle;
//   - slo (obs.SLOEventTypes, slo.go): streaming-SLO alert episodes.
//
// Each family is a transition table: the types it owns, the stream its
// ordering lint keys on, what each event does to its state machine, the
// checks it runs at end of trace, and its lanes on the Chrome timeline
// (chrome.go). The pass owns everything they share — the one scanner, line
// and blank counting, the strict decode, the ordering lint, and the one
// violation recorder — so every finding carries the 1-based line of the
// offending event, whichever family raised it. State stays
// O(open-episodes) unless Options.KeepEpisodes is set.
//
// Analyze returns a Result with one report per family; ChromeTrace renders
// the same pass as a timeline. cmd/tracetool is the CLI front end.
package analyze

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Violation kinds every family can raise. The families add their own:
// VEpisode and VCausality (packets), VLease (fleet), VSLO (slo).
const (
	// VDecode is a line the strict decoder rejected (malformed JSON,
	// unknown field, or schema-invalid event). Exactly the lines
	// obs.DecodeEvent rejects, no more and no fewer. No family can claim
	// such a line, so it dirties every family's lint.
	VDecode = "decode"
	// VOrder is a timestamp running backwards, in emission order, within
	// one family's ordering stream.
	VOrder = "order"
)

// DefaultMaxViolations caps the violations kept when Options.MaxViolations
// is zero. The totals still count all of them.
const DefaultMaxViolations = 100

// Options configures an analysis pass. The zero value is a valid
// lint-and-summarize configuration.
type Options struct {
	// KeepEpisodes retains every reconstructed packet episode in
	// Report.Episodes (in close order). Off by default to keep memory
	// O(open-episodes); fleet leases and SLO episodes are always kept.
	KeepEpisodes bool
	// MaxViolations caps the violations kept across all families: 0
	// selects DefaultMaxViolations, negative keeps every violation.
	MaxViolations int
	// WindowUS, when positive, buckets event counts into fixed windows of
	// simulated time (Report.Points) — the trace-derived counterpart of
	// obs.Series.
	WindowUS int64
}

// Family names, in the order Result.Families lists them.
const (
	FamilyPackets = "packets"
	FamilyFleet   = "fleet"
	FamilySLO     = "slo"
)

// Result is the outcome of one pass. Report covers the whole trace — line
// and event totals, event types, windows, and the findings of every family
// — and carries the packet family's episodes and links; Fleet and SLO are
// the other two families' reports, each with its own findings plus the
// decode failures all families share. Every report is populated whether or
// not its family occurs in the trace; Families says which ones do.
type Result struct {
	Report *Report
	Fleet  *FleetReport
	SLO    *SLOReport
	// Owned counts the decoded events of each family, by family name.
	// Every event type has exactly one owner, so the counts sum to
	// Report.Events.
	Owned map[string]int64
}

// Families lists the families with at least one event in the trace, in
// the order packets, fleet, slo; a trace without events lists packets.
func (r *Result) Families() []string {
	var out []string
	for _, f := range families {
		if r.Owned[f.name] > 0 {
			out = append(out, f.name)
		}
	}
	if len(out) == 0 {
		out = []string{FamilyPackets}
	}
	return out
}

// familyDef is one row of the family table.
type familyDef struct {
	name  string
	types []string
	// bySrc splits the ordering stream by the detail's src= token: the
	// coordinator and a worker narrate the same node from their own clocks.
	bySrc bool
	// orderFmt words an order finding from the arguments (type, run, node,
	// src, t, last); explicit argument indexes let a family leave src out.
	orderFmt string
	newState func(p *pass) family
}

// family is one family's state within a pass.
type family interface {
	// event applies the transitions of one owned event.
	event(ev obs.Event)
	// finish runs the end-of-trace checks and stores the family's report
	// in res.
	finish(res *Result)
	// chrome draws the family's tracks from its events and final state.
	chrome(c *chromeWriter, evs []obs.Event)
}

// Indexes into families, used to tag findings; famDecode tags a line no
// family could claim.
const (
	famDecode  = -1
	famPackets = 0
	famFleet   = 1
	famSLO     = 2
)

var families = []familyDef{
	famPackets: {
		name: FamilyPackets, types: obs.EventTypes, newState: newPackets,
		orderFmt: "%[1]s event on %[2]s/%[3]s at t=%[5]d after t=%[6]d",
	},
	famFleet: {
		name: FamilyFleet, types: obs.FleetEventTypes, newState: newFleet, bySrc: true,
		orderFmt: "%[1]s event on %[2]s/%[3]s (src=%[4]s) at t=%[5]d after t=%[6]d",
	},
	famSLO: {
		name: FamilySLO, types: obs.SLOEventTypes, newState: newSLO,
		orderFmt: "%[1]s on %[2]s/%[3]s at t=%[5]d after t=%[6]d",
	},
}

// owner maps each event type to the index of the family that owns it.
var owner = func() map[string]int {
	m := map[string]int{}
	for i, f := range families {
		for _, typ := range f.types {
			m[typ] = i
		}
	}
	return m
}()

// orderKey names one ordering stream.
type orderKey struct {
	fam            int
	run, node, src string
}

// finding is a kept violation tagged with the family that raised it.
type finding struct {
	Violation
	fam int
}

// pass is one streaming analysis over a trace.
type pass struct {
	opts    Options
	maxV    int
	line    int64
	rep     *Report
	fams    []family // parallel to families
	owned   []int64  // events per family
	runs    map[string]bool
	windows map[int64]map[string]int64
	lastT   map[orderKey]int64
	found   []finding     // the first maxV findings, in line order
	total   map[int]int64 // findings per family, famDecode included
	// kept holds each family's events for ChromeTrace; nil otherwise.
	kept [][]obs.Event
}

func newPass(opts Options) *pass {
	p := &pass{
		opts:  opts,
		maxV:  opts.MaxViolations,
		rep:   &Report{FirstUS: -1, LastUS: -1, ByType: map[string]int64{}},
		owned: make([]int64, len(families)),
		runs:  map[string]bool{},
		lastT: map[orderKey]int64{},
		total: map[int]int64{},
	}
	if p.maxV == 0 {
		p.maxV = DefaultMaxViolations
	}
	if opts.WindowUS > 0 {
		p.windows = map[int64]map[string]int64{}
	}
	for _, f := range families {
		p.fams = append(p.fams, f.newState(p))
	}
	return p
}

// read feeds every line of r through the pass. Blank and whitespace-only
// lines are skipped — the JSONL convention — and counted in Report.Blank.
// The error reports only a failure to read r; a line longer than 4 MiB
// counts as one.
func (p *pass) read(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		p.line++
		trimmed := bytes.TrimSpace(sc.Bytes())
		if len(trimmed) == 0 {
			p.rep.Blank++
			continue
		}
		ev, err := obs.DecodeEvent(trimmed)
		if err != nil {
			p.violate(famDecode, VDecode, "%v", err)
			continue
		}
		p.event(ev)
	}
	return sc.Err()
}

// event does the per-event work all families share — whole-trace totals,
// windows, and the ordering lint — then applies the owning family's
// transitions.
func (p *pass) event(ev obs.Event) {
	r := p.rep
	r.Events++
	r.ByType[ev.Ev]++
	p.runs[ev.Run] = true
	if r.FirstUS < 0 || ev.TUS < r.FirstUS {
		r.FirstUS = ev.TUS
	}
	r.LastUS = max(r.LastUS, ev.TUS)
	if p.windows != nil {
		b := (ev.TUS / p.opts.WindowUS) * p.opts.WindowUS
		w := p.windows[b]
		if w == nil {
			w = map[string]int64{}
			p.windows[b] = w
		}
		w[ev.Ev]++
		if ev.Ev == obs.EvTx {
			w[obs.EvTx+":"+ev.Detail]++
		}
	}

	// DecodeEvent admits only types some family owns.
	fi := owner[ev.Ev]
	def := &families[fi]
	k := orderKey{fam: fi, run: ev.Run, node: ev.Node}
	if def.bySrc {
		k.src = parseTokens(ev.Detail)["src"]
	}
	if last, ok := p.lastT[k]; ok && ev.TUS < last {
		p.violate(fi, VOrder, def.orderFmt, ev.Ev, ev.Run, ev.Node, k.src, ev.TUS, last)
	} else {
		p.lastT[k] = ev.TUS
	}
	p.owned[fi]++
	if p.kept != nil {
		p.kept[fi] = append(p.kept[fi], ev)
	}
	p.fams[fi].event(ev)
}

// violate is the one violation recorder: it counts a finding against
// family fam and keeps the first MaxViolations, in line order.
func (p *pass) violate(fam int, kind, format string, args ...any) {
	p.total[fam]++
	if p.maxV >= 0 && len(p.found) >= p.maxV {
		return
	}
	p.found = append(p.found, finding{
		Violation: Violation{Line: p.line, Kind: kind, Msg: fmt.Sprintf(format, args...)},
		fam:       fam,
	})
}

// findings returns family fam's kept violations and its total, both
// including the decode failures every family shares.
func (p *pass) findings(fam int) ([]Violation, int64) {
	var vs []Violation
	for _, f := range p.found {
		if f.fam == fam || f.fam == famDecode {
			vs = append(vs, f.Violation)
		}
	}
	return vs, p.total[fam] + p.total[famDecode]
}

// finish runs every family's end-of-trace checks and assembles the Result.
func (p *pass) finish() *Result {
	r := p.rep
	r.Lines = p.line
	res := &Result{Report: r, Owned: map[string]int64{}}
	for i, f := range p.fams {
		f.finish(res)
		res.Owned[families[i].name] = p.owned[i]
	}
	r.Runs = sortedKeys(p.runs)
	for _, b := range sortedKeys(p.windows) {
		r.Points = append(r.Points, TracePoint{StartUS: b, EndUS: b + p.opts.WindowUS, Counts: p.windows[b]})
	}
	for _, f := range p.found {
		r.Violations = append(r.Violations, f.Violation)
	}
	for _, n := range p.total {
		r.TotalViolations += n
	}
	return res
}

// Analyze runs one pass over a JSONL trace stream. The error is nil unless
// reading r itself fails (a line longer than 4 MiB counts as a read
// failure); malformed lines are reported as violations, not errors.
func Analyze(r io.Reader, opts Options) (*Result, error) {
	p := newPass(opts)
	if err := p.read(r); err != nil {
		return nil, fmt.Errorf("analyze: read trace: %w", err)
	}
	return p.finish(), nil
}

// parseTokens splits a detail of space-separated k=v tokens ("src=coord
// span=0:64") into a map. Tokens without '=' are ignored.
func parseTokens(detail string) map[string]string {
	out := map[string]string{}
	for _, tok := range strings.Fields(detail) {
		if i := strings.IndexByte(tok, '='); i > 0 {
			out[tok[:i]] = tok[i+1:]
		}
	}
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
