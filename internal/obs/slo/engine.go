package slo

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/voip"
)

// State is one rule's alert state.
type State int

const (
	// StateInactive means the signal is within threshold.
	StateInactive State = iota
	// StatePending means the threshold is crossed but the violation has
	// not yet persisted for the rule's `for` duration.
	StatePending
	// StateFiring means the violation persisted and the alert is active.
	StateFiring
)

// String renders the state as the /alerts vocabulary word.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// ruleState is one rule's live evaluation state.
type ruleState struct {
	rule     *Rule
	state    State
	value    float64 // last evaluated value, after scale
	hasValue bool
	sinceUS  int64 // pending transition time of the open episode
	episodes int64 // pending arcs started (the trace Seq)
	fired    int64 // episodes that reached firing
}

// Engine evaluates one ruleset against a live run. Create it with
// NewEngine, attach it with Arm, and read it through Alerts, WriteMetrics,
// Counts, or the /alerts handler (ServeHTTP). All methods are safe for
// concurrent use and no-ops on a nil engine.
//
// The engine creates no registry instruments and emits trace events only
// under its own "slo/<hash8>" run label, so arming it never perturbs
// golden snapshots, traces, or sweep fingerprints.
type Engine struct {
	rs    *RuleSet
	trace *obs.Registry // run-labelled view for transition events; nil until armed

	mu       sync.Mutex
	rules    []ruleState
	windows  int64
	clockUS  int64
	worstMOS float64
	haveMOS  bool
}

// NewEngine builds an engine for a decoded ruleset.
func NewEngine(rs *RuleSet) *Engine {
	e := &Engine{rs: rs}
	e.rules = make([]ruleState, len(rs.Rules))
	for i := range rs.Rules {
		e.rules[i].rule = &rs.Rules[i]
	}
	return e
}

// RuleSet returns the engine's ruleset (nil on a nil engine).
func (e *Engine) RuleSet() *RuleSet {
	if e == nil {
		return nil
	}
	return e.rs
}

// Arm attaches the engine: rule evaluation runs on every window the series
// captures, and transition events are emitted through reg under the
// "slo/<hash8>" run label.
func (e *Engine) Arm(reg *obs.Registry, se *obs.Series) {
	if e == nil {
		return
	}
	e.trace = reg.WithRun(TraceRun(e.rs.Hash()))
	se.OnCapture(e.Observe)
}

// Observe evaluates every rule against one captured window. Arm installs it
// as the series' on-capture callback; tests may call it directly with
// synthetic points.
func (e *Engine) Observe(p obs.SeriesPoint) {
	if e == nil {
		return
	}
	winSec := float64(p.EndUS-p.StartUS) / 1e6
	if winSec <= 0 {
		return // degenerate flush label, nothing to evaluate
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.windows++
	e.clockUS = p.EndUS

	// Derived call-health signals, computed once per window: the expected
	// packet count at the nominal stream rate turns the windowed
	// playout-miss delta into a loss rate, and the live MOS estimate runs
	// that rate through the E-model with BurstR 1 (burst structure is not
	// observable from a windowed count) and the fixed playout delay.
	expected := winSec * e.rs.StreamHz
	misses := float64(p.Counters["client.playout_misses"])
	lossRate := misses / expected
	if lossRate > 1 {
		lossRate = 1
	}
	missPct := lossRate * 100
	mos := voip.MOSFromR(voip.RFromLoss(lossRate, 1, 0))
	if !e.haveMOS || mos < e.worstMOS {
		e.worstMOS = mos
		e.haveMOS = true
	}

	for i := range e.rules {
		r := &e.rules[i]
		value, present := 0.0, true
		switch r.rule.sig.kind {
		case sigRate:
			value = float64(p.Counters[r.rule.sig.arg]) / winSec
		case sigDelta:
			value = float64(p.Counters[r.rule.sig.arg])
		case sigGauge:
			v, ok := p.Gauges[r.rule.sig.arg]
			value, present = float64(v), ok
		case sigP50, sigP95, sigP99, sigMean:
			// A histogram absent from the window had no observations:
			// like an empty Prometheus expression, that is non-violating
			// data, evaluated as zero observations below.
			h, ok := p.Histograms[r.rule.sig.arg]
			if ok {
				switch r.rule.sig.kind {
				case sigP50:
					value = float64(h.P50)
				case sigP95:
					value = float64(h.P95)
				case sigP99:
					value = float64(h.P99)
				case sigMean:
					value = h.Mean
				}
			} else {
				present = false
			}
		case sigMOS:
			value = mos
		case sigWorstMOS:
			value = e.worstMOS
		case sigMissRatePct:
			value = missPct
		}
		e.step(r, p.EndUS, value, present)
	}
}

// step advances one rule's state machine at window end endUS. A window
// with no data for the signal (present=false) counts as non-violating —
// an active alert resolves — but leaves the displayed value untouched.
func (e *Engine) step(r *ruleState, endUS int64, value float64, present bool) {
	violating := false
	if present {
		v := value * r.rule.Scale
		r.value = v
		r.hasValue = true
		if r.rule.Min != nil {
			violating = v < *r.rule.Min
		} else {
			violating = v > *r.rule.Max
		}
	}
	switch {
	case violating && r.state == StateInactive:
		r.state = StatePending
		r.sinceUS = endUS
		r.episodes++
		e.emit(r, obs.EvSLOPending, endUS, 0)
		// A rule without a for duration fires in the same window.
		if endUS-r.sinceUS >= r.rule.forUS {
			r.state = StateFiring
			r.fired++
			e.emit(r, obs.EvSLOFiring, endUS, endUS-r.sinceUS)
		}
	case violating && r.state == StatePending:
		if endUS-r.sinceUS >= r.rule.forUS {
			r.state = StateFiring
			r.fired++
			e.emit(r, obs.EvSLOFiring, endUS, endUS-r.sinceUS)
		}
	case !violating && r.state != StateInactive:
		e.emit(r, obs.EvSLOResolved, endUS, endUS-r.sinceUS)
		r.state = StateInactive
	}
}

// emit writes one slo-trace-v1 transition. The threshold token names the
// bound kind, so a trace line is self-describing: src=slo value=… min=….
func (e *Engine) emit(r *ruleState, ev string, endUS, durUS int64) {
	if e.trace == nil {
		return
	}
	bound, limit := "max", 0.0
	if r.rule.Min != nil {
		bound, limit = "min", *r.rule.Min
	} else {
		limit = *r.rule.Max
	}
	detail := "src=slo value=" + fmtFloat(r.value) + " " + bound + "=" + fmtFloat(limit)
	e.trace.Emit(obs.Event{
		TUS:    endUS,
		Ev:     ev,
		Node:   r.rule.Name,
		Seq:    int(r.episodes),
		DurUS:  durUS,
		Detail: detail,
	})
}

// fmtFloat renders detail-token floats compactly and deterministically.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Counts returns the number of rules currently pending and firing, and the
// cumulative count of episodes that reached firing — the compact state a
// sweep worker stamps on its lease reports. Zeros on a nil engine.
func (e *Engine) Counts() (pending, firing, fired int64) {
	if e == nil {
		return 0, 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		switch e.rules[i].state {
		case StatePending:
			pending++
		case StateFiring:
			firing++
		}
		fired += e.rules[i].fired
	}
	return pending, firing, fired
}

// WriteMetrics appends the slo_* exposition families for this engine:
// slo_alert_state (0 inactive / 1 pending / 2 firing), slo_rule_value (the
// last scaled signal value), and slo_rule_fired_total, one sample per rule
// keyed by the rule label. It is an expose.Server OnMetrics hook, not a
// registry instrument, so snapshots stay untouched. No-op on nil.
func (e *Engine) WriteMetrics(w io.Writer) {
	if e == nil {
		return
	}
	e.mu.Lock()
	states := make([]ruleState, len(e.rules))
	copy(states, e.rules)
	e.mu.Unlock()

	var b []byte
	app := func(s string) { b = append(b, s...) }
	app("# HELP slo_alert_state Streaming SLO alert state per rule (0 inactive, 1 pending, 2 firing)\n")
	app("# TYPE slo_alert_state gauge\n")
	for i := range states {
		app(fmt.Sprintf("slo_alert_state{rule=%q} %d\n", states[i].rule.Name, states[i].state))
	}
	app("# HELP slo_rule_value Last evaluated SLO rule signal value, after scale\n")
	app("# TYPE slo_rule_value gauge\n")
	for i := range states {
		app(fmt.Sprintf("slo_rule_value{rule=%q} %g\n", states[i].rule.Name, states[i].value))
	}
	app("# HELP slo_rule_fired_total Alert episodes that reached firing, per rule\n")
	app("# TYPE slo_rule_fired_total counter\n")
	for i := range states {
		app(fmt.Sprintf("slo_rule_fired_total{rule=%q} %d\n", states[i].rule.Name, states[i].fired))
	}
	w.Write(b)
}
