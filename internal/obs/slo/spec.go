// Package slo is the streaming SLO engine of the observability layer: it
// consumes the time-windowed points an obs.Series captures and continuously
// evaluates declarative alert rules against them — the paper's own
// call-health metrics (E-model MOS, playout-miss rate, recovery delay)
// watched in real time instead of assessed post-mortem.
//
// Rules are versioned slo-v1 documents (JSON or the repo's YAML subset,
// decoded with the internal/scenario idiom): each names a windowed signal
// expression, one min or max threshold, and an optional `for` duration the
// violation must persist before the alert fires. Alerts run a
// pending→firing→resolved state machine whose transitions are emitted as
// slo-trace-v1 events into the ordinary trace sink, and whose live state is
// served as /alerts and appended to /metrics as the slo_* families.
//
// The engine is deliberately registry-external: it creates no instruments,
// so arming it leaves golden metric snapshots, traces (minus its own
// "slo/" run lines), and sweep fingerprints byte-identical. See
// docs/OBSERVABILITY.md for the rule schema and the event table.
package slo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/scenario"
)

// Schema is the ruleset document version this package decodes.
const Schema = "slo-v1"

// DefaultStreamHz is the assumed stream packet rate when a ruleset does not
// set stream_hz: G.711 voice at one packet per 20 ms. It is the denominator
// turning windowed playout-miss counts into rates for the derived
// mos/worst_mos/miss_rate_pct signals.
const DefaultStreamHz = 50.0

// RuleSet is one decoded, normalized slo-v1 document.
type RuleSet struct {
	Schema string `json:"schema"`
	// StreamHz is the nominal stream packet rate used as the expected-
	// packet denominator of the derived call-health signals.
	StreamHz float64 `json:"stream_hz,omitempty"`
	Rules    []Rule  `json:"rules"`

	hash string
}

// Rule is one declarative alert rule.
type Rule struct {
	// Name identifies the rule in /alerts, the slo_* metric families
	// (label rule="..."), and slo-trace-v1 events (the Node field). It is
	// restricted to [A-Za-z0-9_.:-] so it needs no exposition escaping.
	Name string `json:"name"`
	// Signal is the windowed expression evaluated each captured window:
	// rate(C), delta(C), gauge(G), p50(H)/p95(H)/p99(H)/mean(H) over
	// registry instruments, or one of the derived call-health signals
	// mos, worst_mos, miss_rate_pct (computed from client.playout_misses).
	Signal string `json:"signal"`
	// Exactly one of Min/Max sets the threshold: Min alerts when the
	// scaled value drops below it, Max when it exceeds it.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// For is how long (simulated time, Go duration syntax) the violation
	// must persist before a pending alert fires. Empty fires immediately.
	For string `json:"for,omitempty"`
	// Scale multiplies the raw signal value before the threshold
	// comparison (e.g. 0.001 turns microseconds into milliseconds).
	// Zero means 1.
	Scale float64 `json:"scale,omitempty"`
	// Labels are free-form annotations echoed on /alerts.
	Labels map[string]string `json:"labels,omitempty"`
	// Cell optionally binds the rule to a sweep metric so the coordinator
	// can stamp per-cell pass/fail verdicts on sweep summaries.
	Cell *CellBinding `json:"cell,omitempty"`

	sig   signal
	forUS int64
}

// CellBinding ties a rule to one canonical sweep metric key and the
// statistic of its per-cell sketch the threshold applies to.
type CellBinding struct {
	Metric string `json:"metric"`
	Stat   string `json:"stat"` // p50, p95, or mean
}

// signal kinds, compiled from the rule's Signal expression.
type sigKind int

const (
	sigRate sigKind = iota
	sigDelta
	sigGauge
	sigP50
	sigP95
	sigP99
	sigMean
	sigMOS
	sigWorstMOS
	sigMissRatePct
)

type signal struct {
	kind sigKind
	arg  string
}

// compileSignal parses a signal expression.
func compileSignal(expr string) (signal, error) {
	switch expr {
	case "mos":
		return signal{kind: sigMOS}, nil
	case "worst_mos":
		return signal{kind: sigWorstMOS}, nil
	case "miss_rate_pct":
		return signal{kind: sigMissRatePct}, nil
	}
	open := strings.IndexByte(expr, '(')
	if open <= 0 || !strings.HasSuffix(expr, ")") {
		return signal{}, fmt.Errorf("slo: signal %q is neither fn(instrument) nor a derived signal", expr)
	}
	fn, arg := expr[:open], expr[open+1:len(expr)-1]
	if arg == "" {
		return signal{}, fmt.Errorf("slo: signal %q missing instrument name", expr)
	}
	kinds := map[string]sigKind{
		"rate": sigRate, "delta": sigDelta, "gauge": sigGauge,
		"p50": sigP50, "p95": sigP95, "p99": sigP99, "mean": sigMean,
	}
	k, ok := kinds[fn]
	if !ok {
		return signal{}, fmt.Errorf("slo: unknown signal function %q in %q", fn, expr)
	}
	return signal{kind: k, arg: arg}, nil
}

// validRuleName restricts names to the exposition-safe charset.
func validRuleName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '_' || c == '.' || c == ':' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

// cellStats are the sketch statistics a cell binding may reference.
var cellStats = map[string]bool{"p50": true, "p95": true, "mean": true}

// normalize validates the decoded document, fills defaults, canonicalizes
// the `for` spelling, and compiles every signal.
func (rs *RuleSet) normalize() error {
	if rs.Schema != Schema {
		return fmt.Errorf("slo: unsupported schema %q (want %q)", rs.Schema, Schema)
	}
	if rs.StreamHz == 0 {
		rs.StreamHz = DefaultStreamHz
	}
	if rs.StreamHz <= 0 {
		return fmt.Errorf("slo: stream_hz must be positive, got %g", rs.StreamHz)
	}
	if len(rs.Rules) == 0 {
		return fmt.Errorf("slo: ruleset has no rules")
	}
	seen := map[string]bool{}
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if !validRuleName(r.Name) {
			return fmt.Errorf("slo: rule %d: invalid name %q (want [A-Za-z0-9_.:-]+)", i, r.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("slo: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		sig, err := compileSignal(r.Signal)
		if err != nil {
			return fmt.Errorf("%w (rule %q)", err, r.Name)
		}
		r.sig = sig
		if (r.Min == nil) == (r.Max == nil) {
			return fmt.Errorf("slo: rule %q needs exactly one of min/max", r.Name)
		}
		if r.For != "" {
			d, err := time.ParseDuration(r.For)
			if err != nil || d < 0 {
				return fmt.Errorf("slo: rule %q: bad for duration %q", r.Name, r.For)
			}
			r.forUS = d.Microseconds()
			r.For = d.String()
		}
		if r.Scale == 0 {
			r.Scale = 1
		}
		if r.Cell != nil {
			if r.Cell.Metric == "" {
				return fmt.Errorf("slo: rule %q: cell binding missing metric", r.Name)
			}
			if !cellStats[r.Cell.Stat] {
				return fmt.Errorf("slo: rule %q: cell stat %q not in p50/p95/mean", r.Name, r.Cell.Stat)
			}
		}
	}
	return nil
}

// DecodeRules parses and validates an slo-v1 document. The syntax is
// sniffed exactly like scenario specs: documents opening with '{' are
// JSON, everything else is the YAML subset. Both routes decode strictly.
func DecodeRules(data []byte) (*RuleSet, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	doc := data
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("slo: empty ruleset document")
	}
	if trimmed[0] != '{' {
		v, err := scenario.YAMLToValue(data)
		if err != nil {
			return nil, fmt.Errorf("slo: %w", err)
		}
		doc, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("slo: internal yaml conversion: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var rs RuleSet
	if err := dec.Decode(&rs); err != nil {
		return nil, fmt.Errorf("slo: parse ruleset: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("slo: parse ruleset: trailing content after document")
	}
	if err := rs.normalize(); err != nil {
		return nil, err
	}
	rs.hash = rs.computeHash()
	return &rs, nil
}

// LoadRules reads and decodes a ruleset file.
func LoadRules(path string) (*RuleSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: %w", err)
	}
	rs, err := DecodeRules(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return rs, nil
}

// Hash returns the ruleset's canonical fingerprint: semantically equal
// documents — YAML or JSON, defaults spelled out or omitted — share it,
// and its first 8 characters label the slo-trace-v1 run ("slo/<hash8>").
func (rs *RuleSet) Hash() string { return rs.hash }

// computeHash hashes the normalized document; the normalized RuleSet's
// JSON encoding is canonical (fixed field order, defaults filled in).
func (rs *RuleSet) computeHash() string {
	doc, err := json.Marshal(rs)
	if err != nil {
		// A validated ruleset always marshals; hashing must not silently
		// degrade on an unreachable code bug.
		panic(fmt.Sprintf("slo: marshal normalized ruleset: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(Schema + "|"))
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TraceRun returns the run label slo-trace-v1 events carry for a ruleset
// with the given canonical hash.
func TraceRun(hash string) string {
	if len(hash) > 8 {
		hash = hash[:8]
	}
	return "slo/" + hash
}

// Pass reports whether a (pre-scale) value satisfies the rule's threshold.
// Sweep verdict stamping uses it against per-cell sketch statistics.
func (r *Rule) Pass(value float64) bool {
	v := value * r.Scale
	if r.Min != nil {
		return v >= *r.Min
	}
	return v <= *r.Max
}

// CellRules returns the rules carrying a cell binding, for per-cell sweep
// verdicts.
func (rs *RuleSet) CellRules() []Rule {
	if rs == nil {
		return nil
	}
	var out []Rule
	for _, r := range rs.Rules {
		if r.Cell != nil {
			out = append(out, r)
		}
	}
	return out
}
