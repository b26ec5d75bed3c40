package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// CellAgg is one grid cell's mergeable aggregate: exact counters plus one
// quantile sketch per canonical metric key (metrickeys.go). Memory is
// O(metrics × sketch compression), independent of how many calls the cell
// absorbed. Every cell carries the full key set — Sketches' keys equal
// MetricKeys() and Poor's keys equal Strategies() from construction through
// JSON round-trips, which is what keeps fingerprints topology-independent.
type CellAgg struct {
	Calls  uint64 `json:"calls"`
	Failed uint64 `json:"failed"`
	// Poor counts poor calls (MOS below threshold) per strategy.
	Poor map[string]uint64 `json:"poor"`
	// Sketches holds one quantile digest per canonical metric key.
	Sketches map[string]*sketch.Digest `json:"sketches"`
}

func newCellAgg() *CellAgg {
	c := &CellAgg{
		Poor:     make(map[string]uint64, len(Strategies())),
		Sketches: make(map[string]*sketch.Digest, len(metricDefs)),
	}
	for _, s := range Strategies() {
		c.Poor[s] = 0
	}
	for _, d := range metricDefs {
		c.Sketches[d.Key] = sketch.New()
	}
	return c
}

func (c *CellAgg) observe(m Metrics) {
	c.Calls++
	for _, s := range Strategies() {
		if m.Poor[s] {
			c.Poor[s]++
		}
	}
	for _, d := range metricDefs {
		sk := c.sketch(d.Key)
		switch d.Kind {
		case KindScalar:
			if v, ok := m.Scalars[d.Key]; ok {
				sk.Add(v)
			}
		case KindSeries:
			for _, v := range m.Series[d.Key] {
				sk.Add(v)
			}
		}
	}
}

// sketch returns the cell's digest for key, creating it if a decoded
// aggregate arrived without it (a well-formed peer never does).
func (c *CellAgg) sketch(key string) *sketch.Digest {
	sk := c.Sketches[key]
	if sk == nil {
		sk = sketch.New()
		if c.Sketches == nil {
			c.Sketches = map[string]*sketch.Digest{}
		}
		c.Sketches[key] = sk
	}
	return sk
}

// merge folds o into c. Aggregate.Merge has checked every digest first,
// so the sketch merges cannot fail.
func (c *CellAgg) merge(o *CellAgg) {
	c.Calls += o.Calls
	c.Failed += o.Failed
	if c.Poor == nil {
		c.Poor = map[string]uint64{}
	}
	for s, n := range o.Poor {
		c.Poor[s] += n
	}
	for key, osk := range o.Sketches {
		if osk != nil {
			_ = c.sketch(key).Merge(osk)
		}
	}
}

// buckets returns the cell's total sketch bucket count (its memory driver).
func (c *CellAgg) buckets() int {
	n := 0
	for _, sk := range c.Sketches {
		n += sk.Buckets()
	}
	return n
}

// Aggregate is a mergeable sweep aggregate: one CellAgg per touched grid
// cell. It is NOT goroutine-safe — the worker engine serializes Observe
// calls, and the coordinator merges whole worker reports under its lock.
type Aggregate struct {
	Cells map[string]*CellAgg `json:"cells"`
	// Elapsed sketches per-job wall-clock milliseconds (telemetry: it is
	// excluded from Fingerprint, like every timing field).
	Elapsed *sketch.Digest `json:"elapsed"`
	// Results holds experiment jobs' results by job key (experiments
	// source only). Keys are content addresses, so merging is a union.
	Results map[string]*exp.Result `json:"results,omitempty"`
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{Cells: map[string]*CellAgg{}, Elapsed: sketch.New()}
}

func (a *Aggregate) cell(key string) *CellAgg {
	c := a.Cells[key]
	if c == nil {
		c = newCellAgg()
		a.Cells[key] = c
	}
	return c
}

// Observe folds one successful job's metrics into its cell.
func (a *Aggregate) Observe(cellKey string, m Metrics) { a.cell(cellKey).observe(m) }

// ObserveFailure counts one failed job against its cell.
func (a *Aggregate) ObserveFailure(cellKey string) { a.cell(cellKey).Failed++ }

// ObserveElapsed records one job's wall clock (telemetry).
func (a *Aggregate) ObserveElapsed(ms float64) { a.Elapsed.Add(ms) }

// ObserveResult records one experiment job's result under its job key.
func (a *Aggregate) ObserveResult(jobKey string, r *exp.Result) {
	if a.Results == nil {
		a.Results = map[string]*exp.Result{}
	}
	a.Results[jobKey] = r
}

// Merge folds other into a. Deterministic and order-independent (sketch
// merges are bucket-wise addition), which is what makes a sharded sweep's
// summary equal a single-process run's. It is all or nothing: other is
// checked whole before any of it lands, so a rejected report leaves a
// exactly as it was.
func (a *Aggregate) Merge(other *Aggregate) error {
	if other == nil {
		return nil
	}
	if err := a.checkMerge(other); err != nil {
		return err
	}
	for key, oc := range other.Cells {
		a.cell(key).merge(oc)
	}
	_ = a.Elapsed.Merge(other.Elapsed)
	for key, r := range other.Results {
		a.ObserveResult(key, r)
	}
	return nil
}

// checkMerge reports why other cannot merge into a: a non-empty digest of
// another resolution than the one it would fold into, or an empty result.
func (a *Aggregate) checkMerge(other *Aggregate) error {
	check := func(dst, src *sketch.Digest) error {
		alpha := sketch.DefaultAlpha // a digest created by the merge
		if dst != nil {
			alpha = dst.Alpha()
		}
		if src != nil && src.Count() > 0 && src.Alpha() != alpha {
			return fmt.Errorf("sketch alpha %v, want %v", src.Alpha(), alpha)
		}
		return nil
	}
	for key, oc := range other.Cells {
		if oc == nil {
			return fmt.Errorf("sweep: merge cell %s: empty cell", key)
		}
		var dst map[string]*sketch.Digest
		if c := a.Cells[key]; c != nil {
			dst = c.Sketches
		}
		for mk, osk := range oc.Sketches {
			if err := check(dst[mk], osk); err != nil {
				return fmt.Errorf("sweep: merge cell %s: metric %s: %w", key, mk, err)
			}
		}
	}
	if err := check(a.Elapsed, other.Elapsed); err != nil {
		return fmt.Errorf("sweep: merge elapsed: %w", err)
	}
	for key, r := range other.Results {
		if r == nil || r.ID == "" {
			return fmt.Errorf("sweep: merge result %s: empty result", key)
		}
	}
	return nil
}

// Jobs returns how many jobs (successful + failed) the aggregate absorbed.
func (a *Aggregate) Jobs() int64 {
	var n int64
	for _, c := range a.Cells {
		n += int64(c.Calls + c.Failed)
	}
	return n
}

// Sketches returns the aggregate's total digest count (cells × metrics,
// plus the elapsed telemetry digest) — control-plane telemetry.
func (a *Aggregate) Sketches() int {
	n := 1 // Elapsed
	for _, c := range a.Cells {
		n += len(c.Sketches)
	}
	return n
}

// Buckets returns the aggregate's total sketch bucket count.
func (a *Aggregate) Buckets() int {
	n := a.Elapsed.Buckets()
	for _, c := range a.Cells {
		n += c.buckets()
	}
	return n
}

// Footprint estimates the aggregate's memory in bytes from its sketch
// bucket counts. The bounded-memory regression test asserts this does not
// scale with job count.
func (a *Aggregate) Footprint() int {
	const perBucket = 16  // slice entry: int32 index, 4 B of padding, uint64 count
	const perDigest = 112 // digest header: eight 8-byte fields and two slice headers
	return a.Sketches()*perDigest + a.Buckets()*perBucket + len(a.Cells)*128
}

// Fingerprint hashes the deterministic content: every cell's counters,
// poor-call counts, and sketch fingerprints, in sorted cell/key order, then
// the experiment results (only when there are any, so no call sweep's
// fingerprint depends on them). Elapsed (timing telemetry) is excluded.
func (a *Aggregate) Fingerprint() string {
	h := sha256.New()
	keys := make([]string, 0, len(a.Cells))
	for k := range a.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := a.Cells[k]
		fmt.Fprintf(h, "%s|%d|%d\n", k, c.Calls, c.Failed)
		for _, s := range sortedKeys(c.Poor) {
			fmt.Fprintf(h, "poor:%s=%d\n", s, c.Poor[s])
		}
		for _, mk := range sortedKeys(c.Sketches) {
			fmt.Fprintf(h, "sketch:%s=%s\n", mk, c.Sketches[mk].Fingerprint())
		}
	}
	for _, k := range sortedKeys(a.Results) {
		data, _ := json.Marshal(a.Results[k])
		fmt.Fprintf(h, "result:%s=%x\n", k, sha256.Sum256(data))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SummarySchema versions the sweep summary JSON document. v2 replaced the
// flattened per-receiver quantile fields with the full per-cell digest set,
// so any report (tables, CDFs) renders from a saved summary alone.
const SummarySchema = "sweep-summary-v2"

// CellSummary is one grid cell's row in the final report: exact counters,
// per-strategy poor-call rates, and the cell's merged metric digests
// themselves (canonical JSON), keyed by the canonical metric table.
type CellSummary struct {
	Cell       string `json:"cell"` // impairment/device/density
	Impairment string `json:"impairment"`
	Device     string `json:"device"`
	Density    string `json:"density"`
	Calls      uint64 `json:"calls"`
	Failed     uint64 `json:"failed,omitempty"`

	// Poor-call counts and rates (percent) per strategy, and the headline
	// ratio stronger-PCR / DiversiFi-PCR (0 when DiversiFi's PCR is zero —
	// infinite improvement).
	Poor        map[string]uint64  `json:"poor"`
	PCR         map[string]float64 `json:"pcr"`
	Improvement float64            `json:"improvement,omitempty"`

	// Sketches carries the cell's merged quantile digests, one per
	// canonical metric key. Quantiles have relative error ≤ 1 %.
	Sketches map[string]*sketch.Digest `json:"sketches"`

	// Verdicts holds this cell's SLO verdicts when the sweep ran with a
	// rule set carrying cell bindings (Summary.ApplyVerdicts). Derived,
	// diagnostic data — excluded from the fingerprint.
	Verdicts []CellVerdict `json:"slo_verdicts,omitempty"`
}

// Quantile reads one metric's quantile from the cell's digest (0 when the
// metric never observed anything).
func (cs *CellSummary) Quantile(key string, q float64) float64 {
	sk := cs.Sketches[key]
	if sk == nil || sk.Count() == 0 {
		return 0
	}
	return sk.Quantile(q)
}

// Mean reads one metric's mean from the cell's digest.
func (cs *CellSummary) Mean(key string) float64 {
	sk := cs.Sketches[key]
	if sk == nil || sk.Count() == 0 {
		return 0
	}
	return sk.Mean()
}

// Summary is the sweep's final report. Cells, counts, and Fingerprint are
// deterministic for a fixed spec regardless of worker topology; Executed/
// Cached and the timing fields are telemetry.
type Summary struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	SpecHash    string `json:"spec_hash"`
	Fingerprint string `json:"fingerprint"`

	// Call shape, for cost normalization in reports: the traffic profile
	// and each call's nominal packet count and payload bytes.
	Profile     string `json:"profile"`
	CallPackets int64  `json:"call_packets"`
	CallBytes   int64  `json:"call_bytes"`

	TotalJobs int64 `json:"total_jobs"`
	Done      int64 `json:"done"`
	Executed  int64 `json:"executed"`
	Cached    int64 `json:"cached"`
	Failed    int64 `json:"failed"`
	Workers   int   `json:"workers"`

	Cells []CellSummary `json:"cells"`

	// Timing telemetry.
	ElapsedMS  int64   `json:"elapsed_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	JobP50MS   float64 `json:"job_p50_ms"`
	JobP95MS   float64 `json:"job_p95_ms"`
	JobP99MS   float64 `json:"job_p99_ms"`
	JobP999MS  float64 `json:"job_p999_ms"`

	// Failures holds the first worker-reported job error messages (panic
	// stacks and flight-dump paths included), capped at
	// maxSummaryFailures; FailuresTotal counts all of them. Diagnostic
	// only — never part of the fingerprint.
	Failures      []string `json:"failures,omitempty"`
	FailuresTotal int64    `json:"failures_total,omitempty"`

	// Results lists the experiment results in job order (experiments
	// source only; a failed job has none).
	Results []*exp.Result `json:"results,omitempty"`
}

// maxSummaryFailures caps the failure messages a coordinator retains.
const maxSummaryFailures = 32

// Summarize renders an aggregate into the final report. The summary shares
// the aggregate's digests: a caller that lets the aggregate merge on while
// the summary is read must copy them (Coordinator.Summary does).
func Summarize(spec *Spec, agg *Aggregate) *Summary {
	s := &Summary{
		Schema:      SummarySchema,
		Name:        spec.Name,
		SpecHash:    spec.Hash(),
		Fingerprint: agg.Fingerprint(),
		Profile:     spec.Profile,
		TotalJobs:   spec.Total(),
	}
	if p, ok := traffic.ProfileByKey(spec.Profile); ok && p.Spacing > 0 {
		s.CallPackets = int64(sim.FromSeconds(spec.DurationS) / p.Spacing)
		s.CallBytes = s.CallPackets * int64(p.PacketBytes)
	}
	for _, k := range sortedKeys(agg.Cells) {
		c := agg.Cells[k]
		parts := strings.SplitN(k, "/", 3)
		cs := CellSummary{
			Cell: k, Calls: c.Calls, Failed: c.Failed,
			Poor:     map[string]uint64{},
			PCR:      map[string]float64{},
			Sketches: c.Sketches,
		}
		if len(parts) == 3 {
			cs.Impairment, cs.Device, cs.Density = parts[0], parts[1], parts[2]
		}
		for _, strat := range Strategies() {
			cs.Poor[strat] = c.Poor[strat]
			if c.Calls > 0 {
				cs.PCR[strat] = 100 * float64(c.Poor[strat]) / float64(c.Calls)
			}
		}
		if cs.PCR[StrategyDiversiFi] > 0 {
			cs.Improvement = cs.PCR[StrategyStronger] / cs.PCR[StrategyDiversiFi]
		}
		s.Cells = append(s.Cells, cs)
		s.Done += int64(c.Calls + c.Failed)
		s.Failed += int64(c.Failed)
	}
	if len(agg.Results) > 0 {
		for i := int64(0); i < spec.Total(); i++ {
			j, _ := spec.JobAt(i)
			if r := agg.Results[j.Key()]; r != nil {
				s.Results = append(s.Results, r)
			}
		}
	}
	if agg.Elapsed.Count() > 0 {
		s.JobP50MS = agg.Elapsed.Quantile(0.50)
		s.JobP95MS = agg.Elapsed.Quantile(0.95)
		s.JobP99MS = agg.Elapsed.Quantile(0.99)
		s.JobP999MS = agg.Elapsed.Quantile(0.999)
	}
	return s
}

// cloneDigests deep-copies a digest map.
func cloneDigests(m map[string]*sketch.Digest) map[string]*sketch.Digest {
	if m == nil {
		return nil
	}
	out := make(map[string]*sketch.Digest, len(m))
	for key, sk := range m {
		if sk != nil {
			sk = sk.Clone()
		}
		out[key] = sk
	}
	return out
}

// MergedDigest merges one metric's digests across every cell — the
// population-wide distribution the CDF figures and Table 3 render from.
func (s *Summary) MergedDigest(key string) (*sketch.Digest, error) {
	out := sketch.New()
	for i := range s.Cells {
		if sk := s.Cells[i].Sketches[key]; sk != nil {
			if err := out.Merge(sk); err != nil {
				return nil, fmt.Errorf("sweep: merge %s for cell %s: %w", key, s.Cells[i].Cell, err)
			}
		}
	}
	return out, nil
}

// PoorTotal sums one strategy's poor calls across cells.
func (s *Summary) PoorTotal(strategy string) uint64 {
	var n uint64
	for i := range s.Cells {
		n += s.Cells[i].Poor[strategy]
	}
	return n
}

// CallsTotal sums successful calls across cells.
func (s *Summary) CallsTotal() uint64 {
	var n uint64
	for i := range s.Cells {
		n += s.Cells[i].Calls
	}
	return n
}

// JSON renders the summary as indented JSON.
func (s *Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// experiments reports whether the summary comes from the experiments
// source, whose cells all carry DensityExperiment.
func (s *Summary) experiments() bool {
	return len(s.Cells) > 0 && s.Cells[0].Density == DensityExperiment
}

// Text renders the Table-1-style fleet report: per-cell PCR for all three
// strategies plus the sketch-backed quality tails. The per-strategy PCR
// columns come from Strategies(), so the layout tracks the canonical
// strategy list (metrickeys_test.go pins the coupling). An experiments
// summary lists its experiments instead.
func (s *Summary) Text() string {
	var b strings.Builder
	if s.experiments() {
		t := stats.NewTable(fmt.Sprintf("Campaign %q: experiments (%d/%d jobs)", s.Name, s.Done, s.TotalJobs),
			"experiment", "kind", "ok", "failed")
		for i := range s.Cells {
			c := &s.Cells[i]
			t.AddRow(c.Impairment, c.Device, fmt.Sprint(c.Calls), fmt.Sprint(c.Failed))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	} else {
		s.writeCells(&b)
	}
	fmt.Fprintf(&b, "%d executed, %d cached, %d failed — %.1fs wall, %.1f jobs/s (%d workers)\n",
		s.Executed, s.Cached, s.Failed, float64(s.ElapsedMS)/1000, s.JobsPerSec, s.Workers)
	if s.JobP50MS > 0 || s.JobP999MS > 0 {
		fmt.Fprintf(&b, "per-job elapsed: p50 %.1fms, p95 %.1fms, p99 %.1fms, p999 %.1fms\n",
			s.JobP50MS, s.JobP95MS, s.JobP99MS, s.JobP999MS)
	}
	if s.FailuresTotal > 0 {
		fmt.Fprintf(&b, "job failures (%d total, first %d):\n", s.FailuresTotal, len(s.Failures))
		for _, msg := range s.Failures {
			fmt.Fprintf(&b, "  %s\n", firstLine(msg))
		}
	}
	fmt.Fprintf(&b, "fingerprint %s (deterministic for spec %s)\n", s.Fingerprint, s.SpecHash)
	return b.String()
}

// writeCells writes the per-cell PCR table and the overall PCR line.
func (s *Summary) writeCells(b *strings.Builder) {
	withVerdicts := false
	for i := range s.Cells {
		if len(s.Cells[i].Verdicts) > 0 {
			withVerdicts = true
			break
		}
	}
	headers := []string{"impairment", "device", "density", "calls"}
	for _, strat := range Strategies() {
		headers = append(headers, strat+" PCR %")
	}
	headers = append(headers, "improve", "dvf MOS p50/p99", "dup KB/call")
	if withVerdicts {
		headers = append(headers, "SLO")
	}
	t := stats.NewTable(fmt.Sprintf("Fleet sweep %q: PCR by cell (%d/%d jobs)", s.Name, s.Done, s.TotalJobs),
		headers...)
	for i := range s.Cells {
		c := &s.Cells[i]
		improve := "-"
		if c.Improvement > 0 {
			improve = fmt.Sprintf("%.1fx", c.Improvement)
		} else if c.PCR[StrategyStronger] > 0 && c.PCR[StrategyDiversiFi] == 0 {
			improve = "inf"
		}
		row := []string{c.Impairment, c.Device, c.Density, fmt.Sprint(c.Calls)}
		for _, strat := range Strategies() {
			row = append(row, fmt.Sprintf("%.2f", c.PCR[strat]))
		}
		row = append(row, improve,
			fmt.Sprintf("%.2f / %.2f", c.Quantile("diversifi_mos", 0.50), c.Quantile("diversifi_mos", 0.99)),
			fmt.Sprintf("%.1f", c.Mean("diversifi_dup_bytes")/1024))
		if withVerdicts {
			row = append(row, verdictCell(c.Verdicts))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	if tot := s.CallsTotal(); tot > 0 {
		fmt.Fprintf(b, "\noverall PCR: ")
		for i, strat := range Strategies() {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s %.2f%%", strat, 100*float64(s.PoorTotal(strat))/float64(tot))
		}
		fmt.Fprintf(b, " over %d calls\n", tot)
	}
}

// firstLine truncates a multi-line failure (panic stacks) for the table;
// the full text stays in the JSON summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}
