package sweep

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// ReportSchema versions the paper-artifact report JSON document.
const ReportSchema = "sweep-report-v1"

// Report is the paper-artifact rendering of a sweep summary: the three
// headline tables plus the CDF figures, every number read from the merged
// per-cell sketches (never from raw per-job records, which no longer exist
// by the time a sweep finishes). Because a Summary carries the digests
// themselves, a report can be rebuilt from a saved summary JSON offline —
// that is how docs/RESULTS.md regenerates. An experiments summary reports
// its experiment results instead.
type Report struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	SpecHash    string `json:"spec_hash"`
	Fingerprint string `json:"fingerprint"`
	Calls       uint64 `json:"calls"`
	Failed      int64  `json:"failed"`

	// Table1: per-cell poor-call rates for all three strategies.
	Table1 *stats.Table `json:"table1"`
	// Table2: duplication cost — bytes delivered or transmitted in vain,
	// cross-link replication vs DiversiFi's on-demand retrieval.
	Table2 *stats.Table `json:"table2"`
	// Table3: DiversiFi recovery-delay decomposition (detect / switch /
	// retrieve) over every recovery episode in the sweep.
	Table3 *stats.Table `json:"table3"`
	// MOSQuantiles: population MOS quantiles per strategy (figure data).
	MOSQuantiles *stats.Table `json:"mos_quantiles"`

	// CDF carries the raw figure curves (y = cumulative fraction), keyed
	// "<figure>/<series>"; Text renders them as ASCII plots.
	CDF map[string][]stats.Point `json:"cdf"`

	// Results are an experiments summary's results in job order, which
	// the report carries in place of the tables and figures above.
	Results []*exp.Result `json:"results,omitempty"`
}

// cdfSamples is how many points each CDF curve carries.
const cdfSamples = 64

// reportQuantiles are the tail points the report tables print, under
// reportLabels.
var (
	reportQuantiles = []float64{0.50, 0.95, 0.99, 0.999}
	reportLabels    = []string{"p50", "p95", "p99", "p999"}
)

// cdfQuantiles are the cdfSamples+1 evenly spaced points of a CDF curve.
var cdfQuantiles = func() []float64 {
	qs := make([]float64, cdfSamples+1)
	for i := range qs {
		qs[i] = float64(i) / float64(cdfSamples)
	}
	return qs
}()

// Report renders the summary into the paper-artifact report. It fails only
// if per-cell digests cannot merge (mixed sketch resolutions — impossible
// for aggregates built by this package).
func (s *Summary) Report() (*Report, error) {
	r := &Report{
		Schema:      ReportSchema,
		Name:        s.Name,
		SpecHash:    s.SpecHash,
		Fingerprint: s.Fingerprint,
		Calls:       s.CallsTotal(),
		Failed:      s.Failed,
		CDF:         map[string][]stats.Point{},
	}
	if s.experiments() {
		r.Results = s.Results
		return r, nil
	}

	// Population-wide digests, one per metric key.
	overall := map[string]*sketch.Digest{}
	for _, d := range metricDefs {
		sk, err := s.MergedDigest(d.Key)
		if err != nil {
			return nil, err
		}
		overall[d.Key] = sk
	}

	r.Table1 = s.table1()
	r.Table2 = s.table2(overall)
	r.Table3 = table3(overall)
	r.MOSQuantiles = mosQuantiles(overall)

	for _, strat := range Strategies() {
		if pts := digestCDF(overall[metricKey(strat, "mos")]); pts != nil {
			r.CDF["mos/"+strat] = pts
		}
	}
	for _, key := range []string{"recovery_detect_ms", "recovery_switch_ms",
		"recovery_retrieve_ms", "recovery_total_ms"} {
		if pts := digestCDF(overall[key]); pts != nil {
			r.CDF["recovery/"+strings.TrimSuffix(strings.TrimPrefix(key, "recovery_"), "_ms")] = pts
		}
	}
	return r, nil
}

// table1 is the poor-call-rate comparison: one row per cell plus an overall
// row, one PCR column per strategy (the column set tracks Strategies()).
func (s *Summary) table1() *stats.Table {
	headers := []string{"impairment", "device", "density", "calls"}
	for _, strat := range Strategies() {
		headers = append(headers, strat+" PCR %")
	}
	headers = append(headers, "improve")
	t := stats.NewTable(fmt.Sprintf("Table 1 — poor-call rate by cell (%q, %d calls)",
		s.Name, s.CallsTotal()), headers...)
	addRow := func(label [3]string, calls uint64, poor map[string]uint64) {
		row := []string{label[0], label[1], label[2], fmt.Sprint(calls)}
		var pcr [2]float64 // stronger, diversifi — for the improve column
		for _, strat := range Strategies() {
			v := 0.0
			if calls > 0 {
				v = 100 * float64(poor[strat]) / float64(calls)
			}
			switch strat {
			case StrategyStronger:
				pcr[0] = v
			case StrategyDiversiFi:
				pcr[1] = v
			}
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		improve := "-"
		if pcr[1] > 0 {
			improve = fmt.Sprintf("%.1fx", pcr[0]/pcr[1])
		} else if pcr[0] > 0 {
			improve = "inf"
		}
		t.AddRow(append(row, improve)...)
	}
	totals := map[string]uint64{}
	for i := range s.Cells {
		c := &s.Cells[i]
		addRow([3]string{c.Impairment, c.Device, c.Density}, c.Calls, c.Poor)
		for strat, n := range c.Poor {
			totals[strat] += n
		}
	}
	addRow([3]string{"all", "", ""}, s.CallsTotal(), totals)
	return t
}

// table2 is the duplication cost: how many bytes each redundancy scheme
// spends per call, absolute and as a fraction of the call's payload.
func (s *Summary) table2(overall map[string]*sketch.Digest) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Table 2 — duplication cost (%d-byte calls)", s.CallBytes),
		"impairment", "device", "density",
		"cross KB/call", "cross %", "dvf KB/call", "dvf %", "savings")
	pct := func(bytes float64) string {
		if s.CallBytes <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", 100*bytes/float64(s.CallBytes))
	}
	addRow := func(label [3]string, cross, dvf float64) {
		savings := "-"
		if dvf > 0 {
			savings = fmt.Sprintf("%.0fx", cross/dvf)
		}
		t.AddRow(label[0], label[1], label[2],
			fmt.Sprintf("%.1f", cross/1024), pct(cross),
			fmt.Sprintf("%.2f", dvf/1024), pct(dvf), savings)
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		addRow([3]string{c.Impairment, c.Device, c.Density},
			c.Mean("cross_dup_bytes"), c.Mean("diversifi_dup_bytes"))
	}
	addRow([3]string{"all", "", ""},
		digestMean(overall["cross_dup_bytes"]), digestMean(overall["diversifi_dup_bytes"]))
	return t
}

// table3 is the DiversiFi recovery-delay decomposition over every recovery
// episode: detect (loss → switch initiation), switch (PSM + retune),
// retrieve (secondary arrival → first useful packet), and their sum as
// experienced by the receiver (total = switch + retrieve; detect overlaps
// the secondary queue wait by design — see docs/RESULTS.md).
func table3(overall map[string]*sketch.Digest) *stats.Table {
	headers := []string{"component", "events", "mean ms"}
	for _, label := range reportLabels {
		headers = append(headers, label+" ms")
	}
	t := stats.NewTable("Table 3 — recovery delay decomposition (DiversiFi)", headers...)
	for _, key := range []string{"recovery_detect_ms", "recovery_switch_ms",
		"recovery_retrieve_ms", "recovery_total_ms"} {
		sk := overall[key]
		name := strings.TrimSuffix(strings.TrimPrefix(key, "recovery_"), "_ms")
		if sk == nil || sk.Count() == 0 {
			t.AddRow(name, "0", "-", "-", "-", "-", "-")
			continue
		}
		row := []string{name, fmt.Sprint(sk.Count()), fmt.Sprintf("%.2f", sk.Mean())}
		t.AddRow(append(row, quantileCells(sk)...)...)
	}
	return t
}

// quantileCells formats a digest's reportQuantiles for a table row.
func quantileCells(sk *sketch.Digest) []string {
	var cells []string
	for _, v := range sk.Quantiles(reportQuantiles, nil) {
		cells = append(cells, fmt.Sprintf("%.2f", v))
	}
	return cells
}

// mosQuantiles tabulates the MOS distribution per strategy — the numbers
// behind the MOS CDF figure.
func mosQuantiles(overall map[string]*sketch.Digest) *stats.Table {
	headers := append([]string{"strategy", "calls", "mean"}, reportLabels...)
	t := stats.NewTable("MOS quantiles by strategy", headers...)
	for _, strat := range Strategies() {
		sk := overall[metricKey(strat, "mos")]
		if sk == nil || sk.Count() == 0 {
			t.AddRow(strat, "0", "-", "-", "-", "-", "-")
			continue
		}
		row := []string{strat, fmt.Sprint(sk.Count()), fmt.Sprintf("%.2f", sk.Mean())}
		t.AddRow(append(row, quantileCells(sk)...)...)
	}
	return t
}

func digestMean(sk *sketch.Digest) float64 {
	if sk == nil || sk.Count() == 0 {
		return 0
	}
	return sk.Mean()
}

// digestCDF samples a digest's inverse CDF into a plot-ready curve:
// x = metric value, y = cumulative fraction. Nil when the digest is empty.
func digestCDF(sk *sketch.Digest) []stats.Point {
	if sk == nil || sk.Count() == 0 {
		return nil
	}
	xs := sk.Quantiles(cdfQuantiles, nil)
	pts := make([]stats.Point, len(xs))
	for i, x := range xs {
		pts[i] = stats.Point{X: x, Y: cdfQuantiles[i]}
	}
	return pts
}

// cdfSeries extracts one figure's series from the CDF map, preserving a
// canonical order for the legend.
func (r *Report) cdfSeries(figure string, order []string) (map[string][]stats.Point, []string) {
	series := map[string][]stats.Point{}
	var present []string
	for _, name := range order {
		if pts := r.CDF[figure+"/"+name]; pts != nil {
			series[name] = pts
			present = append(present, name)
		}
	}
	return series, present
}

// Text renders the full paper artifact: the three tables, the MOS quantile
// table, and the two CDF figures as ASCII plots, with the reproducibility
// footer (fingerprint + spec hash) last. An experiments report prints each
// result exactly as `experiments all` does, so the paper's experiments
// reproduce results_all.txt byte for byte.
func (r *Report) Text() string {
	var b strings.Builder
	if r.Table1 == nil {
		for _, res := range r.Results {
			b.WriteString(renderResult(res))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "Paper artifact for sweep %q — %d calls (%d failed jobs)\n\n",
		r.Name, r.Calls, r.Failed)
	b.WriteString(r.Table1.String())
	b.WriteString("\n")
	b.WriteString(r.Table2.String())
	b.WriteString("\n")
	b.WriteString(r.Table3.String())
	b.WriteString("\n")
	b.WriteString(r.MOSQuantiles.String())

	if series, order := r.cdfSeries("mos", Strategies()); len(order) > 0 {
		b.WriteString("\n")
		b.WriteString(stats.AsciiPlot("MOS CDF (x = MOS, y = fraction of calls)",
			series, order, 64, 16))
	}
	recOrder := []string{"detect", "switch", "retrieve", "total"}
	if series, order := r.cdfSeries("recovery", recOrder); len(order) > 0 {
		b.WriteString("\n")
		b.WriteString(stats.AsciiPlot("Recovery delay CDF (x = ms, y = fraction of recoveries)",
			series, order, 64, 16))
	}
	fmt.Fprintf(&b, "\nfingerprint %s (deterministic for spec %s)\n", r.Fingerprint, r.SpecHash)
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// LoadSummary parses and validates a saved sweep-summary-v2 document — the
// input for offline report rendering (`campaign sweep report FILE`).
func LoadSummary(data []byte) (*Summary, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("sweep: parse summary: %w", err)
	}
	if probe.Schema != SummarySchema {
		return nil, fmt.Errorf("sweep: summary schema %q (want %q) — re-run the sweep with this binary",
			probe.Schema, SummarySchema)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("sweep: parse summary: %w", err)
	}
	return &s, nil
}
