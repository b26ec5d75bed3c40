package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// cdfSummary renders a set of named worst-5s-loss samples the way the
// paper's Figure 2 panels do: an empirical CDF (fraction of streams vs
// loss percentage) plus tail percentiles.
func cdfSummary(title string, order []string, series map[string][]float64) ([]*stats.Table, string) {
	pts := map[string][]stats.Point{}
	for name, xs := range series {
		pts[name] = stats.NewCDF(xs).Points(26)
	}
	cdf := stats.SeriesTable(title+" (CDF)", "loss%", pts, order)
	plot := stats.AsciiPlot(title+" — fraction of streams vs worst-5s loss %", pts, order, 64, 16)
	sum := stats.NewTable(title+" (percentiles of worst-5s loss %)", "strategy", "p50", "p75", "p90", "p99")
	for _, name := range order {
		xs := series[name]
		sum.AddRow(name,
			fmt.Sprintf("%.1f", stats.Percentile(xs, 50)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 75)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 90)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 99)))
	}
	return []*stats.Table{sum, cdf}, plot
}

// wildDuals simulates the two-NIC wild corpus, from which Figures 2, 4, 5
// and 6 derive, as the paper's do from its 458 calls. It keeps nothing:
// each caller (Figures 2a, 2b and 4, Figure 6's overall row and the
// validation claims) simulates the corpus again, and Figures 2c and 5
// build and simulate it themselves.
func wildDuals(n int, seed int64) []core.DualCall {
	return RunDualCorpus(BuildCorpus(CorpusWild, n, seed, traffic.G711))
}

// worstOf maps each dual call through a strategy and takes the worst-5s
// loss percentage.
func worstOf(duals []core.DualCall, f func(core.DualCall) *trace.Trace) []float64 {
	deadline := networkDeadline
	out := make([]float64, 0, len(duals))
	for _, d := range duals {
		out = append(out, worstWindowPct(f(d), deadline))
	}
	return out
}

// crossWorstOf is worstOf for the cross-link merge, scored without
// building the merged traces.
func crossWorstOf(duals []core.DualCall) []float64 {
	out := make([]float64, 0, len(duals))
	for _, d := range duals {
		out = append(out, crossWorstPct(d, networkDeadline))
	}
	return out
}

// Figure2a compares cross-link replication with stronger/better selection.
func Figure2a(n int, seed int64) *Result {
	duals := wildDuals(n, seed)
	series := map[string][]float64{
		"cross-link": crossWorstOf(duals),
		"stronger":   worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() }),
		"better":     worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Better(5 * sim.Second) }),
	}
	tables, plot := cdfSummary("Figure 2a", []string{"cross-link", "stronger", "better"}, series)
	return &Result{
		ID:     "fig2a",
		Title:  "Cross-link replication vs link selection (§4.1)",
		Tables: tables,
		Plots:  []string{plot},
		Notes: []string{
			fmt.Sprintf("n=%d simulated 2-minute calls", len(duals)),
			"paper p90: stronger 37%, better 84%, cross-link 4.4%",
		},
	}
}

// Figure2b compares cross-link replication with Divert-style fine-grained
// selection (H=1, T=1).
func Figure2b(n int, seed int64) *Result {
	duals := wildDuals(n, seed)
	series := map[string][]float64{
		"cross-link": crossWorstOf(duals),
		"divert":     worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Divert(1, 1) }),
	}
	tables, plot := cdfSummary("Figure 2b", []string{"cross-link", "divert"}, series)
	return &Result{
		ID:     "fig2b",
		Title:  "Cross-link replication vs fine-grained selection (Divert)",
		Tables: tables,
		Plots:  []string{plot},
		Notes:  []string{"paper p90: Divert 10.5%, cross-link 4.4%"},
	}
}

// Figure2c compares cross-link with temporal replication at Δ = 0 and
// Δ = 100 ms, plus the unreplicated baseline.
func Figure2c(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusWild, n, seed, traffic.G711)
	duals := RunDualCorpus(scens)
	deadline := networkDeadline

	t100 := parallelMap(scens, func(sc core.Scenario) float64 {
		repl, _ := core.RunTemporal(sc, 100*sim.Millisecond)
		return worstWindowPct(repl, deadline)
	})
	t0 := parallelMap(scens, func(sc core.Scenario) float64 {
		repl, _ := core.RunTemporal(sc, 0)
		return worstWindowPct(repl, deadline)
	})
	series := map[string][]float64{
		"cross-link":      crossWorstOf(duals),
		"temporal(100ms)": t100,
		"temporal(0ms)":   t0,
		"baseline":        worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() }),
	}
	tables, plot := cdfSummary("Figure 2c",
		[]string{"cross-link", "temporal(100ms)", "temporal(0ms)", "baseline"}, series)
	return &Result{
		ID:     "fig2c",
		Title:  "Cross-link vs temporal replication (§4.2)",
		Tables: tables,
		Plots:  []string{plot},
		Notes: []string{
			"paper p90: baseline 37.2%, temporal Δ=100ms 23.7%, cross-link 4.4%",
			"temporal improves with Δ but cannot escape same-link fades",
		},
	}
}

// Figure2d repeats the selection-vs-replication comparison with MIMO
// spatial diversity enabled. The paper ran this in the lab (44 calls with
// 802.11ac gear), so the corpus here is fading-dominated weak-link
// scenarios — the conditions where PHY diversity has a fair chance —
// rather than the wild mix with interference sources MIMO cannot touch.
func Figure2d(n int, seed int64) *Result {
	scens := ImpairmentCorpus(core.ImpWeakLink, n, seed, traffic.G711)
	for i := range scens {
		scens[i] = scens[i].WithMIMO(3)
	}
	duals := RunDualCorpus(scens)
	series := map[string][]float64{
		"mimo+cross-link": crossWorstOf(duals),
		"mimo+stronger":   worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() }),
		"mimo+better":     worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Better(5 * sim.Second) }),
	}
	tables, plot := cdfSummary("Figure 2d",
		[]string{"mimo+cross-link", "mimo+stronger", "mimo+better"}, series)
	return &Result{
		ID:     "fig2d",
		Title:  "Benefits over and above MIMO (§4.3)",
		Tables: tables,
		Plots:  []string{plot},
		Notes: []string{
			"MIMO suppresses independent fading but not shadowing or interference,",
			"so cross-link replication retains a clear advantage",
		},
	}
}

// Figure2e repeats the comparison for 5 Mbps interactive streams (80
// runs). The corpus uses office-grade conditions: a 5 Mbps stream needs a
// link that can carry it at all, so the paper's high-rate runs were made
// where capacity sufficed and fades — not saturation — caused the loss.
func Figure2e(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.HighRate)
	duals := RunDualCorpus(scens)
	deadline := networkDeadline
	worst := func(f func(core.DualCall) *trace.Trace) []float64 {
		out := make([]float64, 0, len(duals))
		for _, d := range duals {
			out = append(out, worstWindowPct(f(d), deadline))
		}
		return out
	}
	series := map[string][]float64{
		"cross-link": crossWorstOf(duals),
		"stronger":   worst(func(d core.DualCall) *trace.Trace { return d.Stronger() }),
		"better":     worst(func(d core.DualCall) *trace.Trace { return d.Better(5 * sim.Second) }),
	}
	tables, plot := cdfSummary("Figure 2e", []string{"cross-link", "stronger", "better"}, series)
	return &Result{
		ID:     "fig2e",
		Title:  "High-rate 5 Mbps streams (§4.5)",
		Tables: tables,
		Plots:  []string{plot},
		Notes:  []string{"paper p90: stronger 20.5%, cross-link 1.7%"},
	}
}
