package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// Uplink runs the §5 deferred direction: uplink streaming with and
// without DiversiFi-style cross-link retransmission.
func Uplink(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.G711)
	deadline := traffic.G711.Deadline

	type row struct {
		baseWorst, divWorst float64
		basePoor, divPoor   bool
		retx, recovered     int
	}
	rows := parallelMap(scens, func(sc core.Scenario) row {
		base := core.RunUplink(sc, false)
		div := core.RunUplink(sc, true)
		return row{
			baseWorst: worstWindowPct(base.Trace, deadline),
			divWorst:  worstWindowPct(div.Trace, deadline),
			basePoor:  voip.Assess(base.Trace, traffic.G711).Poor,
			divPoor:   voip.Assess(div.Trace, traffic.G711).Poor,
			retx:      div.Stats.Retransmitted,
			recovered: div.Stats.Recovered,
		}
	})
	var baseWorst, divWorst []float64
	basePCR, divPCR, retx, rec := 0, 0, 0, 0
	for _, r := range rows {
		baseWorst = append(baseWorst, r.baseWorst)
		divWorst = append(divWorst, r.divWorst)
		if r.basePoor {
			basePCR++
		}
		if r.divPoor {
			divPCR++
		}
		retx += r.retx
		rec += r.recovered
	}
	t := stats.NewTable("Uplink: single link vs DiversiFi retransmission",
		"receiver", "worst-5s p50", "worst-5s p90", "PCR %")
	t.AddRow("single link",
		fmt.Sprintf("%.1f", stats.Percentile(baseWorst, 50)),
		fmt.Sprintf("%.1f", stats.Percentile(baseWorst, 90)),
		fmt.Sprintf("%.1f", 100*float64(basePCR)/float64(n)))
	t.AddRow("DiversiFi uplink",
		fmt.Sprintf("%.1f", stats.Percentile(divWorst, 50)),
		fmt.Sprintf("%.1f", stats.Percentile(divWorst, 90)),
		fmt.Sprintf("%.1f", 100*float64(divPCR)/float64(n)))
	return &Result{
		ID:     "uplink",
		Title:  "Uplink direction (extension of §5)",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("%d retransmissions over the secondary, %d delivered in time", retx, rec),
			"the transmitter knows each frame's fate immediately, so recovery needs no network-side buffer",
		},
	}
}

// FECComparison contrasts XOR-parity FEC over a single link (the coding
// approach of [36]) with cross-link replication.
func FECComparison(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusWild, n, seed, traffic.G711)
	duals := RunDualCorpus(scens)

	type fec struct{ worst, overhead, repaired float64 }
	fk := func(k int) []fec {
		return parallelMap(scens, func(sc core.Scenario) fec {
			r := core.RunFEC(sc, k)
			return fec{
				worst:    worstWindowPct(r.Decoded, networkDeadline),
				overhead: float64(r.ParitySent) / float64(sc.PacketCount()),
				repaired: float64(r.Repaired),
			}
		})
	}
	fec4 := fk(4)
	fec2 := fk(2)

	var base, cross []float64
	for _, d := range duals {
		base = append(base, worstWindowPct(d.Stronger(), networkDeadline))
		cross = append(cross, crossWorstPct(d, networkDeadline))
	}
	worst4 := make([]float64, len(fec4))
	worst2 := make([]float64, len(fec2))
	var oh4, oh2, rep4, rep2 float64
	for i := range fec4 {
		worst4[i], worst2[i] = fec4[i].worst, fec2[i].worst
		oh4 += fec4[i].overhead
		oh2 += fec2[i].overhead
		rep4 += fec4[i].repaired
		rep2 += fec2[i].repaired
	}
	t := stats.NewTable("FEC over one link vs cross-link replication",
		"scheme", "worst-5s p50", "worst-5s p90", "airtime overhead")
	row := func(name string, xs []float64, overhead string) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", stats.Percentile(xs, 50)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 90)),
			overhead)
	}
	row("baseline (stronger)", base, "0%")
	row("FEC k=4 (+25%)", worst4, fmt.Sprintf("%.0f%%", 100*oh4/float64(len(fec4))))
	row("FEC k=2 (+50%)", worst2, fmt.Sprintf("%.0f%%", 100*oh2/float64(len(fec2))))
	row("cross-link", cross, "~0.2-0.6% (reactive)")
	return &Result{
		ID:     "fec",
		Title:  "Single-link FEC vs cross-link diversity (related work [36])",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("FEC repaired %.1f (k=4) / %.1f (k=2) packets per call — isolated losses only;",
				rep4/float64(len(fec4)), rep2/float64(len(fec2))),
			"bursts defeat single-parity blocks (§4.2), and the overhead is paid always;",
			"DiversiFi pays airtime only on loss and recovers bursts too",
		},
	}
}

// DiversityVsLinks measures the worst-window loss as replication fans out
// over 1–4 links (extension: the paper stops at two).
func DiversityVsLinks(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusWild, n, seed, traffic.G711)
	const maxLinks = 4
	type row struct{ worst [maxLinks]float64 }
	rows := parallelMap(scens, func(sc core.Scenario) row {
		traces := core.RunMultiCall(sc, maxLinks)
		var r row
		for k := 1; k <= maxLinks; k++ {
			r.worst[k-1] = worstWindowPct(core.MergeK(traces, k), networkDeadline)
		}
		return r
	})
	t := stats.NewTable("Worst-5s loss vs number of replicated links",
		"links", "p50", "p90", "p99", "mean")
	for k := 1; k <= maxLinks; k++ {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.worst[k-1])
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 50)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 90)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 99)),
			fmt.Sprintf("%.2f", stats.Mean(xs)))
	}
	return &Result{
		ID:     "links",
		Title:  "Diversity gain vs link count (extension)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"the second link buys most of the gain; the third still helps the tail",
			"(correlated impairments — microwave, shared walls — bound the benefit)",
		},
	}
}

// EDCA tests the paper's §2 argument experimentally: 802.11e voice
// priority rescues congestion-delayed streams but does nothing for
// wireless loss, while cross-link diversity handles both.
func EDCA(n int, seed int64) *Result {
	t := stats.NewTable("802.11e/EDCA priority vs cross-link diversity (worst-5s loss %)",
		"corpus", "scheme", "p50", "p90", "mean")
	for _, corpus := range []struct {
		name string
		imp  core.Impairment
	}{
		{"congestion", core.ImpCongestion},
		{"weak-link", core.ImpWeakLink},
	} {
		scens := ImpairmentCorpus(corpus.imp, n, seed, traffic.G711)
		duals := RunDualCorpus(scens)
		dcf := parallelMap(scens, func(sc core.Scenario) float64 {
			return worstWindowPct(core.RunPriorityCall(sc, false), networkDeadline)
		})
		edca := parallelMap(scens, func(sc core.Scenario) float64 {
			return worstWindowPct(core.RunPriorityCall(sc, true), networkDeadline)
		})
		var cross []float64
		for _, d := range duals {
			cross = append(cross, crossWorstPct(d, networkDeadline))
		}
		row := func(scheme string, xs []float64) {
			t.AddRow(corpus.name, scheme,
				fmt.Sprintf("%.1f", stats.Percentile(xs, 50)),
				fmt.Sprintf("%.1f", stats.Percentile(xs, 90)),
				fmt.Sprintf("%.2f", stats.Mean(xs)))
		}
		row("DCF best-effort", dcf)
		row("EDCA voice", edca)
		row("cross-link", cross)
	}
	return &Result{
		ID:     "edca",
		Title:  "Prioritization vs diversity (§2's related-work claim)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"EDCA voice access shields the stream from congestion-induced delay and collisions,",
			"but cannot recover frames the channel corrupted — only diversity can (§2)",
		},
	}
}

// Handoff compares RSSI-driven handoff (related work [19]) with DiversiFi
// on the mobility corpus: handoff chases the best link but cannot recover
// packets lost before each switch, and pays an outage per switch.
func Handoff(n int, seed int64) *Result {
	scens := ImpairmentCorpus(core.ImpMobility, n, seed, traffic.G711)
	duals := RunDualCorpus(scens)
	worst := func(f func(core.DualCall) *trace.Trace) []float64 {
		var xs []float64
		for _, d := range duals {
			xs = append(xs, worstWindowPct(f(d), networkDeadline))
		}
		return xs
	}
	stick := worst(func(d core.DualCall) *trace.Trace { return d.Stronger() })
	hard := worst(func(d core.DualCall) *trace.Trace { return d.Handoff(6, 500*sim.Millisecond) })
	mbb := worst(func(d core.DualCall) *trace.Trace { return d.Handoff(6, 50*sim.Millisecond) })
	cross := crossWorstOf(duals)

	t := stats.NewTable("Mobility: handoff vs diversity (worst-5s loss %)",
		"scheme", "p50", "p90", "mean")
	row := func(name string, xs []float64) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", stats.Percentile(xs, 50)),
			fmt.Sprintf("%.1f", stats.Percentile(xs, 90)),
			fmt.Sprintf("%.2f", stats.Mean(xs)))
	}
	row("stick to initial AP", stick)
	row("hard handoff (500ms outage)", hard)
	row("make-before-break (50ms)", mbb)
	row("cross-link replication", cross)
	return &Result{
		ID:     "handoff",
		Title:  "RSSI-driven handoff vs cross-link diversity (related work [19])",
		Tables: []*stats.Table{t},
		Notes: []string{
			"handoff tracks the walker but remains selection: losses before each switch stay lost,",
			"and each re-association blanks reception; replication needs no decision at all",
		},
	}
}
