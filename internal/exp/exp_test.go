package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Small corpora keep these integration tests fast while still checking the
// orderings each experiment exists to demonstrate.
const (
	testN    = 30
	testSeed = 42
)

func p90(xs []float64) float64 { return stats.Percentile(xs, 90) }

func TestBuildCorpusSizesAndDeterminism(t *testing.T) {
	a := BuildCorpus(CorpusWild, 10, 7, traffic.G711)
	b := BuildCorpus(CorpusWild, 10, 7, traffic.G711)
	if len(a) != 10 {
		t.Fatalf("corpus size %d", len(a))
	}
	for i := range a {
		if a[i].Seed != b[i].Seed || a[i].Impairment != b[i].Impairment {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestImpairmentCorpusHomogeneous(t *testing.T) {
	for _, sc := range ImpairmentCorpus(core.ImpMobility, 6, 1, traffic.G711) {
		if sc.Impairment != core.ImpMobility {
			t.Fatal("mixed impairment in homogeneous corpus")
		}
	}
}

// TestStrategyOrdering is the headline §4 check: over a mixed corpus,
// cross-link replication must dominate selection strategies. A corpus of
// 100 calls keeps the p75 tail stable (tiny corpora can land a microwave
// call at p90, where every strategy saturates at 100%).
func TestStrategyOrdering(t *testing.T) {
	duals := wildDuals(100, testSeed)
	cross := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.CrossLink() })
	strong := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() })
	divert := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Divert(1, 1) })
	p75 := func(xs []float64) float64 { return stats.Percentile(xs, 75) }
	if p75(cross) >= p75(strong) || stats.Mean(cross) >= stats.Mean(strong) {
		t.Errorf("cross-link (p75 %.1f, mean %.1f) not below stronger (p75 %.1f, mean %.1f)",
			p75(cross), stats.Mean(cross), p75(strong), stats.Mean(strong))
	}
	if stats.Mean(cross) > stats.Mean(divert)+1e-9 {
		t.Errorf("cross-link mean %.1f above divert %.1f", stats.Mean(cross), stats.Mean(divert))
	}
	if stats.Mean(divert) >= stats.Mean(strong) {
		t.Errorf("divert mean %.1f not below stronger %.1f", stats.Mean(divert), stats.Mean(strong))
	}
}

func TestMIMOReducesLossButCrossLinkStillWins(t *testing.T) {
	scens := BuildCorpus(CorpusWild, testN, testSeed, traffic.G711)
	mimoScens := make([]core.Scenario, len(scens))
	for i := range scens {
		mimoScens[i] = scens[i].WithMIMO(3)
	}
	duals := RunDualCorpus(scens)
	mimoDuals := RunDualCorpus(mimoScens)
	strongSISO := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() })
	strongMIMO := worstOf(mimoDuals, func(d core.DualCall) *trace.Trace { return d.Stronger() })
	crossMIMO := worstOf(mimoDuals, func(d core.DualCall) *trace.Trace { return d.CrossLink() })
	if stats.Mean(strongMIMO) >= stats.Mean(strongSISO) {
		t.Errorf("MIMO did not reduce mean worst-window loss: %.2f vs %.2f",
			stats.Mean(strongMIMO), stats.Mean(strongSISO))
	}
	if p90(crossMIMO) >= p90(strongMIMO) {
		t.Errorf("cross-link under MIMO p90 %.1f not below stronger %.1f",
			p90(crossMIMO), p90(strongMIMO))
	}
}

func TestTemporalSitsBetweenBaselineAndCrossLink(t *testing.T) {
	scens := BuildCorpus(CorpusWild, testN, testSeed, traffic.G711)
	duals := RunDualCorpus(scens)
	base := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() })
	cross := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.CrossLink() })
	t100 := parallelMap(scens, func(sc core.Scenario) float64 {
		repl, _ := core.RunTemporal(sc, 100*sim.Millisecond)
		return worstWindowPct(repl, networkDeadline)
	})
	// Temporal replication helps the typical call but can hurt the most
	// overloaded ones (it doubles airtime), so compare medians, where the
	// paper's ordering holds cleanly.
	med := func(xs []float64) float64 { return stats.Percentile(xs, 50) }
	if !(med(cross) <= med(t100) && med(t100) <= med(base)) {
		t.Errorf("median ordering violated: cross %.2f, temporal %.2f, baseline %.2f",
			med(cross), med(t100), med(base))
	}
}

func TestDiversiFiBeatsPrimaryAlone(t *testing.T) {
	scens := BuildCorpus(CorpusOffice, testN, testSeed, traffic.G711)
	duals := RunDualCorpus(scens)
	divs := RunDiversiFiCorpus(scens, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	deadline := traffic.G711.Deadline
	var prim, div []float64
	var waste float64
	for i := range scens {
		prim = append(prim, worstWindowPct(duals[i].Stronger(), deadline))
		div = append(div, worstWindowPct(divs[i].Trace, deadline))
		waste += divs[i].WastefulRate
	}
	if p90(div) >= p90(prim) {
		t.Errorf("DiversiFi p90 %.1f not below primary %.1f", p90(div), p90(prim))
	}
	if w := waste / float64(len(divs)); w > 0.02 {
		t.Errorf("mean wasteful duplication %.2f%% exceeds 2%%", 100*w)
	}
}

func TestExperimentsProduceTables(t *testing.T) {
	cases := []struct {
		name string
		run  func() *Result
	}{
		{"table1", func() *Result { return Table1(testSeed) }},
		{"table2", func() *Result { return Table2(testSeed) }},
		{"fig1", func() *Result { return Figure1(testSeed) }},
		{"fig2a", func() *Result { return Figure2a(12, testSeed) }},
		{"fig2b", func() *Result { return Figure2b(12, testSeed) }},
		{"fig2e", func() *Result { return Figure2e(8, testSeed) }},
		{"fig4", func() *Result { return Figure4(12, testSeed) }},
		{"fig6", func() *Result { return Figure6(6, testSeed) }},
		{"fig8", func() *Result { return Figure8(10, testSeed) }},
		{"fig10", func() *Result { return Figure10(6, testSeed) }},
		{"overhead", func() *Result { return Overhead(8, testSeed) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			r := c.run()
			if r.ID == "" || len(r.Tables) == 0 {
				t.Fatalf("experiment %s incomplete: %+v", c.name, r)
			}
			text := r.Render()
			if !strings.Contains(text, r.ID) {
				t.Error("render missing experiment id")
			}
			if csv := r.CSV(); len(csv) == 0 {
				t.Error("empty CSV")
			}
			for _, tbl := range r.Tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
			}
		})
	}
}

func TestFigure4Ordering(t *testing.T) {
	r := Figure4(testN, testSeed)
	// Parse nothing: recompute the key invariant directly instead.
	duals := wildDuals(testN, testSeed)
	var autoSum, crossSum float64
	n := 0
	for _, d := range duals {
		la := stats.BoolsToFloats(d.TraceA.LostWithDeadline(networkDeadline))
		lb := stats.BoolsToFloats(d.TraceB.LostWithDeadline(networkDeadline))
		if stats.Mean(la) == 0 || stats.Mean(lb) == 0 {
			continue
		}
		autoSum += stats.AutoCorrelation(la, 5)
		crossSum += stats.CrossCorrelation(la, lb)
		n++
	}
	if n == 0 {
		t.Skip("no lossy calls in small corpus")
	}
	if autoSum/float64(n) <= crossSum/float64(n) {
		t.Errorf("lag-5 autocorrelation %.3f not above cross-correlation %.3f",
			autoSum/float64(n), crossSum/float64(n))
	}
	if len(r.Tables) == 0 || len(r.Tables[0].Rows) != 21 {
		t.Error("figure 4 table malformed")
	}
}

func TestTable3Shape(t *testing.T) {
	r := Table3(testSeed)
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 2 {
		t.Fatalf("table 3 malformed: %+v", r.Tables)
	}
	// The AP path must be faster than the middlebox path.
	ap := r.Tables[0].Rows[0][1]
	mb := r.Tables[0].Rows[1][1]
	if ap >= mb { // lexicographic works for single-digit ms values
		t.Errorf("AP total %s not below middlebox %s", ap, mb)
	}
}

func TestAblationQueuePolicyOrdering(t *testing.T) {
	r := AblationQueuePolicy(12, testSeed)
	if len(r.Tables[0].Rows) != 4 {
		t.Fatalf("rows %d", len(r.Tables[0].Rows))
	}
}

func TestExtensionExperiments(t *testing.T) {
	up := Uplink(8, testSeed)
	if len(up.Tables[0].Rows) != 2 {
		t.Fatal("uplink table malformed")
	}
	fec := FECComparison(10, testSeed)
	if len(fec.Tables[0].Rows) != 4 {
		t.Fatal("fec table malformed")
	}
	links := DiversityVsLinks(10, testSeed)
	if len(links.Tables[0].Rows) != 4 {
		t.Fatal("links table malformed")
	}
}

func TestDiversityMonotoneInLinks(t *testing.T) {
	scens := BuildCorpus(CorpusWild, 12, testSeed, traffic.G711)
	for _, sc := range scens[:4] {
		traces := core.RunMultiCall(sc, 4)
		prev := 1.0
		for k := 1; k <= 4; k++ {
			merged := core.MergeK(traces, k)
			loss := stats.LossRate(merged.LostWithDeadline(networkDeadline))
			if loss > prev+1e-9 {
				t.Fatalf("loss rose from %v to %v at k=%d", prev, loss, k)
			}
			prev = loss
		}
	}
}

func TestValidateAllClaimsHold(t *testing.T) {
	// Reduced corpus; the full-size run is `experiments validate`.
	r := Validate(60, testSeed)
	fails := 0
	for _, row := range r.Tables[0].Rows {
		if row[1] == "FAIL" {
			fails++
			t.Logf("claim %s failed: %s (%s)", row[0], row[3], row[2])
		}
	}
	// At reduced corpus size allow one sampling-noise failure, no more.
	if fails > 1 {
		t.Errorf("%d claims failed at n=60", fails)
	}
}

func TestMoreExperimentsProduceTables(t *testing.T) {
	cases := []struct {
		name string
		run  func() *Result
	}{
		{"fig2c", func() *Result { return Figure2c(8, testSeed) }},
		{"fig2d", func() *Result { return Figure2d(8, testSeed) }},
		{"fig3", func() *Result { return Figure3(testSeed) }},
		{"fig5", func() *Result { return Figure5(8, testSeed) }},
		{"fig9", func() *Result { return Figure9(8, testSeed) }},
		{"mbscale", func() *Result { return MiddleboxScaling(testSeed) }},
		{"ablation-queue-size", func() *Result { return AblationQueueSize(6, testSeed) }},
		{"ablation-switch-timing", func() *Result { return AblationSwitchTiming(6, testSeed) }},
		{"ablation-keepalive", func() *Result { return AblationKeepalive(6, testSeed) }},
		{"ablation-plt", func() *Result { return AblationPLT(6, testSeed) }},
		{"ablation-playout", func() *Result { return AblationPlayout(6, testSeed) }},
		{"ablation-hwbatch", func() *Result { return AblationHWBatch(6, testSeed) }},
		{"ablation-backoff", func() *Result { return AblationBackoff(6, testSeed) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			r := c.run()
			if len(r.Tables) == 0 || len(r.Tables[0].Rows) == 0 {
				t.Fatalf("%s produced no rows", c.name)
			}
		})
	}
}

func TestCalibrateRuns(t *testing.T) {
	out := Calibrate(12, testSeed)
	if !strings.Contains(out, "PCR stronger") || !strings.Contains(out, "diversifi") {
		t.Errorf("calibrate output incomplete:\n%s", out)
	}
}

func TestEDCAHelpsCongestionNotLoss(t *testing.T) {
	r := EDCA(20, testSeed)
	rows := r.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("edca table rows = %d", len(rows))
	}
	// Recompute the invariant directly: EDCA mean < DCF mean on the
	// congestion corpus; EDCA barely better than DCF on weak links.
	mean := func(imp core.Impairment, voice bool) float64 {
		scens := ImpairmentCorpus(imp, 20, testSeed, traffic.G711)
		xs := parallelMap(scens, func(sc core.Scenario) float64 {
			return worstWindowPct(core.RunPriorityCall(sc, voice), networkDeadline)
		})
		return stats.Mean(xs)
	}
	congDCF, congEDCA := mean(core.ImpCongestion, false), mean(core.ImpCongestion, true)
	if congEDCA >= congDCF*0.8 {
		t.Errorf("EDCA did not help congestion: %.2f vs %.2f", congEDCA, congDCF)
	}
	weakDCF, weakEDCA := mean(core.ImpWeakLink, false), mean(core.ImpWeakLink, true)
	if weakEDCA < weakDCF*0.6 {
		t.Errorf("EDCA helped weak links too much (%.2f vs %.2f) — priority shouldn't fix wireless loss",
			weakEDCA, weakDCF)
	}
}

func TestHandoffOrdering(t *testing.T) {
	scens := ImpairmentCorpus(core.ImpMobility, 24, testSeed, traffic.G711)
	duals := RunDualCorpus(scens)
	worst := func(f func(core.DualCall) *trace.Trace) float64 {
		var xs []float64
		for _, d := range duals {
			xs = append(xs, worstWindowPct(f(d), networkDeadline))
		}
		return stats.Mean(xs)
	}
	hard := worst(func(d core.DualCall) *trace.Trace { return d.Handoff(6, 500*sim.Millisecond) })
	mbb := worst(func(d core.DualCall) *trace.Trace { return d.Handoff(6, 50*sim.Millisecond) })
	cross := worst(func(d core.DualCall) *trace.Trace { return d.CrossLink() })
	if mbb >= hard {
		t.Errorf("make-before-break %.2f not below hard handoff %.2f", mbb, hard)
	}
	if cross >= mbb {
		t.Errorf("cross-link %.2f not below make-before-break %.2f", cross, mbb)
	}
}
