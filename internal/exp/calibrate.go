package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// profileG711 returns the G.711 stream profile used by most experiments.
func profileG711() traffic.Profile { return traffic.G711 }

// networkDeadline is the loss-accounting deadline for the §4 figure
// metrics: the paper's Figure 2 plots network-trace loss, which tolerates
// anything inside the ~150 ms one-way end-to-end budget. DiversiFi's own
// recovery accounting (§6) keeps the strict 100 ms WiFi-hop deadline.
const networkDeadline = 150 * sim.Millisecond

// worstWindowPct returns the worst-5s loss percentage of a trace under the
// profile's deadline.
func worstWindowPct(tr *trace.Trace, deadline sim.Duration) float64 {
	return 100 * tr.Summarize(deadline, 5*sim.Second).WorstWindowRate()
}

// crossWorstPct returns worstWindowPct(d.CrossLink(), deadline) without
// building the merged trace.
func crossWorstPct(d core.DualCall, deadline sim.Duration) float64 {
	return 100 * trace.SummarizeMerged(d.TraceA, d.TraceB, deadline, 5*sim.Second).WorstWindowRate()
}

// Calibrate runs a quick corpus and reports the headline statistics the
// model is tuned against, with the paper's values alongside. It exists so
// the calibration documented in EXPERIMENTS.md is reproducible.
func Calibrate(n int, seed int64) string {
	var b strings.Builder
	scens := BuildCorpus(CorpusWild, n, seed, profileG711())
	duals := RunDualCorpus(scens)

	var strong, better, cross, divert []float64
	var strongQ, crossQ []voip.Quality
	deadline := networkDeadline
	for _, d := range duals {
		strong = append(strong, worstWindowPct(d.Stronger(), deadline))
		better = append(better, worstWindowPct(d.Better(5*sim.Second), deadline))
		cross = append(cross, crossWorstPct(d, deadline))
		divert = append(divert, worstWindowPct(d.Divert(1, 1), deadline))
		strongQ = append(strongQ, voip.Assess(d.Stronger(), profileG711()))
		crossQ = append(crossQ, voip.AssessMerged(d.TraceA, d.TraceB, profileG711()))
	}
	p := func(xs []float64, q float64) float64 { return stats.Percentile(xs, q) }
	fmt.Fprintf(&b, "wild corpus n=%d\n", n)
	fmt.Fprintf(&b, "worst-5s loss p50/p90 (paper p90):\n")
	fmt.Fprintf(&b, "  stronger  %6.1f / %6.1f  (37)\n", p(strong, 50), p(strong, 90))
	fmt.Fprintf(&b, "  better    %6.1f / %6.1f  (84)\n", p(better, 50), p(better, 90))
	fmt.Fprintf(&b, "  divert    %6.1f / %6.1f  (10.5)\n", p(divert, 50), p(divert, 90))
	fmt.Fprintf(&b, "  crosslink %6.1f / %6.1f  (4.4)\n", p(cross, 50), p(cross, 90))
	fmt.Fprintf(&b, "PCR stronger %.1f%% (12.23)  crosslink %.1f%% (5.45)  ratio %.2fx (2.24)\n",
		100*voip.PCR(strongQ), 100*voip.PCR(crossQ),
		safeRatio(voip.PCR(strongQ), voip.PCR(crossQ)))

	// Overall (whole-call) loss + burstiness on stronger vs cross-link.
	var strongLoss, crossLoss float64
	strongBursts := stats.NewBurstHistogram(nil, 10)
	crossBursts := stats.NewBurstHistogram(nil, 10)
	for _, d := range duals {
		sl := d.Stronger().LostWithDeadline(deadline)
		cl := d.CrossLink().LostWithDeadline(deadline)
		strongLoss += stats.LossRate(sl)
		crossLoss += stats.LossRate(cl)
		strongBursts.Merge(stats.NewBurstHistogram(sl, 10))
		crossBursts.Merge(stats.NewBurstHistogram(cl, 10))
	}
	nf := float64(len(duals))
	fmt.Fprintf(&b, "mean pkts lost/call: stronger %.1f (61.9 temporal-baseline ref), cross %.1f (25.6)\n",
		strongLoss*6000/nf, crossLoss*6000/nf)
	fmt.Fprintf(&b, "lost-in-bursts/call: stronger %.1f (51.0), cross %.1f (15.9)\n",
		float64(strongBursts.LostInBursts())/nf, float64(crossBursts.LostInBursts())/nf)

	// Correlation: lag-1..20 auto vs cross.
	var auto1, auto20, xc float64
	cnt := 0.0
	for _, d := range duals {
		la := stats.BoolsToFloats(d.TraceA.LostWithDeadline(deadline))
		lb := stats.BoolsToFloats(d.TraceB.LostWithDeadline(deadline))
		auto1 += stats.AutoCorrelation(la, 1)
		auto20 += stats.AutoCorrelation(la, 20)
		xc += stats.CrossCorrelation(la, lb)
		cnt++
	}
	fmt.Fprintf(&b, "corr: auto lag1 %.3f (~0.25) lag20 %.3f (>cross) cross %.3f (~0.05)\n",
		auto1/cnt, auto20/cnt, xc/cnt)

	// Office corpus quick look (DiversiFi headline).
	oScens := BuildCorpus(CorpusOffice, n/2+1, seed+1, profileG711())
	oDuals := RunDualCorpus(oScens)
	var primPCR []voip.Quality
	var primLoss float64
	var primWorst []float64
	for _, d := range oDuals {
		primQ := voip.Assess(d.Stronger(), profileG711())
		primPCR = append(primPCR, primQ)
		primLoss += stats.LossRate(d.Stronger().LostWithDeadline(deadline))
		primWorst = append(primWorst, worstWindowPct(d.Stronger(), deadline))
	}
	fmt.Fprintf(&b, "office: primary PCR %.1f%% (4.9) loss %.2f%% (1.97) worst-5s p90 %.1f (11.6)\n",
		100*voip.PCR(primPCR), 100*primLoss/float64(len(oDuals)), p(primWorst, 90))

	dres := RunDiversiFiCorpus(oScens, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	var dWorst []float64
	var dQ []voip.Quality
	var waste, resid float64
	for _, r := range dres {
		dWorst = append(dWorst, worstWindowPct(r.Trace, deadline))
		dQ = append(dQ, voip.Assess(r.Trace, profileG711()))
		waste += r.WastefulRate
		resid += stats.LossRate(r.Trace.LostWithDeadline(deadline))
	}
	fmt.Fprintf(&b, "diversifi: PCR %.1f%% (0) worst-5s p90 %.1f (1.2) residual loss %.3f%% (0.05) waste %.2f%% (0.62)\n",
		100*voip.PCR(dQ), p(dWorst, 90), 100*resid/float64(len(dres)), 100*waste/float64(len(dres)))
	return b.String()
}

// CalibrateImpairments reports per-impairment stronger/cross-link loss and
// PCR over n calls each, for tuning Figure 6's breakdown.
func CalibrateImpairments(n int, seed int64) string {
	var b strings.Builder
	deadline := networkDeadline
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s %8s\n",
		"impairment", "sLoss%", "xLoss%", "sWw90", "xWw90", "sPCR%", "xPCR%")
	for _, imp := range core.AllImpairments {
		scens := ImpairmentCorpus(imp, n, seed, profileG711())
		duals := RunDualCorpus(scens)
		var sLoss, xLoss float64
		var sWw, xWw []float64
		var sQ, xQ []voip.Quality
		for _, d := range duals {
			st, xt := d.Stronger(), d.CrossLink()
			sLoss += stats.LossRate(st.LostWithDeadline(deadline))
			xLoss += stats.LossRate(xt.LostWithDeadline(deadline))
			sWw = append(sWw, worstWindowPct(st, deadline))
			xWw = append(xWw, worstWindowPct(xt, deadline))
			sQ = append(sQ, voip.Assess(st, profileG711()))
			xQ = append(xQ, voip.Assess(xt, profileG711()))
		}
		nf := float64(len(duals))
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.1f %8.1f %8.1f %8.1f\n",
			imp.String(), 100*sLoss/nf, 100*xLoss/nf,
			stats.Percentile(sWw, 90), stats.Percentile(xWw, 90),
			100*voip.PCR(sQ), 100*voip.PCR(xQ))
	}
	return b.String()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
