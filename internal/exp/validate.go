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

// claim is one checkable reproduction statement.
type claim struct {
	id    string
	text  string
	pass  bool
	value string
}

// Validate executes the reproduction's headline claims at meaningful
// corpus sizes and reports PASS/FAIL per claim — the paper's conclusions,
// restated as assertions. It is the machine-checkable core of
// EXPERIMENTS.md.
func Validate(n int, seed int64) *Result {
	if n <= 0 {
		n = 200
	}
	var claims []claim
	add := func(id, text string, pass bool, format string, args ...any) {
		claims = append(claims, claim{id: id, text: text, pass: pass, value: fmt.Sprintf(format, args...)})
	}

	// ---- §4 corpus ----------------------------------------------------
	duals := wildDuals(n, seed)
	deadline := networkDeadline
	cross := crossWorstOf(duals)
	strong := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Stronger() })
	better := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Better(5 * sim.Second) })
	divert := worstOf(duals, func(d core.DualCall) *trace.Trace { return d.Divert(1, 1) })
	p90 := func(xs []float64) float64 { return stats.Percentile(xs, 90) }
	p75 := func(xs []float64) float64 { return stats.Percentile(xs, 75) }

	add("fig2a-1", "cross-link dominates stronger selection in the tail",
		p90(cross) < p90(strong),
		"p90 %.1f vs %.1f", p90(cross), p90(strong))
	add("fig2a-2", "better (trial-period) selection has the fattest tail",
		p90(better) > p90(strong),
		"p90 %.1f vs stronger %.1f", p90(better), p90(strong))
	add("fig2b", "cross-link beats Divert fine-grained selection",
		p75(cross) <= p75(divert) && stats.Mean(cross) < stats.Mean(divert),
		"p75 %.1f vs %.1f", p75(cross), p75(divert))

	var sq, cq []voip.Quality
	for _, d := range duals {
		sq = append(sq, voip.Assess(d.Stronger(), traffic.G711))
		cq = append(cq, voip.AssessMerged(d.TraceA, d.TraceB, traffic.G711))
	}
	ratio := 0.0
	if voip.PCR(cq) > 0 {
		ratio = voip.PCR(sq) / voip.PCR(cq)
	}
	add("fig6", "cross-link cuts PCR by roughly the paper's 2.24x",
		ratio == 0 || (ratio > 1.4 && ratio < 4.5),
		"%.1f%% -> %.1f%% (%.2fx)", 100*voip.PCR(sq), 100*voip.PCR(cq), ratio)

	// Correlation invariant (Figure 4).
	var autoSum, crossSum float64
	cnt := 0
	for _, d := range duals {
		la := stats.BoolsToFloats(d.TraceA.LostWithDeadline(deadline))
		lb := stats.BoolsToFloats(d.TraceB.LostWithDeadline(deadline))
		if stats.Mean(la) == 0 || stats.Mean(lb) == 0 {
			continue
		}
		autoSum += stats.AutoCorrelation(la, 10)
		crossSum += stats.CrossCorrelation(la, lb)
		cnt++
	}
	add("fig4", "loss autocorrelation exceeds cross-link correlation",
		cnt > 0 && autoSum > crossSum,
		"lag-10 auto %.3f vs cross %.3f (n=%d)", autoSum/float64(cnt), crossSum/float64(cnt), cnt)

	// Temporal replication (Figure 2c): helps the median call.
	scens := BuildCorpus(CorpusWild, n/2, seed, traffic.G711)
	t100 := parallelMap(scens, func(sc core.Scenario) float64 {
		repl, _ := core.RunTemporal(sc, 100*sim.Millisecond)
		return worstWindowPct(repl, deadline)
	})
	baseHalf := worstOf(RunDualCorpus(scens), func(d core.DualCall) *trace.Trace { return d.Stronger() })
	crossHalf := crossWorstOf(RunDualCorpus(scens))
	med := func(xs []float64) float64 { return stats.Percentile(xs, 50) }
	add("fig2c", "temporal replication sits between baseline and cross-link (median)",
		med(crossHalf) <= med(t100) && med(t100) <= med(baseHalf),
		"cross %.1f <= temporal %.1f <= baseline %.1f", med(crossHalf), med(t100), med(baseHalf))

	// ---- §6 office corpus ----------------------------------------------
	oScens := BuildCorpus(CorpusOffice, 61, seed, traffic.G711)
	oDuals := RunDualCorpus(oScens)
	divs := RunDiversiFiCorpus(oScens, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	strict := traffic.G711.Deadline
	var dWorst, pWorst []float64
	var dQ []voip.Quality
	var primLoss, residLoss, waste float64
	for i, r := range divs {
		dWorst = append(dWorst, worstWindowPct(r.Trace, strict))
		pWorst = append(pWorst, worstWindowPct(oDuals[i].Stronger(), strict))
		dQ = append(dQ, voip.Assess(r.Trace, traffic.G711))
		primLoss += stats.LossRate(oDuals[i].Stronger().LostWithDeadline(strict))
		residLoss += stats.LossRate(r.Trace.LostWithDeadline(strict))
		waste += r.WastefulRate
	}
	nf := float64(len(divs))
	add("fig8-1", "single-NIC DiversiFi cuts the worst-window tail vs the primary",
		p90(dWorst) < p90(pWorst),
		"p90 %.1f vs %.1f", p90(dWorst), p90(pWorst))
	add("fig8-2", "DiversiFi PCR is (near) zero over the evaluation runs",
		voip.PCR(dQ) <= 0.02,
		"%.1f%%", 100*voip.PCR(dQ))
	add("6.3-1", "residual loss is a small fraction of the primary's",
		primLoss == 0 || residLoss < primLoss/3,
		"%.3f%% vs %.3f%%", 100*residLoss/nf, 100*primLoss/nf)
	add("6.3-2", "wasteful duplication stays under 1%",
		waste/nf < 0.01,
		"%.2f%%", 100*waste/nf)

	// TCP coexistence: the noise-free switching cost is tiny.
	var absentSum float64
	for _, sc := range oScens[:min(10, len(oScens))] {
		_, _, af := core.TCPCoexistence(sc)
		absentSum += af
	}
	cost := absentSum / float64(min(10, len(oScens))) * traffic.DefaultTCPConfig().AbsencePenalty
	add("fig10", "switching-attributable TCP cost is well under the paper's 2.5%",
		cost < 0.025,
		"%.2f%%", 100*cost)

	// Table 3: AP recovery is faster than middlebox recovery, both << 100ms.
	mean := func(ds []sim.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var sum sim.Duration
		for _, d := range ds {
			sum += d
		}
		return float64(sum) / float64(len(ds)) / 1000
	}
	delayOf := func(mode core.DiversiFiMode) float64 {
		var ds []sim.Duration
		for i := int64(0); len(ds) < 60 && i < 8; i++ {
			sc := core.ControlledScenario(seed+i, traffic.G711, sim.Minute, 0, 0).
				WithFading(true, 1500*sim.Millisecond, 30*sim.Millisecond, 60)
			r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: mode})
			for _, ev := range r.Recoveries {
				ds = append(ds, ev.Total)
			}
		}
		return mean(ds)
	}
	apMs, mbMs := delayOf(core.ModeCustomAP), delayOf(core.ModeMiddlebox)
	add("table3", "AP recovery beats middlebox recovery; both fit the 100ms budget",
		apMs > 0 && apMs < mbMs && mbMs < 20,
		"AP %.1fms vs middlebox %.1fms", apMs, mbMs)

	// Render.
	t := stats.NewTable("Reproduction claims", "claim", "status", "measured", "statement")
	passed := 0
	for _, c := range claims {
		status := "FAIL"
		if c.pass {
			status = "PASS"
			passed++
		}
		t.AddRow(c.id, status, c.value, c.text)
	}
	return &Result{
		ID:     "validate",
		Title:  fmt.Sprintf("Shape validation: %d/%d claims hold", passed, len(claims)),
		Tables: []*stats.Table{t},
		Notes:  []string{fmt.Sprintf("corpus sizes: wild n=%d, office n=61, delay runs ~60 switches per mode", n)},
	}
}
