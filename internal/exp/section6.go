package exp

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// officeRuns executes the §6 evaluation corpus once: for each of the n
// office scenarios, a single-NIC DiversiFi call plus a two-NIC reference
// run providing the primary-alone and secondary-alone baselines (the paper
// interleaved single-link runs the same way).
type officeRuns struct {
	duals []core.DualCall
	divs  []core.DiversiFiResult
}

func runOffice(n int, seed int64, opts core.DiversiFiOptions) officeRuns {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.G711)
	return officeRuns{
		duals: RunDualCorpus(scens),
		divs:  RunDiversiFiCorpus(scens, opts),
	}
}

// Figure8 compares worst-5s loss CDFs for the primary link alone, the
// secondary alone, and single-NIC DiversiFi (61 runs).
func Figure8(n int, seed int64) *Result {
	runs := runOffice(n, seed, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	deadline := traffic.G711.Deadline

	series := map[string][]float64{}
	for _, d := range runs.duals {
		series["primary"] = append(series["primary"], worstWindowPct(d.Stronger(), deadline))
		series["secondary"] = append(series["secondary"], worstWindowPct(d.WeakerTrace(), deadline))
	}
	var pcrP, pcrS, pcrD []voip.Quality
	for _, d := range runs.duals {
		pcrP = append(pcrP, voip.Assess(d.Stronger(), traffic.G711))
		pcrS = append(pcrS, voip.Assess(d.WeakerTrace(), traffic.G711))
	}
	for _, r := range runs.divs {
		series["diversifi"] = append(series["diversifi"], worstWindowPct(r.Trace, deadline))
		pcrD = append(pcrD, voip.Assess(r.Trace, traffic.G711))
	}
	tables, plot := cdfSummary("Figure 8", []string{"diversifi", "primary", "secondary"}, series)
	pcr := stats.NewTable("PCR over the evaluation runs", "receiver", "PCR %", "paper %")
	pcr.AddRow("primary alone", fmt.Sprintf("%.1f", 100*voip.PCR(pcrP)), "4.9")
	pcr.AddRow("secondary alone", fmt.Sprintf("%.1f", 100*voip.PCR(pcrS)), "26.2")
	pcr.AddRow("DiversiFi", fmt.Sprintf("%.1f", 100*voip.PCR(pcrD)), "0")
	tables = append(tables, pcr)
	return &Result{
		ID:     "fig8",
		Title:  "Single-NIC DiversiFi loss recovery (§6.2)",
		Tables: tables,
		Plots:  []string{plot},
		Notes: []string{
			fmt.Sprintf("n=%d office runs, customized secondary AP (head-drop, queue=5)", n),
			"paper p90 worst-5s loss: primary 11.6%, secondary 52%, DiversiFi 1.2%",
		},
	}
}

// Figure9 compares loss-burst distributions for the primary, secondary,
// and DiversiFi over the same runs.
func Figure9(n int, seed int64) *Result {
	runs := runOffice(n, seed, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	deadline := traffic.G711.Deadline
	hP := stats.NewBurstHistogram(nil, 10)
	hS := stats.NewBurstHistogram(nil, 10)
	hD := stats.NewBurstHistogram(nil, 10)
	for _, d := range runs.duals {
		hP.Merge(stats.NewBurstHistogram(d.Stronger().LostWithDeadline(deadline), 10))
		hS.Merge(stats.NewBurstHistogram(d.WeakerTrace().LostWithDeadline(deadline), 10))
	}
	for _, r := range runs.divs {
		hD.Merge(stats.NewBurstHistogram(r.Trace.LostWithDeadline(deadline), 10))
	}
	nf := len(runs.duals)
	t := stats.NewTable("Figure 9: average loss-burst counts per call",
		"burst length", "primary", "secondary", "diversifi")
	p, s, d := hP.AverageCounts(nf), hS.AverageCounts(nf), hD.AverageCounts(len(runs.divs))
	for i := 0; i <= 10; i++ {
		label := fmt.Sprintf("%d", i+1)
		if i == 10 {
			label = ">10"
		}
		t.AddRow(label, fmt.Sprintf("%.2f", p[i]), fmt.Sprintf("%.2f", s[i]), fmt.Sprintf("%.2f", d[i]))
	}
	sum := stats.NewTable("Per-call loss summary", "receiver", "lost/call", "in bursts/call", "paper lost", "paper bursts")
	sum.AddRow("primary", fmt.Sprintf("%.1f", float64(hP.TotalLost())/float64(nf)),
		fmt.Sprintf("%.1f", float64(hP.LostInBursts())/float64(nf)), "44.3", "35.9")
	sum.AddRow("diversifi", fmt.Sprintf("%.1f", float64(hD.TotalLost())/float64(len(runs.divs))),
		fmt.Sprintf("%.1f", float64(hD.LostInBursts())/float64(len(runs.divs))), "2.7", "0.9")
	return &Result{
		ID:     "fig9",
		Title:  "DiversiFi burst-loss suppression (§6.2)",
		Tables: []*stats.Table{sum, t},
	}
}

// Overhead reports §6.3's duplication-overhead accounting.
func Overhead(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.G711)
	divs := RunDiversiFiCorpus(scens, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	duals := RunDualCorpus(scens)
	deadline := traffic.G711.Deadline

	var primLoss, residLoss, waste float64
	var recovered, losses int
	for i, r := range divs {
		primLoss += stats.LossRate(duals[i].Stronger().LostWithDeadline(deadline))
		residLoss += stats.LossRate(r.Trace.LostWithDeadline(deadline))
		waste += r.WastefulRate
		recovered += r.Client.Recovered
		losses += r.Client.LossesDetected
	}
	nf := float64(len(divs))
	t := stats.NewTable("§6.3: duplication overhead and residual loss", "metric", "measured", "paper")
	t.AddRow("primary-alone loss", fmt.Sprintf("%.2f%%", 100*primLoss/nf), "1.97%")
	t.AddRow("DiversiFi residual loss", fmt.Sprintf("%.3f%%", 100*residLoss/nf), "0.05%")
	t.AddRow("wasteful duplication", fmt.Sprintf("%.2f%%", 100*waste/nf), "0.62%")
	t.AddRow("losses detected (total)", fmt.Sprintf("%d", losses), "-")
	t.AddRow("recovered via secondary", fmt.Sprintf("%d", recovered), "-")
	return &Result{
		ID:     "overhead",
		Title:  "Duplication overhead and fairness (§6.3)",
		Tables: []*stats.Table{t},
		Notes:  []string{"naive duplication would transmit ~100% extra; DiversiFi transmits ≪1% wastefully"},
	}
}

// Figure10 runs the TCP-coexistence experiment: the difference in iperf
// throughput with DiversiFi off vs on, over n paired runs.
func Figure10(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.G711)
	type pair struct{ with, without, absent float64 }
	pairs := parallelMap(scens, func(sc core.Scenario) pair {
		w, wo, af := core.TCPCoexistence(sc)
		return pair{w, wo, af}
	})
	var diffs []float64
	var sumW, sumWo, sumAbsent float64
	for _, p := range pairs {
		diffs = append(diffs, p.without-p.with) // positive = DiversiFi cost
		sumW += p.with
		sumWo += p.without
		sumAbsent += p.absent
	}
	cdfPts := stats.NewCDF(diffs).Points(21)
	t := stats.SeriesTable("Figure 10: CDF of TCP throughput difference (kbps, primary-alone minus DiversiFi)",
		"diff kbps", map[string][]stats.Point{"cdf": cdfPts}, []string{"cdf"})
	sum := stats.NewTable("Summary", "metric", "measured", "paper")
	sum.AddRow("mean TCP with DiversiFi", fmt.Sprintf("%.2f Mbps", sumW/float64(n)/1000), "3.9 Mbps")
	sum.AddRow("mean TCP without", fmt.Sprintf("%.2f Mbps", sumWo/float64(n)/1000), "4.0 Mbps")
	deg := 100 * (sumWo - sumW) / sumWo
	sum.AddRow("mean degradation (noisy)", fmt.Sprintf("%.1f%%", deg), "2.5%")
	pure := 100 * sumAbsent / float64(len(pairs)) * traffic.DefaultTCPConfig().AbsencePenalty
	sum.AddRow("switching-attributable cost", fmt.Sprintf("%.2f%%", pure), "-")
	return &Result{
		ID:     "fig10",
		Title:  "Impact on competing TCP traffic (§6.3)",
		Tables: []*stats.Table{sum, t},
		Notes:  []string{"differences distribute around zero: channel switching barely perturbs TCP"},
	}
}

// Table3 measures the delay to collect a buffered packet via the secondary
// link, for AP buffering vs middlebox buffering.
func Table3(seed int64) *Result {
	// A controlled lab link with a lossy primary generates many recovery
	// switches; collect at least 100 per mode as the paper does.
	collect := func(mode core.DiversiFiMode) []sim.Duration {
		var delays []sim.Duration
		for i := int64(0); len(delays) < 100 && i < 12; i++ {
			sc := core.ControlledScenario(seed+i, traffic.G711, 2*sim.Minute, 0, 0).
				WithFading(true, 1500*sim.Millisecond, 30*sim.Millisecond, 60)
			r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: mode})
			for _, ev := range r.Recoveries {
				delays = append(delays, ev.Total)
			}
		}
		return delays
	}
	meanMs := func(ds []sim.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var sum sim.Duration
		for _, d := range ds {
			sum += d
		}
		return float64(sum) / float64(len(ds)) / 1000
	}
	apDelays := collect(core.ModeCustomAP)
	mbDelays := collect(core.ModeMiddlebox)

	switching := (2300 * sim.Microsecond).Milliseconds() // measured NIC retune
	apTotal := meanMs(apDelays)
	mbTotal := meanMs(mbDelays)
	t := stats.NewTable("Table 3: delay (ms) to collect a buffered packet on the secondary link",
		"scheme", "total", "switching", "network", "queuing", "paper total")
	apNet := apTotal - switching
	t.AddRow("AP", fmt.Sprintf("%.1f", apTotal), fmt.Sprintf("%.1f", switching),
		fmt.Sprintf("%.1f", apNet), "-", "2.8")
	mbQueue := 0.9 // middlebox service time at zero load
	mbNet := mbTotal - switching - mbQueue
	t.AddRow("Middlebox", fmt.Sprintf("%.1f", mbTotal), fmt.Sprintf("%.1f", switching),
		fmt.Sprintf("%.1f", mbNet), fmt.Sprintf("%.1f", mbQueue), "5.2")
	return &Result{
		ID:     "table3",
		Title:  "Secondary-link recovery delay: AP vs middlebox (§6.4)",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("AP: %d switches measured; middlebox: %d", len(apDelays), len(mbDelays)),
			"paper: AP 2.8 (2.3 switch + 0.5 net); middlebox 5.2 (2.3 + 2 + 0.9)",
		},
	}
}

// MiddleboxScaling measures recovery delay as the middlebox serves 0–1000
// concurrent streams (§6.4).
func MiddleboxScaling(seed int64) *Result {
	t := stats.NewTable("§6.4: middlebox recovery delay vs concurrent streams",
		"streams", "mean delay ms", "delta vs idle ms", "service delay ms (exact)")
	var base float64
	for _, load := range []int{0, 100, 250, 500, 750, 1000} {
		var delays []sim.Duration
		for i := int64(0); len(delays) < 200 && i < 20; i++ {
			sc := core.ControlledScenario(seed+i, traffic.G711, time90s(), 0, 0).
				WithFading(true, 1500*sim.Millisecond, 30*sim.Millisecond, 60)
			r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeMiddlebox, MiddleboxLoad: load})
			for _, ev := range r.Recoveries {
				delays = append(delays, ev.Total)
			}
		}
		var sum sim.Duration
		for _, d := range delays {
			sum += d
		}
		mean := float64(sum) / float64(len(delays)) / 1000
		if load == 0 {
			base = mean
		}
		service := 0.9 + 1.1*float64(load)/1000
		t.AddRow(fmt.Sprintf("%d", load), fmt.Sprintf("%.2f", mean),
			fmt.Sprintf("%+.2f", mean-base), fmt.Sprintf("%.2f", service))
	}
	return &Result{
		ID:     "mbscale",
		Title:  "Middlebox scalability (§6.4)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"paper: +1.1 ms at 1000 streams — a single middlebox serves a large deployment",
			"the exact per-request service delay grows linearly; the end-to-end mean adds MAC/backoff noise",
		},
	}
}

func time90s() sim.Duration { return 90 * sim.Second }

// clientConfigWith is a helper for ablations that tweak Algorithm 1.
func clientConfigWith(f func(*client.Config)) client.Config {
	var cfg client.Config
	f(&cfg)
	return cfg
}

// diversifiWorst runs DiversiFi over the office corpus with opts and
// returns per-call worst-5s loss percentages plus mean wasteful rate.
func diversifiWorst(n int, seed int64, opts core.DiversiFiOptions) (worst []float64, waste float64, resid float64) {
	scens := BuildCorpus(CorpusOffice, n, seed, traffic.G711)
	divs := RunDiversiFiCorpus(scens, opts)
	deadline := traffic.G711.Deadline
	for _, r := range divs {
		worst = append(worst, worstWindowPct(r.Trace, deadline))
		waste += r.WastefulRate
		resid += stats.LossRate(r.Trace.LostWithDeadline(deadline))
	}
	waste /= float64(len(divs))
	resid /= float64(len(divs))
	return worst, waste, resid
}
