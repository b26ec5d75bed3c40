package exp

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/voip"
)

// AblationQueuePolicy compares head-drop vs tail-drop secondary buffering —
// the design change §5.3.1 argues for.
func AblationQueuePolicy(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: secondary AP queue policy",
		"policy", "p90 worst-5s loss %", "wasteful dup %", "residual loss %")
	for _, cfg := range []struct {
		name  string
		mode  core.DiversiFiMode // the custom AP head-drops, the stock one tail-drops
		depth int
	}{
		{"head-drop q=5 (DiversiFi)", core.ModeCustomAP, 5},
		{"tail-drop q=5", core.ModeStockAP, 5},
		{"tail-drop q=64 (stock)", core.ModeStockAP, 64},
		{"head-drop q=64", core.ModeCustomAP, 64},
	} {
		worst, waste, resid := diversifiWorst(n, seed, core.DiversiFiOptions{Mode: cfg.mode, SecondaryQueue: cfg.depth})
		t.AddRow(cfg.name,
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)),
			fmt.Sprintf("%.2f", 100*waste),
			fmt.Sprintf("%.3f", 100*resid))
	}
	return &Result{
		ID:     "ablation-queue-policy",
		Title:  "Queue policy at the secondary AP (§5.3.1)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"tail-drop with a deep queue buries the packet the client came for behind a stale backlog;",
			"head-drop with a shallow queue keeps exactly the recent packets recovery needs",
		},
	}
}

// AblationQueueSize sweeps the secondary buffer depth.
func AblationQueueSize(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: secondary buffer depth",
		"depth", "p90 worst-5s loss %", "wasteful dup %", "residual loss %")
	for _, depth := range []int{1, 2, 3, 5, 8, 16, 64} {
		worst, waste, resid := diversifiWorst(n, seed, core.DiversiFiOptions{
			Mode:           core.ModeCustomAP,
			SecondaryQueue: depth,
		})
		t.AddRow(fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)),
			fmt.Sprintf("%.2f", 100*waste),
			fmt.Sprintf("%.3f", 100*resid))
	}
	return &Result{
		ID:     "ablation-queue-size",
		Title:  "Secondary buffer depth (Deadline/Spacing = 5 for G.711)",
		Tables: []*stats.Table{t},
		Notes:  []string{"too shallow evicts packets before the client can fetch them; too deep adds waste"},
	}
}

// AblationSwitchTiming compares the just-in-time wake (implicit packet
// selection, §5.2.5) against switching immediately on loss detection.
func AblationSwitchTiming(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: when to switch to the secondary",
		"strategy", "p90 worst-5s loss %", "wasteful dup %", "residual loss %")
	for _, cfg := range []struct {
		name   string
		margin int
	}{
		{"just-in-time (head margin 1)", 1},
		{"head margin 2", 2},
		{"head margin 3", 3},
		{"immediately on detection", 4}, // arrives ~4 slots early: everything still queued
	} {
		worst, waste, resid := diversifiWorst(n, seed, core.DiversiFiOptions{
			Mode: core.ModeCustomAP,
			ClientConfig: clientConfigWith(func(c *client.Config) {
				c.HeadMargin = cfg.margin
			}),
		})
		t.AddRow(cfg.name,
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)),
			fmt.Sprintf("%.2f", 100*waste),
			fmt.Sprintf("%.3f", 100*resid))
	}
	return &Result{
		ID:     "ablation-switch-timing",
		Title:  "Implicit packet selection via wake timing (§5.2.5)",
		Tables: []*stats.Table{t},
		Notes:  []string{"arriving earlier retrieves more already-received packets — pure duplication overhead"},
	}
}

// AblationKeepalive sweeps the association keepalive period.
func AblationKeepalive(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: association keepalive period (AKT)",
		"AKT", "wasteful dup %", "p90 worst-5s loss %")
	for _, akt := range []sim.Duration{5 * sim.Second, 10 * sim.Second, 30 * sim.Second, 60 * sim.Second} {
		worst, waste, _ := diversifiWorst(n, seed, core.DiversiFiOptions{
			Mode: core.ModeCustomAP,
			ClientConfig: clientConfigWith(func(c *client.Config) {
				c.AKT = akt
			}),
		})
		t.AddRow(fmt.Sprintf("%.0fs", akt.Seconds()),
			fmt.Sprintf("%.2f", 100*waste),
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)))
	}
	return &Result{
		ID:     "ablation-keepalive",
		Title:  "Keepalive period vs overhead (Algorithm 1, AKT = 30 s)",
		Tables: []*stats.Table{t},
		Notes:  []string{"shorter keepalives burn airtime on stale flushes without improving loss"},
	}
}

// AblationPLT sweeps the packet-loss timeout.
func AblationPLT(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: PacketLossTimeout (multiples of the 20 ms spacing)",
		"PLT", "p90 worst-5s loss %", "residual loss %", "recovery switches/call")
	for _, mult := range []int{1, 2, 3, 4} {
		opts := core.DiversiFiOptions{
			Mode: core.ModeCustomAP,
			ClientConfig: clientConfigWith(func(c *client.Config) {
				c.PLTMultiple = mult
			}),
		}
		scens := BuildCorpus(CorpusOffice, n, seed, profileG711())
		divs := RunDiversiFiCorpus(scens, opts)
		var worst []float64
		var resid float64
		switches := 0
		for _, r := range divs {
			worst = append(worst, worstWindowPct(r.Trace, profileG711().Deadline))
			resid += stats.LossRate(r.Trace.LostWithDeadline(profileG711().Deadline))
			switches += r.Client.RecoverySwitches
		}
		t.AddRow(fmt.Sprintf("%dx", mult),
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)),
			fmt.Sprintf("%.3f", 100*resid/float64(len(divs))),
			fmt.Sprintf("%.1f", float64(switches)/float64(len(divs))))
	}
	return &Result{
		ID:     "ablation-plt",
		Title:  "Loss-detection timeout (Algorithm 1, PLT = 2×IPS)",
		Tables: []*stats.Table{t},
		Notes:  []string{"a hair-trigger PLT switches on reordering/jitter; a slow one eats into the recovery deadline"},
	}
}

// AblationPlayout sweeps the receiver's playout (jitter-buffer) delay:
// deeper buffers absorb recovery latency but add mouth-to-ear delay, which
// the E-model penalises. The call traces are computed once; only the
// scoring changes per setting.
func AblationPlayout(n int, seed int64) *Result {
	scens := BuildCorpus(CorpusOffice, n, seed, profileG711())
	divs := RunDiversiFiCorpus(scens, core.DiversiFiOptions{Mode: core.ModeCustomAP})

	t := stats.NewTable("Ablation: playout delay vs call quality (DiversiFi calls)",
		"playout", "mean MOS", "PCR %")
	orig := voip.PlayoutDelay
	defer func() { voip.PlayoutDelay = orig }()
	for _, d := range []sim.Duration{60 * sim.Millisecond, 80 * sim.Millisecond,
		100 * sim.Millisecond, 120 * sim.Millisecond, 150 * sim.Millisecond} {
		voip.PlayoutDelay = d
		var qs []voip.Quality
		var mos float64
		for _, r := range divs {
			q := voip.Assess(r.Trace, profileG711())
			qs = append(qs, q)
			mos += q.MOS
		}
		t.AddRow(fmt.Sprintf("%.0fms", d.Milliseconds()),
			fmt.Sprintf("%.2f", mos/float64(len(qs))),
			fmt.Sprintf("%.1f", 100*voip.PCR(qs)))
	}
	return &Result{
		ID:     "ablation-playout",
		Title:  "Playout-buffer depth (MaxTolerableDelay companion)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"shallow buffers turn recovery latency into late loss; deep ones trade it for delay impairment",
		},
	}
}

// AblationHWBatch sweeps the AP's hardware commit batch — the mechanism
// behind the residual duplication of §5.3.1: frames handed to the NIC in
// one go transmit even after the client leaves.
func AblationHWBatch(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: AP hardware commit batch",
		"batch", "wasteful dup %", "residual loss %", "p90 worst-5s loss %")
	for _, batch := range []int{1, 2, 4, 8} {
		worst, waste, resid := diversifiWorst(n, seed, core.DiversiFiOptions{
			Mode:             core.ModeCustomAP,
			SecondaryHWBatch: batch,
		})
		t.AddRow(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.2f", 100*waste),
			fmt.Sprintf("%.3f", 100*resid),
			fmt.Sprintf("%.1f", stats.Percentile(worst, 90)))
	}
	return &Result{
		ID:     "ablation-hwbatch",
		Title:  "Hardware-queue commit batch vs duplication (§5.3.1)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"larger batches commit more frames the departing client will never hear — pure waste",
		},
	}
}

// AblationBackoff measures the futile-visit backoff extension in the two
// regimes that matter: a dead secondary (backoff prevents thrashing) and a
// merely weak secondary (backoff can suppress genuine recoveries). The
// default of 3 futile visits + 5 s suspension is a compromise.
func AblationBackoff(n int, seed int64) *Result {
	t := stats.NewTable("Ablation: futile-visit backoff",
		"corpus", "backoff", "mean worst-5s loss %", "recovery switches/call")
	runCorpus := func(label string, scens []core.Scenario) {
		for _, cfg := range []struct {
			name    string
			backoff int
		}{
			{"disabled", -1},
			{"3 visits (default)", 3},
		} {
			divs := RunDiversiFiCorpus(scens, core.DiversiFiOptions{
				Mode: core.ModeCustomAP,
				ClientConfig: clientConfigWith(func(c *client.Config) {
					c.BackoffAfter = cfg.backoff
				}),
			})
			var worst []float64
			total := 0
			for _, r := range divs {
				worst = append(worst, worstWindowPct(r.Trace, profileG711().Deadline))
				total += r.Client.RecoverySwitches
			}
			t.AddRow(label, cfg.name,
				fmt.Sprintf("%.1f", stats.Mean(worst)),
				fmt.Sprintf("%.0f", float64(total)/float64(len(divs))))
		}
	}
	// Regime 1: fading primary, dead secondary — every visit is futile.
	var dead []core.Scenario
	for i := 0; i < n; i++ {
		dead = append(dead, core.ControlledScenario(seed+int64(i), profileG711(), sim.Minute, 0, 55).
			WithFading(true, 900*sim.Millisecond, 80*sim.Millisecond, 60))
	}
	runCorpus("dead secondary", dead)
	// Regime 2: both links weak but alive — visits sometimes pay off.
	runCorpus("weak secondary", ImpairmentCorpus(core.ImpWeakLink, n, seed, profileG711()))
	return &Result{
		ID:     "ablation-backoff",
		Title:  "Futile-visit backoff (implementation extension)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"with a dead secondary, thrashing delays primary traffic and backoff pays off;",
			"with a weak-but-alive secondary, suppression forfeits some recoveries — the",
			"5-second suspension is the compromise between the two regimes",
		},
	}
}
