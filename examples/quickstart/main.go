// Quickstart: simulate one VoIP call over a flaky WiFi link, first with
// plain single-link reception and then with DiversiFi's single-NIC
// cross-link recovery, and compare what the listener would have heard.
package main

import (
	"fmt"
	"repro/internal/sim/rng"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/voip"
)

func main() {
	// A randomly placed client in the paper's 30 m × 15 m office with a
	// weak-link impairment: both APs reachable, neither great.
	rng := rng.New(2016)
	scenario := core.RandomScenario(rng, core.ImpWeakLink, traffic.G711, 2016)

	// Baseline: associate with the stronger AP and hope for the best.
	dual := core.RunDualCall(scenario)
	baseline := voip.Assess(dual.Stronger(), traffic.G711)

	// DiversiFi: same client, same radio environment, but the secondary
	// AP keeps a 5-deep head-drop buffer and the client fetches exactly
	// the packets the primary lost (Algorithm 1).
	result := core.RunDiversiFi(scenario, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	diversifi := voip.Assess(result.Trace, traffic.G711)

	deadline := traffic.G711.Deadline
	fmt.Println("DiversiFi quickstart — one 2-minute G.711 call, weak links")
	fmt.Println()
	fmt.Printf("%-22s %12s %12s\n", "", "baseline", "DiversiFi")
	row := func(label string, b, d string) { fmt.Printf("%-22s %12s %12s\n", label, b, d) }
	row("loss rate",
		fmt.Sprintf("%.2f%%", 100*stats.LossRate(dual.Stronger().LostWithDeadline(deadline))),
		fmt.Sprintf("%.2f%%", 100*stats.LossRate(result.Trace.LostWithDeadline(deadline))))
	row("worst 5s loss",
		fmt.Sprintf("%.1f%%", 100*baseline.WorstWindowLoss),
		fmt.Sprintf("%.1f%%", 100*diversifi.WorstWindowLoss))
	row("MOS", fmt.Sprintf("%.2f", baseline.MOS), fmt.Sprintf("%.2f", diversifi.MOS))
	row("poor call?", yesNo(baseline.Poor), yesNo(diversifi.Poor))
	fmt.Println()
	fmt.Printf("DiversiFi recovered %d of %d detected losses via the secondary AP,\n",
		result.Client.Recovered, result.Client.LossesDetected)
	fmt.Printf("switching links %d times and wasting only %.2f%% of transmissions.\n",
		result.Client.RecoverySwitches, 100*result.WastefulRate)
	fmt.Printf("Mean recovery delay: %s.\n", meanDelay(result.Recoveries))
}

func yesNo(b bool) string {
	if b {
		return "YES"
	}
	return "no"
}

func meanDelay(evs []client.RecoveryEvent) string {
	if len(evs) == 0 {
		return "n/a"
	}
	var sum sim.Duration
	for _, ev := range evs {
		sum += ev.Total
	}
	return fmt.Sprintf("%.1f ms", float64(sum)/float64(len(evs))/1000)
}
