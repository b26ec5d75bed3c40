package stattest

// The statistical acceptance harness for the scenario engine: hundreds of
// generated scenarios run under fixed seeds, with distributional
// invariants asserted at explicit confidence levels. Nothing here is
// golden-file based — the point is that *any* corpus a scenario-v1 spec
// describes obeys the physics and distributions it declares:
//
//   - Gilbert–Elliott chains built from generated per-link parameters
//     reproduce the configured duty cycle and mean loss-burst length.
//   - Cross-link loss correlation stays in the paper's weak-correlation
//     regime (Fig. 4) over the full impairment mix.
//   - Arrival processes match their analytic inter-arrival CDFs
//     (exponential, two-phase hyperexponential) within DKW bands, and the
//     diurnal pattern concentrates arrivals in the high-rate half-period.
//   - Topology placements land in their declared regions with the
//     declared AP separation, uniformly.
//   - Categorical mixes (device classes, impairments) and severity draws
//     match their configured weights within Wilson/DKW bounds.
//
// Every test uses a fixed spec seed: a failure is reproducible, never
// flaky. Confidence levels are 0.999 or tighter so the suite's total
// false-alarm budget stays far below one in a thousand runs.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sim/rng"
)

func mustSpec(t *testing.T, doc string) *scenario.Spec {
	t.Helper()
	s, err := scenario.DecodeSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAcceptGilbertElliottBursts generates 120 scenarios with explicit GE
// parameter ranges and checks that chains built from the drawn per-link
// parameters reproduce (a) the configured Bad duty cycle and (b) the
// configured mean burst length, in aggregate across the corpus.
func TestAcceptGilbertElliottBursts(t *testing.T) {
	s := mustSpec(t, `{
	  "schema": "scenario-v1", "name": "accept-ge", "seed": 1001, "count": 120,
	  "corpus": {
	    "gilbert_elliott": {"good_ms": [500, 2000], "bad_ms": [100, 600], "depth_db": [20, 45]}
	  }
	}`)
	const (
		spacing = 20 * sim.Millisecond // VoIP packet spacing
		horizon = 600 * sim.Second     // per-scenario sampling horizon
	)
	var dutyRatios, burstRatios []float64
	for i := 0; i < s.Count; i++ {
		g := s.Generate(i)
		p := g.Scenario
		link := p.LinkA
		chain := phy.NewGilbertElliott(rng.Named(g.Seed, "stattest/ge"), link.FadeGood, link.FadeBad)

		samples := int(horizon / spacing)
		bad, bursts, burstLen, curLen := 0, 0, 0, 0
		prev := false
		for k := 0; k < samples; k++ {
			cur := chain.Bad(sim.Time(k) * sim.Time(spacing))
			if cur {
				bad++
				curLen++
			}
			if prev && !cur {
				bursts++
				burstLen += curLen
				curLen = 0
			}
			prev = cur
		}
		wantDuty := float64(link.FadeBad) / float64(link.FadeGood+link.FadeBad)
		dutyRatios = append(dutyRatios, float64(bad)/float64(samples)/wantDuty)
		if bursts >= 20 {
			wantBurst := float64(link.FadeBad) / float64(spacing)
			burstRatios = append(burstRatios, float64(burstLen)/float64(bursts)/wantBurst)
		}
	}

	// Duty cycle is unbiased up to the start-in-Good transient
	// (~cycle/horizon ≈ 0.4%); the 99.9% CI must cover 1.
	ci := MeanCI(dutyRatios, 0.999)
	if !ci.Contains(1) {
		t.Errorf("duty-cycle ratio CI %v excludes 1 (mean %.4f over %d scenarios)",
			ci, Mean(dutyRatios), len(dutyRatios))
	}
	// Sampling at 20 ms quantizes sojourns: observed burst length carries a
	// positive O(1-sample) bias, so the acceptance band is mean ratio in
	// [0.95, 1.20] — wide enough for the bias, far too tight for a wrong
	// sojourn distribution (uniform sojourns shift the ratio past 1.4).
	if len(burstRatios) < 100 {
		t.Fatalf("only %d scenarios yielded enough bursts", len(burstRatios))
	}
	if m := Mean(burstRatios); m < 0.95 || m > 1.20 {
		t.Errorf("mean burst-length ratio %.4f outside [0.95, 1.20] (n=%d)", m, len(burstRatios))
	}
}

// TestAcceptCrossLinkCorrelation runs 100 generated scenarios end to end
// as dual independent calls and asserts the cross-link loss correlation
// stays in the paper's weak-correlation regime (Fig. 4): the two links
// rarely lose the same packets, which is what makes duplication across
// links pay off.
func TestAcceptCrossLinkCorrelation(t *testing.T) {
	// Fig. 4 is measured on impaired links, so the corpus draws only the
	// four impaired classes, at elevated severity so both links see loss.
	s := mustSpec(t, `{
	  "schema": "scenario-v1", "name": "accept-corr", "seed": 2002, "count": 100,
	  "duration_s": 30,
	  "corpus": {
	    "severity": [1.5, 2.5],
	    "impairments": [
	      {"name": "weak-link", "weight": 1},
	      {"name": "mobility", "weight": 1},
	      {"name": "microwave", "weight": 1},
	      {"name": "congestion", "weight": 1}
	    ]
	  }
	}`)
	deadline := s.TrafficProfile().Deadline
	var corrs []float64
	defined := 0
	for i := 0; i < s.Count; i++ {
		g := s.Generate(i)
		dc := core.RunDualCall(g.Scenario)
		// A packet is lost if it misses the interactive deadline — the
		// paper's loss notion for Fig. 4.
		lateA := dc.TraceA.LostWithDeadline(deadline)
		lateB := dc.TraceB.LostWithDeadline(deadline)
		lossA := make([]float64, len(lateA))
		lossB := make([]float64, len(lateB))
		for seq := range lateA {
			if lateA[seq] {
				lossA[seq] = 1
			}
			if lateB[seq] {
				lossB[seq] = 1
			}
		}
		c := Corr(lossA, lossB)
		if math.IsNaN(c) {
			continue // a lossless link has no defined loss correlation
		}
		defined++
		corrs = append(corrs, c)
	}
	if defined < 30 {
		t.Fatalf("only %d/%d scenarios had loss on both links", defined, s.Count)
	}
	// Weak-correlation regime: the corpus-mean correlation is near zero.
	// The band [-0.10, 0.30] is the acceptance contract — microwave and
	// congestion scenarios couple the links slightly (shared interferer,
	// both-channel congestion), genuinely correlated losses (same-channel
	// fate sharing) would push the mean past 0.5.
	ci := MeanCI(corrs, 0.999)
	if ci.Lo < -0.10 || ci.Hi > 0.30 {
		t.Errorf("mean cross-link loss correlation CI %v outside weak regime [-0.10, 0.30] (n=%d)",
			ci, defined)
	}
}

// TestAcceptArrivalPatterns checks each arrival pattern's inter-arrival
// distribution against its analytic CDF with a DKW band at alpha = 0.001.
func TestAcceptArrivalPatterns(t *testing.T) {
	const n = 4000
	gaps := func(starts []sim.Duration) []float64 {
		out := make([]float64, 0, len(starts)-1)
		for i := 1; i < len(starts); i++ {
			out = append(out, (starts[i] - starts[i-1]).Seconds())
		}
		return out
	}
	specFor := func(pattern, extra string) string {
		return fmt.Sprintf(`{
		  "schema": "scenario-v1", "name": "accept-arrivals", "seed": 3003, "count": 2,
		  "corpus": {"arrivals": {"pattern": %q, "rate_per_min": 6%s}}
		}`, pattern, extra)
	}
	meanS := 10.0 // 6 calls/min

	t.Run("poisson", func(t *testing.T) {
		s := mustSpec(t, specFor("poisson", ""))
		xs := gaps(s.Arrivals(n))
		if d, eps := KSDistance(xs, ExpCDF(meanS)), DKWEpsilon(len(xs), 0.001); d > eps {
			t.Errorf("poisson inter-arrival KS %.4f > DKW %.4f", d, eps)
		}
	})
	t.Run("bursty", func(t *testing.T) {
		s := mustSpec(t, specFor("bursty", `, "burst_factor": 10, "burst_frac": 0.5`))
		xs := gaps(s.Arrivals(n))
		shortMean := meanS / 10
		longMean := (meanS - 0.5*shortMean) / 0.5
		if d, eps := KSDistance(xs, HyperExp2CDF(0.5, shortMean, longMean)), DKWEpsilon(len(xs), 0.001); d > eps {
			t.Errorf("bursty inter-arrival KS %.4f > DKW %.4f", d, eps)
		}
		// The burst mixture preserves the overall mean rate.
		if ci := MeanCI(xs, 0.999); !ci.Contains(meanS) {
			t.Errorf("bursty mean gap CI %v excludes the nominal %g s", ci, meanS)
		}
		// And it must NOT look exponential: a plain Poisson process at the
		// same rate is rejected, which is the whole point of the pattern.
		if d, eps := KSDistance(xs, ExpCDF(meanS)), DKWEpsilon(len(xs), 0.001); d <= eps {
			t.Errorf("bursty gaps indistinguishable from exponential (KS %.4f <= DKW %.4f)", d, eps)
		}
	})
	t.Run("diurnal", func(t *testing.T) {
		// Period 600 s at 60/min: ~600 arrivals per period, 12000 total
		// spans ~20 periods. Arrivals concentrate in the sin > 0 half: the
		// expected fraction is 1/2 + A/pi with A = (P-1)/(P+1).
		s := mustSpec(t, `{
		  "schema": "scenario-v1", "name": "accept-diurnal", "seed": 4004, "count": 2,
		  "corpus": {"arrivals": {"pattern": "diurnal", "rate_per_min": 60,
		    "peak_to_trough": 4, "period_s": 600}}
		}`)
		starts := s.Arrivals(12000)
		const period = 600.0
		// Truncate to whole periods so the phase fractions are exact.
		lastFull := math.Floor(starts[len(starts)-1].Seconds()/period) * period
		high, total := 0, 0
		for _, d := range starts {
			ts := d.Seconds()
			if ts >= lastFull {
				break
			}
			total++
			if math.Sin(2*math.Pi*ts/period) > 0 {
				high++
			}
		}
		amp := (4.0 - 1) / (4.0 + 1)
		wantFrac := 0.5 + amp/math.Pi
		if ci := PropCI(high, total, 0.999); !ci.Contains(wantFrac) {
			t.Errorf("diurnal high-phase fraction CI %v excludes %.4f (high %d / %d)",
				ci, wantFrac, high, total)
		}
	})
}

// TestAcceptTopologyPlacement generates 200 scenarios with explicit
// placement regions and checks the hard constraints (regions, minimum AP
// separation) plus uniformity of the client placement.
func TestAcceptTopologyPlacement(t *testing.T) {
	s := mustSpec(t, `{
	  "schema": "scenario-v1", "name": "accept-topo", "seed": 5005, "count": 200,
	  "corpus": {
	    "topology": {
	      "ap_a": {"x": [0, 5], "y": [0, 5]},
	      "ap_b": {"x": [25, 30], "y": [10, 15]},
	      "client": {"x": [0, 30], "y": [0, 15]},
	      "min_ap_separation_m": 20
	    }
	  }
	}`)
	var clientX []float64
	for i := 0; i < s.Count; i++ {
		p := s.Generate(i).Scenario
		if d := p.APA.DistanceTo(p.APB); d < 20 {
			t.Fatalf("scenario %d: AP separation %.2f m < 20 m", i, d)
		}
		if p.APA.X > 5 || p.APA.Y > 5 || p.APB.X < 25 || p.APB.Y < 10 {
			t.Fatalf("scenario %d: AP placement outside region: A=%+v B=%+v", i, p.APA, p.APB)
		}
		if !p.Mobile {
			clientX = append(clientX, p.ClientPos.X)
		}
	}
	if len(clientX) < 100 {
		t.Fatalf("only %d static-client scenarios", len(clientX))
	}
	if d, eps := KSDistance(clientX, UniformCDF(0, 30)), DKWEpsilon(len(clientX), 0.001); d > eps {
		t.Errorf("client X not uniform on [0, 30]: KS %.4f > DKW %.4f (n=%d)", d, eps, len(clientX))
	}
}

// TestAcceptMixesAndSeverity checks the categorical draws (device classes,
// impairment weights) against Wilson intervals and the severity draw
// against its declared uniform range, over 500 generated scenarios.
func TestAcceptMixesAndSeverity(t *testing.T) {
	s := mustSpec(t, `{
	  "schema": "scenario-v1", "name": "accept-mix", "seed": 6006, "count": 500,
	  "corpus": {
	    "impairments": [
	      {"name": "microwave", "weight": 2},
	      {"name": "congestion", "weight": 1},
	      {"name": "none", "weight": 1}
	    ],
	    "devices": [{"name": "pc", "weight": 0.7}, {"name": "mobile", "weight": 0.3}],
	    "severity": [0.5, 2]
	  }
	}`)
	pc, oven := 0, 0
	var sev []float64
	for i := 0; i < s.Count; i++ {
		m := s.MetaAt(i)
		if m.Device == "pc" {
			pc++
		}
		if m.Impairment == core.ImpMicrowave {
			oven++
		}
		sev = append(sev, m.Severity)
	}
	if ci := PropCI(pc, s.Count, 0.999); !ci.Contains(0.7) {
		t.Errorf("pc fraction CI %v excludes the configured 0.7 (%d/%d)", ci, pc, s.Count)
	}
	if ci := PropCI(oven, s.Count, 0.999); !ci.Contains(0.5) {
		t.Errorf("microwave fraction CI %v excludes the configured 0.5 (%d/%d)", ci, oven, s.Count)
	}
	if d, eps := KSDistance(sev, UniformCDF(0.5, 2)), DKWEpsilon(len(sev), 0.001); d > eps {
		t.Errorf("severity not uniform on [0.5, 2]: KS %.4f > DKW %.4f", d, eps)
	}
}
