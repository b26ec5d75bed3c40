// Package repro's benchmarks time every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`): each BenchmarkTableN /
// BenchmarkFigureN target executes the corresponding experiment end to end
// on a reduced corpus. They report time and allocations only; the
// experiments' numbers come from cmd/experiments, and the benchmark of
// record is bench/ (see bench/README.md). Whole calls and the trace and
// statistics helpers are timed here too; the substrate micro-benchmarks
// live in their own packages.
package repro

import (
	"repro/internal/sim/rng"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// benchN is the corpus size used by corpus-driven benches: large enough
// for stable shapes, small enough to keep a full -bench=. run fast.
const benchN = 24

const benchSeed = 42

// --- §3: Tables 1 & 2, Figure 1 -------------------------------------------

func BenchmarkTable1_VoIPServicePCR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table1(benchSeed)
		if len(r.Tables[0].Rows) != 4 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkTable2_NetTestPCR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table2(benchSeed)
		if len(r.Tables) != 2 {
			b.Fatal("table 2 incomplete")
		}
	}
}

func BenchmarkFigure1_BSSIDSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Figure1(benchSeed)
		if len(r.Tables) != 2 {
			b.Fatal("figure 1 incomplete")
		}
	}
}

// --- §4: Figures 2–6 -------------------------------------------------------

func BenchmarkFigure2a_SelectionVsCrossLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure2a(benchN, benchSeed)
	}
}

func BenchmarkFigure2b_Divert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure2b(benchN, benchSeed)
	}
}

func BenchmarkFigure2c_Temporal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure2c(benchN, benchSeed)
	}
}

func BenchmarkFigure2d_MIMO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure2d(benchN, benchSeed)
	}
}

func BenchmarkFigure2e_HighRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure2e(8, benchSeed) // 5 Mbps calls are 12.5x the packets
	}
}

func BenchmarkFigure3_WeakLinkTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure3(benchSeed)
	}
}

func BenchmarkFigure4_Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure4(benchN, benchSeed)
	}
}

func BenchmarkFigure5_BurstLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure5(benchN, benchSeed)
	}
}

func BenchmarkFigure6_PCRByImpairment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure6(8, benchSeed)
	}
}

// --- §6: Figures 8–10, Table 3, scaling, overhead --------------------------

func BenchmarkFigure8_DiversiFiLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure8(benchN, benchSeed)
	}
}

func BenchmarkFigure9_DiversiFiBursts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure9(benchN, benchSeed)
	}
}

func BenchmarkFigure10_TCPCoexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure10(12, benchSeed)
	}
}

func BenchmarkTable3_RecoveryDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Table3(benchSeed)
		if len(r.Tables[0].Rows) != 2 {
			b.Fatal("table 3 incomplete")
		}
	}
}

func BenchmarkMiddleboxScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.MiddleboxScaling(benchSeed)
	}
}

func BenchmarkDuplicationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Overhead(benchN, benchSeed)
	}
}

// --- Ablations (design choices of §5) ---------------------------------------

func BenchmarkAblationQueuePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationQueuePolicy(10, benchSeed)
	}
}

func BenchmarkAblationQueueSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationQueueSize(8, benchSeed)
	}
}

func BenchmarkAblationSwitchTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationSwitchTiming(8, benchSeed)
	}
}

func BenchmarkAblationKeepalive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationKeepalive(8, benchSeed)
	}
}

func BenchmarkAblationPLT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationPLT(8, benchSeed)
	}
}

func BenchmarkAblationPlayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationPlayout(8, benchSeed)
	}
}

func BenchmarkAblationHWBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationHWBatch(8, benchSeed)
	}
}

func BenchmarkAblationBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationBackoff(8, benchSeed)
	}
}

func BenchmarkExtensionUplink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Uplink(8, benchSeed)
	}
}

func BenchmarkExtensionFEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.FECComparison(10, benchSeed)
	}
}

func BenchmarkExtensionLinkCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.DiversityVsLinks(10, benchSeed)
	}
}

func BenchmarkExtensionEDCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.EDCA(8, benchSeed)
	}
}

func BenchmarkExtensionHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Handoff(10, benchSeed)
	}
}

// --- Whole calls and the trace and statistics helpers -----------------------

func BenchmarkFullDualCall(b *testing.B) {
	rng := rng.New(4)
	sc := core.RandomScenario(rng, core.ImpWeakLink, traffic.G711, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.RunDualCall(sc)
		if d.TraceA.Len() != 6000 {
			b.Fatal("short call")
		}
	}
}

func BenchmarkFullDiversiFiCall(b *testing.B) {
	rng := rng.New(5)
	sc := core.RandomScenario(rng, core.ImpWeakLink, traffic.G711, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	}
}

func BenchmarkTraceMerge(b *testing.B) {
	mk := func(seed int64) *trace.Trace {
		tr := trace.New(6000, 0, 20*sim.Millisecond)
		rng := rng.New(seed)
		for i := 0; i < 6000; i++ {
			at := sim.Time(i) * sim.Time(20*sim.Millisecond)
			if rng.Float64() > 0.02 {
				tr.RecordArrival(i, at.Add(5*sim.Millisecond))
			}
		}
		return tr
	}
	a, c := mk(1), mk(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Merge(a, c)
	}
}

func BenchmarkWorstWindow(b *testing.B) {
	lost := make([]bool, 6000)
	rng := rng.New(6)
	for i := range lost {
		lost[i] = rng.Float64() < 0.05
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.WorstWindowRate(lost, 250)
	}
}

func BenchmarkCDFPercentiles(b *testing.B) {
	rng := rng.New(7)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := stats.NewCDF(xs)
		c.Percentile(90)
	}
}
