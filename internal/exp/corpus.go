// Package exp implements every experiment in the paper's evaluation: one
// function per table and figure, each returning both rendered tables and
// raw series. The benchmark harness (bench_test.go) and the experiments
// CLI (cmd/experiments) are thin wrappers over this package.
package exp

import (
	"runtime"
	"sync"

	"repro/internal/sim/rng"

	"repro/internal/core"
	"repro/internal/traffic"
)

// CorpusKind selects which of the paper's two measurement corpora to
// emulate.
type CorpusKind int

const (
	// CorpusWild is the §4 corpus: 458 two-NIC calls gathered "in the
	// wild" (offices, serviced apartments, downtown, a conference),
	// including deliberately challenging situations.
	CorpusWild CorpusKind = iota
	// CorpusOffice is the §6 corpus: 61 runs in one office building with
	// generally decent links.
	CorpusOffice
)

// wildMix is the impairment mix of the wild corpus. The paper does not
// give exact proportions; these reflect its description ("a variety of
// locations … various challenging situations").
var wildMix = []struct {
	imp  core.Impairment
	frac float64
}{
	{core.ImpNone, 0.30},
	{core.ImpWeakLink, 0.20},
	{core.ImpMobility, 0.15},
	{core.ImpMicrowave, 0.15},
	{core.ImpCongestion, 0.20},
}

// officeMix reflects the §6 office deployment: mostly healthy links with
// occasional trouble.
var officeMix = []struct {
	imp  core.Impairment
	frac float64
}{
	{core.ImpNone, 0.65},
	{core.ImpWeakLink, 0.10},
	{core.ImpMobility, 0.05},
	{core.ImpCongestion, 0.20},
}

// BuildCorpus draws n scenarios of the given kind. seed fixes both the
// scenario draws and each call's per-run randomness.
func BuildCorpus(kind CorpusKind, n int, seed int64, profile traffic.Profile) []core.Scenario {
	rng := rng.New(seed)
	mix := wildMix
	if kind == CorpusOffice {
		mix = officeMix
	}
	severity := 1.0
	if kind == CorpusOffice {
		severity = 0.5
	}
	out := make([]core.Scenario, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		imp := mix[len(mix)-1].imp
		acc := 0.0
		for _, m := range mix {
			acc += m.frac
			if r < acc {
				imp = m.imp
				break
			}
		}
		out = append(out, core.RandomScenarioSeverity(rng, imp, profile, seed*1_000_003+int64(i), severity))
	}
	return out
}

// ImpairmentCorpus draws n scenarios all of one impairment class (for the
// per-impairment breakdown of Figure 6).
func ImpairmentCorpus(imp core.Impairment, n int, seed int64, profile traffic.Profile) []core.Scenario {
	rng := rng.New(seed)
	out := make([]core.Scenario, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, core.RandomScenario(rng, imp, profile, seed*2_000_003+int64(i)))
	}
	return out
}

// parallelMap runs f over every item on up to runtime.NumCPU() goroutines
// and returns the results in input order: out[i] = f(items[i]). An empty
// input starts no goroutine. f must be safe to call concurrently; a
// simulated call owns its own simulator, so every corpus runner's is.
func parallelMap[I, O any](items []I, f func(I) O) []O {
	out := make([]O, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.NumCPU(), len(items)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = f(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// RunDualCorpus executes two-NIC calls for every scenario in parallel.
func RunDualCorpus(scenarios []core.Scenario) []core.DualCall {
	return parallelMap(scenarios, core.RunDualCall)
}

// RunDiversiFiCorpus executes single-NIC DiversiFi calls in parallel.
func RunDiversiFiCorpus(scenarios []core.Scenario, opts core.DiversiFiOptions) []core.DiversiFiResult {
	return parallelMap(scenarios, func(sc core.Scenario) core.DiversiFiResult {
		return core.RunDiversiFi(sc, opts)
	})
}
