package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// arrivals copies what a trace recorded: each packet's arrival time, then
// the duplicate count.
func arrivals(tr *trace.Trace) []sim.Time {
	out := make([]sim.Time, 0, tr.Len()+1)
	for seq := 0; seq < tr.Len(); seq++ {
		out = append(out, tr.ArrivalTime(seq))
	}
	return append(out, sim.Time(tr.Duplicates()))
}

// callRun is one call of TestRecycledWorldsMatchFresh: it runs the call,
// copies out everything its result holds and releases the result.
type callRun struct {
	name string
	run  func() any
}

// dualRun and dvfRun run a dual call and a DiversiFi call.
func dualRun(sc Scenario) func() any {
	return func() any {
		d := RunDualCall(sc)
		defer d.Release()
		return []any{d.Scenario, arrivals(d.TraceA), arrivals(d.TraceB), d.RSSIA, d.RSSIB,
			slices.Clone(d.RSSISeriesA), slices.Clone(d.RSSISeriesB)}
	}
}

func dvfRun(sc Scenario, opts DiversiFiOptions) func() any {
	return func() any {
		r := RunDiversiFi(sc, opts)
		defer r.Release()
		v := r
		v.Trace = nil
		v.Recoveries, v.Absences = slices.Clone(r.Recoveries), slices.Clone(r.Absences)
		return []any{v, arrivals(r.Trace)}
	}
}

// TestRecycledWorldsMatchFresh runs calls whose worlds (simulator, links,
// APs, wires, client, source) and results (traces, RSSI series, logs) take
// the storage earlier calls released: 120 s and 7 s calls across the
// impairments, as dual calls and as DiversiFi calls in every mode and with
// the full association, one after another and then from four goroutines
// at once. Each must equal its run right after two collections, which
// empty every pool, so that run builds its world afresh.
func TestRecycledWorldsMatchFresh(t *testing.T) {
	var calls []callRun
	for i, imp := range AllImpairments {
		seed := int64(20 + i)
		long := RandomScenario(rng.New(seed), imp, traffic.G711, seed)
		for _, sc := range []Scenario{long, long.WithDuration(7 * sim.Second)} {
			tag := fmt.Sprintf("%v %v", imp, sc.Duration)
			calls = append(calls, callRun{tag + " dual", dualRun(sc)})
			for _, mode := range []DiversiFiMode{ModeCustomAP, ModeMiddlebox, ModeStockAP} {
				calls = append(calls, callRun{tag + " " + mode.String(), dvfRun(sc, DiversiFiOptions{Mode: mode})})
			}
			calls = append(calls, callRun{tag + " full-association",
				dvfRun(sc, DiversiFiOptions{Mode: ModeCustomAP, FullAssociation: true})})
		}
	}

	want := make([]any, len(calls))
	for i, c := range calls {
		runtime.GC() // two collections empty a sync.Pool
		runtime.GC()
		want[i] = c.run()
	}
	for i, c := range calls {
		if got := c.run(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("serial: %s on a recycled world differs from a fresh one", c.name)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				i := (g + k) % len(calls)
				if got := calls[i].run(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s on a recycled world differs from a fresh one", g, calls[i].name)
				}
			}
		}()
	}
	wg.Wait()
}
