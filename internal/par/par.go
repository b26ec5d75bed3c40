// Package par provides the bounded worker pool the experiment corpus
// runner (internal/exp) maps simulator calls over scenario slices with:
// results in input order, a bounded number of workers, and safe behaviour
// on empty input. Fleets of whole jobs run on the sweep engine
// (internal/sweep) instead.
package par

import (
	"runtime"
	"sync"
)

// Map runs f over every item using up to runtime.NumCPU() workers and
// returns the results in input order.
func Map[I, O any](items []I, f func(I) O) []O {
	return MapN(items, runtime.NumCPU(), f)
}

// MapN runs f over every item with at most workers concurrent goroutines.
// Results preserve input order: out[i] = f(items[i]). The worker count is
// clamped to [1, len(items)], so any value (including zero or negative)
// is safe. An empty input returns an empty slice without spawning any
// goroutine. f must be safe to call concurrently from multiple
// goroutines.
func MapN[I, O any](items []I, workers int, f func(I) O) []O {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = f(items[i])
			}
		}()
	}
	for i := range items {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}
