package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TestParallelMapPreservesOrder: results come back in input order.
func TestParallelMapPreservesOrder(t *testing.T) {
	scens := BuildCorpus(CorpusWild, 16, 3, traffic.G711)
	seeds := parallelMap(scens, func(sc core.Scenario) int64 { return sc.Seed })
	for i, s := range seeds {
		if s != scens[i].Seed {
			t.Fatal("parallelMap scrambled results")
		}
	}
}

// TestParallelMapPreservesIntOrder: out[i] = f(items[i]) over an input many
// times longer than the worker count.
func TestParallelMapPreservesIntOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := parallelMap(items, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestParallelMapWorkerClamping: inputs shorter than, equal to and longer
// than the worker count all map in order.
func TestParallelMapWorkerClamping(t *testing.T) {
	for _, n := range []int{1, 2, 3, runtime.NumCPU(), runtime.NumCPU() + 1} {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		out := parallelMap(items, func(x int) int { return x + 1 })
		if len(out) != n {
			t.Fatalf("%d items: %d results", n, len(out))
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("%d items: out[%d] = %d, want %d", n, i, v, i+1)
			}
		}
	}
}

// TestParallelMapUsesAllItems: every item is mapped exactly once.
func TestParallelMapUsesAllItems(t *testing.T) {
	var calls atomic.Int32
	out := parallelMap(make([]struct{}, 17), func(struct{}) int {
		calls.Add(1)
		return 1
	})
	if len(out) != 17 || calls.Load() != 17 {
		t.Fatalf("len=%d calls=%d, want 17/17", len(out), calls.Load())
	}
}

// TestParallelMapBoundsConcurrency: no more than runtime.NumCPU() calls of
// f run at once.
func TestParallelMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	var mu sync.Mutex
	parallelMap(make([]int, 64), func(int) int {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		cur.Add(-1)
		return 0
	})
	if p, limit := peak.Load(), runtime.NumCPU(); int(p) > limit {
		t.Fatalf("observed %d concurrent calls, limit %d", p, limit)
	}
}

// TestParallelMapEmptyInput: an empty input maps to an empty output
// without calling f.
func TestParallelMapEmptyInput(t *testing.T) {
	out := parallelMap(nil, func(x int) int {
		t.Fatal("f called on empty input")
		return x
	})
	if len(out) != 0 {
		t.Fatalf("want empty output, got %v", out)
	}
}
