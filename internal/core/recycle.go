package core

import (
	"sync"

	"repro/internal/client"
)

// slicePool recycles the storage of one kind of result slice: a result's
// Release puts its slices back, and the run functions take their next
// result's storage from the pool.
type slicePool[T any] struct{ p sync.Pool }

// take returns a slice of length n on released storage when a long enough
// one is pooled, and on fresh storage otherwise.
func (sp *slicePool[T]) take(n int) []T {
	if b, _ := sp.p.Get().(*[]T); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]T, n)
}

// put hands s's storage to the pool; nothing may read s afterwards.
func (sp *slicePool[T]) put(s []T) {
	if cap(s) > 0 {
		s = s[:0]
		sp.p.Put(&s)
	}
}

// keep returns s for a result to hold: s itself, or nil when s is empty,
// so an empty log reads as it does without recycling and its storage goes
// back to the pool.
func (sp *slicePool[T]) keep(s []T) []T {
	if len(s) == 0 {
		sp.put(s)
		return nil
	}
	return s
}

// The storage of what results own besides their traces.
var (
	rssiSeries   slicePool[float64]
	recoveryLogs slicePool[client.RecoveryEvent]
	absenceLogs  slicePool[client.Interval]
)
