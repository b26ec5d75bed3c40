package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run: its parent is the
// span that caused it (0 for a root), times are nanoseconds since the
// recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the timed (untraced) runs stay free of
// tracing cost beyond a nil check.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span identifier, so children can name their parent
// before the parent span ends.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records span id, running from start until now.
func (r *recorder) add(id, parent int64, name string, start time.Time) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// timed runs fn inside a new span and returns the span's identifier.
func (r *recorder) timed(parent int64, name string, fn func()) int64 {
	if r == nil {
		fn()
		return 0
	}
	id := r.id()
	start := time.Now()
	fn()
	r.add(id, parent, name, start)
	return id
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to the span. Children may overlap
// each other (parallel work under one parent) without being counted twice.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		flush()
		self[s.ID] = s.dur() - covered
	}
	return self
}

// durations returns the durations, in nanoseconds, of every span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}
