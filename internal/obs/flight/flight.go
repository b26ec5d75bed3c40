// Package flight is the fleet plane's postmortem buffer: a bounded
// ring of typed obs.Event records that costs nothing until something goes
// wrong. Components record their last-N lifecycle events into a Recorder
// as they happen; on a panic, a per-job timeout, or a lease expiry the
// owner dumps the ring as a standard JSONL trace that every existing
// trace consumer (tracetool lint/episodes/export, internal/obs/analyze)
// understands — a flight recorder in the avionics sense.
//
// The zero-cost contract matches the rest of internal/obs: every method
// is safe on a nil *Recorder and a nil receiver allocates nothing (the
// disabled path is a single pointer check, asserted by an
// AllocsPerRun test). An enabled Recorder never allocates on Record
// either — the ring is preallocated at construction and events are
// stored by value — so recording is safe inside hot per-job loops.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// DefaultCapacity is the ring size when the capacity is unspecified: big
// enough to hold several lease lifecycles of fleet events or the tail of
// a job's simulation events, small enough to stay resident per process.
const DefaultCapacity = 256

// Recorder is a bounded ring of the most recent events and the directory
// its dumps land in. All methods are goroutine-safe and safe on a nil
// receiver (the disabled state).
type Recorder struct {
	dir   string
	mu    sync.Mutex
	buf   []obs.Event // ring storage, preallocated to fixed capacity
	next  int         // write index once the ring is full (= oldest entry)
	total int64       // lifetime Record count (>= len(buf))
}

// New returns a Recorder holding the last capacity events (DefaultCapacity
// if capacity <= 0) that dumps into dir.
func New(dir string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{dir: dir, buf: make([]obs.Event, 0, capacity)}
}

// Record stores one event, evicting the oldest when full. No-op (and
// alloc-free) on a nil Recorder.
func (r *Recorder) Record(ev obs.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
		}
	}
	r.total++
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total reports the lifetime number of recorded events (evicted included).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap reports the ring capacity (0 when disabled).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Events returns the retained events oldest-first, as a fresh slice.
func (r *Recorder) Events() []obs.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// WriteJSONL writes the retained events oldest-first as JSONL — the same
// wire format obs.Sink produces, so a dump is a valid trace file.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("flight: encode event: %w", err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("flight: write dump: %w", err)
		}
	}
	return nil
}

// Dump writes the ring to flight-<tag>.jsonl in the Recorder's directory
// and returns the path.
// The tag is sanitized to a filename-safe token; an existing file gets a
// -2, -3, ... suffix rather than being overwritten, so repeated failures
// each keep their postmortem. Returns ("", nil) on a nil Recorder — a
// disabled flight recorder has nothing to say.
func (r *Recorder) Dump(tag string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	base := "flight-" + sanitizeTag(tag)
	for n := 1; ; n++ {
		name := base
		if n > 1 {
			name = fmt.Sprintf("%s-%d", base, n)
		}
		path := filepath.Join(r.dir, name+".jsonl")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("flight: %w", err)
		}
		if err := r.WriteJSONL(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", fmt.Errorf("flight: %w", err)
		}
		return path, nil
	}
}

// sanitizeTag maps an arbitrary tag to [a-zA-Z0-9._-]+ so lease IDs, job
// keys, and worker names can all be dump tags.
func sanitizeTag(tag string) string {
	if tag == "" {
		return "dump"
	}
	out := make([]byte, 0, len(tag))
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
