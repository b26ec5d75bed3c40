package sweep

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// FleetTrace narrates the lease lifecycle as fleet-trace-v1 events
// (docs/OBSERVABILITY.md), feeding two independent consumers: the
// process's JSONL trace sink (when -trace is on) and the flight recorder
// ring (when -flight is on), so a postmortem dump carries the same typed
// records a full trace would.
//
// Field mapping: TUS is wall-clock microseconds since the emitting
// process's trace epoch (construction time); Run is "fleet/<hash8>" of
// the sweep spec, isolating fleet traffic from simulation runs sharing
// the sink; Node is the worker the event concerns (coordinator-emitted
// events carry the lease holder's name, so per-worker lanes reconstruct
// from either side); Seq is the numeric lease sequence; Detail is a k=v
// token list led by src=coord or src=worker — the analyzer's state
// machine trusts only the coordinator's narration.
//
// A nil *FleetTrace is the disabled state: every method no-ops without
// allocating, matching the internal/obs zero-cost contract.
type FleetTrace struct {
	mu    sync.Mutex
	reg   *obs.Registry
	rec   *flight.Recorder
	run   string
	src   string
	epoch time.Time
}

// NewFleetTrace returns a tracer emitting into reg's sink and/or rec, or
// nil (disabled) when both are absent. src is "coord" or "worker".
func NewFleetTrace(reg *obs.Registry, rec *flight.Recorder, specHash, src string) *FleetTrace {
	if !reg.Tracing() && rec == nil {
		return nil
	}
	hash8 := specHash
	if len(hash8) > 8 {
		hash8 = hash8[:8]
	}
	return &FleetTrace{reg: reg, rec: rec, run: "fleet/" + hash8, src: src,
		epoch: time.Now()}
}

// emit stamps and fans out one event. The mutex makes stamping and the
// sink write one atomic step: a worker's heartbeat goroutine and its
// lease loop share this tracer, and without the lock a later-stamped
// event could reach the sink first — tripping the analyzer's
// per-(run, node, src) ordering lint on a trace nothing was wrong with.
func (t *FleetTrace) emit(ev obs.Event) {
	t.mu.Lock()
	ev.TUS = time.Since(t.epoch).Microseconds()
	ev.Run = t.run
	t.rec.Record(ev)
	t.reg.Emit(ev)
	t.mu.Unlock()
}

// SpecFetch records a sweep spec served (coord) or fetched (worker).
func (t *FleetTrace) SpecFetch(node, hash string) {
	if t == nil {
		return
	}
	if len(hash) > 8 {
		hash = hash[:8]
	}
	t.emit(obs.Event{Ev: obs.EvSpecFetch, Node: node, Seq: -1,
		Detail: "src=" + t.src + " hash=" + hash})
}

// Grant records a span granted to a worker; reLease marks a grant from
// the requeue list. The TTL rides in dur_us.
func (t *FleetTrace) Grant(node string, seq int64, from, to int64, ttl time.Duration, reLease bool) {
	if t == nil {
		return
	}
	typ := obs.EvLeaseGrant
	if reLease {
		typ = obs.EvReLease
	}
	t.emit(obs.Event{Ev: typ, Node: node, Seq: int(seq), DurUS: ttl.Microseconds(),
		Detail: fmt.Sprintf("src=%s span=%d:%d", t.src, from, to)})
}

// Heartbeat records a keepalive: acked (ok) or for a dead lease (!ok) on
// the coordinator; sent on the worker.
func (t *FleetTrace) Heartbeat(node string, seq int64, ok bool) {
	if t == nil {
		return
	}
	t.emit(obs.Event{Ev: obs.EvFleetHeartbeat, Node: node, Seq: int(seq),
		Detail: fmt.Sprintf("src=%s ok=%t", t.src, ok)})
}

// Expire records a lease reaped (coord, reason "ttl" or "mismatch") or an
// expiry notification (worker).
func (t *FleetTrace) Expire(node string, seq int64, from, to int64, reason string) {
	if t == nil {
		return
	}
	t.emit(obs.Event{Ev: obs.EvLeaseExpire, Node: node, Seq: int(seq),
		Detail: fmt.Sprintf("src=%s span=%d:%d reason=%s", t.src, from, to, reason)})
}

// Complete records a lease report merged (coord) or sent (worker).
func (t *FleetTrace) Complete(node string, seq int64, from, to int64, executed, cached, failed int64) {
	if t == nil {
		return
	}
	t.emit(obs.Event{Ev: obs.EvLeaseComplete, Node: node, Seq: int(seq),
		Detail: fmt.Sprintf("src=%s span=%d:%d executed=%d cached=%d failed=%d",
			t.src, from, to, executed, cached, failed)})
}

// RejectStale records a posthumous completion report discarded (coord) or
// the notification of that discard (worker). The span is omitted: by the
// time a report is stale the coordinator no longer tracks its lease.
func (t *FleetTrace) RejectStale(node string, seq int64) {
	if t == nil {
		return
	}
	t.emit(obs.Event{Ev: obs.EvRejectStale, Node: node, Seq: int(seq),
		Detail: "src=" + t.src})
}

// leaseSeq parses a wire lease id ("L7") back to its sequence; -1 when
// the id is not in that form.
func leaseSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'L' {
		return -1
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return -1
	}
	return n
}
