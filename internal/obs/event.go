package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Trace event types. Each names one packet-level process the DiversiFi
// evaluation hinges on; docs/OBSERVABILITY.md documents the fields each
// type carries, with a worked example per type.
const (
	// EvTx is one completed AP transmit chain for a stream packet:
	// delivered to a listening client, delivered while nobody listened
	// ("wasted"), or lost after the full retry chain.
	EvTx = "tx"
	// EvRetry is one failed MAC transmission attempt that will be retried.
	EvRetry = "retry"
	// EvDrop is a MAC-level frame loss: the retry chain exhausted without
	// an ACK.
	EvDrop = "drop"
	// EvHeadDrop is a PSM-buffer eviction or refusal at an AP: head-drop
	// evicts the oldest packet, tail-drop refuses the newcomer.
	EvHeadDrop = "head-drop"
	// EvLinkSwitch is a single-NIC client link switch (to the secondary
	// for recovery or keepalive, or back to the primary).
	EvLinkSwitch = "link-switch"
	// EvRetrieve is a missing packet successfully fetched from the
	// secondary link's network-side buffer.
	EvRetrieve = "retrieve-from-secondary"
	// EvPlayoutMiss is a packet that had not arrived by its playout
	// deadline (it may still arrive later; late arrivals are useless).
	EvPlayoutMiss = "playout-miss"
)

// EventTypes lists every valid simulation trace event type. Fleet
// lifecycle events (the fleet-trace-v1 family) are listed separately in
// FleetEventTypes; both families share the Event record and the strict
// decoder.
var EventTypes = []string{
	EvTx, EvRetry, EvDrop, EvHeadDrop, EvLinkSwitch, EvRetrieve, EvPlayoutMiss,
}

// fleet-trace-v1 event types. Each names one transition in the sweep
// coordinator's lease lifecycle (internal/sweep); docs/OBSERVABILITY.md
// documents the field mapping. Unlike simulation events, fleet events carry
// wall-clock timestamps (microseconds since the emitting process's trace
// epoch) and use Seq for the numeric lease sequence (lease "L7" → Seq 7;
// -1 for events not about one lease). Detail is a space-separated k=v
// token list; the src= token names the emitting side (coord or worker) —
// only src=coord events drive the lease lint, worker-side events are
// timeline annotations.
const (
	// EvSpecFetch is a spec served to (src=coord) or fetched by
	// (src=worker) a worker. Not lease-scoped: Seq is -1.
	EvSpecFetch = "spec-fetch"
	// EvLeaseGrant is a fresh span granted to a worker. DurUS carries the
	// lease TTL.
	EvLeaseGrant = "lease-grant"
	// EvFleetHeartbeat is a lease keepalive: received and acked
	// (src=coord ok=true), received for a dead lease (ok=false), or sent
	// (src=worker).
	EvFleetHeartbeat = "heartbeat"
	// EvLeaseExpire is a lease reaped by the coordinator (reason=ttl) or
	// invalidated by an unaccountable report (reason=mismatch); its span
	// returns to the requeue list. Workers emit it (src=worker) when
	// notified their lease died.
	EvLeaseExpire = "expire"
	// EvReLease is a previously-expired span granted again (possibly
	// split). DurUS carries the lease TTL.
	EvReLease = "re-lease"
	// EvLeaseComplete is a lease's report merged into the fleet aggregate.
	EvLeaseComplete = "complete"
	// EvRejectStale is a completion report for an expired lease, discarded
	// to keep the sharded-equals-single determinism contract.
	EvRejectStale = "reject-stale"
)

// FleetEventTypes lists every fleet-trace-v1 event type.
var FleetEventTypes = []string{
	EvSpecFetch, EvLeaseGrant, EvFleetHeartbeat, EvLeaseExpire,
	EvReLease, EvLeaseComplete, EvRejectStale,
}

// slo-trace-v1 event types. Each names one transition of a streaming SLO
// rule's alert state machine (internal/obs/slo); docs/OBSERVABILITY.md
// documents the field mapping. Timestamps are simulated microseconds (the
// window boundary that triggered the transition), Run is "slo/<hash8>" with
// the ruleset's canonical hash, Node is the rule name, Seq is the rule's
// 1-based episode counter (one episode = one pending→…→resolved arc), and
// Detail is a space-separated k=v token list led by src=slo carrying the
// observed value and threshold.
const (
	// EvSLOPending is a rule's threshold first crossed: the alert is
	// pending until the violation persists for the rule's `for` duration.
	EvSLOPending = "slo-pending"
	// EvSLOFiring is a pending alert whose violation persisted for the
	// full `for` duration. DurUS carries simulated time spent pending.
	EvSLOFiring = "slo-firing"
	// EvSLOResolved is a pending or firing alert whose signal returned
	// within threshold. DurUS carries simulated time since the episode's
	// pending transition.
	EvSLOResolved = "slo-resolved"
)

// SLOEventTypes lists every slo-trace-v1 event type.
var SLOEventTypes = []string{EvSLOPending, EvSLOFiring, EvSLOResolved}

// Detail values with fixed vocabularies (see docs/OBSERVABILITY.md).
const (
	// tx outcomes.
	TxDelivered = "delivered"
	TxWasted    = "wasted"
	TxLost      = "lost"
	// head-drop policies.
	DropEvictOldest  = "evict-oldest"
	DropRefuseNewest = "refuse-newest"
	// link-switch directions.
	SwitchToSecondary = "to-secondary"
	SwitchKeepalive   = "to-secondary-keepalive"
	SwitchToPrimary   = "to-primary"
)

// Event is one JSONL trace record. Field semantics:
//
//   - TUS: simulated timestamp, microseconds since simulation start.
//   - Ev: event type (one of EventTypes).
//   - Run: run label (e.g. "s42"), distinguishing interleaved simulations
//     when a corpus runs in parallel. Optional.
//   - Node: emitting component instance ("prim", "sec", "A", "client", ...).
//   - Seq: stream sequence number the event concerns; -1 when the event is
//     not about one specific packet (e.g. a MAC retry, which happens below
//     the layer that knows sequence numbers).
//   - Attempt: 1-based MAC attempt index (retry/drop) or total attempts
//     consumed (tx). Omitted when zero.
//   - DurUS: event-specific duration in microseconds (tx: airtime;
//     link-switch: switch cost; retrieve-from-secondary: delay from switch
//     initiation to retrieval). Omitted when zero.
//   - Detail: event-specific vocabulary word (see the constants above) or
//     free-form annotation (retry: the attempted PHY rate). Omitted when
//     empty.
type Event struct {
	TUS     int64  `json:"t_us"`
	Ev      string `json:"ev"`
	Run     string `json:"run,omitempty"`
	Node    string `json:"node,omitempty"`
	Seq     int    `json:"seq"`
	Attempt int    `json:"attempt,omitempty"`
	DurUS   int64  `json:"dur_us,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// SampleEvents returns one well-formed event of every type — the worked
// examples documented in docs/OBSERVABILITY.md — ordered as a coherent
// trace fragment (per-node timestamps non-decreasing, causes before
// effects), so it doubles as a seed corpus for trace tooling
// (internal/obs/analyze). The contract tests assert the events encode,
// decode, and validate exactly as documented. The slice is freshly
// allocated; callers may mutate it.
func SampleEvents() []Event {
	return []Event{
		{TUS: 1_020_113, Ev: EvRetry, Run: "s42", Node: "prim", Seq: -1, Attempt: 1, Detail: "rate=39.0Mbps"},
		{TUS: 1_023_456, Ev: EvTx, Run: "s42", Node: "prim", Seq: 51, Attempt: 2, DurUS: 652, Detail: TxDelivered},
		{TUS: 1_031_870, Ev: EvDrop, Run: "s42", Node: "prim", Seq: -1, Attempt: 7, Detail: "retry-limit"},
		{TUS: 2_400_000, Ev: EvHeadDrop, Run: "s42", Node: "sec", Seq: 117, Detail: DropEvictOldest},
		{TUS: 2_460_000, Ev: EvLinkSwitch, Run: "s42", Node: "client", Seq: 123, DurUS: 2800, Detail: SwitchToSecondary},
		{TUS: 2_471_300, Ev: EvRetrieve, Run: "s42", Node: "client", Seq: 123, DurUS: 11_300},
		{TUS: 2_650_000, Ev: EvPlayoutMiss, Run: "s42", Node: "client", Seq: 124},
	}
}

// SampleFleetEvents returns one well-formed fleet-trace-v1 event of every
// type, ordered as one coherent lease episode: worker w0 fetches the spec
// and is granted lease L1, heartbeats it once, dies; the coordinator
// expires L1 and re-leases its span to w1 as L2, which completes; w0's
// posthumous report is rejected as stale. Per-(run, node) timestamps are
// non-decreasing, so the fragment passes the ordering lint. Freshly
// allocated; callers may mutate it.
func SampleFleetEvents() []Event {
	run := "fleet/1a2b3c4d"
	return []Event{
		{TUS: 0, Ev: EvSpecFetch, Run: run, Node: "w0", Seq: -1, Detail: "src=coord hash=1a2b3c4d"},
		{TUS: 180, Ev: EvLeaseGrant, Run: run, Node: "w0", Seq: 1, DurUS: 2_000_000, Detail: "src=coord span=0:64"},
		{TUS: 650_000, Ev: EvFleetHeartbeat, Run: run, Node: "w0", Seq: 1, Detail: "src=coord ok=true"},
		{TUS: 2_650_400, Ev: EvLeaseExpire, Run: run, Node: "w0", Seq: 1, Detail: "src=coord span=0:64 reason=ttl"},
		{TUS: 2_651_000, Ev: EvReLease, Run: run, Node: "w1", Seq: 2, DurUS: 2_000_000, Detail: "src=coord span=0:64"},
		{TUS: 3_900_000, Ev: EvLeaseComplete, Run: run, Node: "w1", Seq: 2, Detail: "src=coord span=0:64 executed=64 cached=0 failed=0"},
		{TUS: 4_010_000, Ev: EvRejectStale, Run: run, Node: "w0", Seq: 1, Detail: "src=coord"},
	}
}

// SampleSLOEvents returns one well-formed slo-trace-v1 event of every
// type, ordered as one coherent alert episode: the mos-floor rule crosses
// its threshold at 3 s, fires after its 2 s `for` duration, and resolves
// at 9 s. Freshly allocated; callers may mutate it.
func SampleSLOEvents() []Event {
	run := "slo/9f8e7d6c"
	return []Event{
		{TUS: 3_000_000, Ev: EvSLOPending, Run: run, Node: "mos-floor", Seq: 1, Detail: "src=slo value=3.41 min=3.60"},
		{TUS: 5_000_000, Ev: EvSLOFiring, Run: run, Node: "mos-floor", Seq: 1, DurUS: 2_000_000, Detail: "src=slo value=3.22 min=3.60"},
		{TUS: 9_000_000, Ev: EvSLOResolved, Run: run, Node: "mos-floor", Seq: 1, DurUS: 6_000_000, Detail: "src=slo value=3.78 min=3.60"},
	}
}

// Validate checks ev against the documented schema: a known type, a
// non-negative timestamp, and the per-type required fields. It returns nil
// for conforming events.
func (ev Event) Validate() error {
	if ev.TUS < 0 {
		return fmt.Errorf("obs: event %q: negative timestamp %d", ev.Ev, ev.TUS)
	}
	requireNode := func() error {
		if ev.Node == "" {
			return fmt.Errorf("obs: %s event missing node", ev.Ev)
		}
		return nil
	}
	requireSeq := func() error {
		if ev.Seq < 0 {
			return fmt.Errorf("obs: %s event missing seq", ev.Ev)
		}
		return nil
	}
	oneOf := func(allowed ...string) error {
		for _, a := range allowed {
			if ev.Detail == a {
				return nil
			}
		}
		return fmt.Errorf("obs: %s event detail %q not in %v", ev.Ev, ev.Detail, allowed)
	}
	switch ev.Ev {
	case EvTx:
		if err := requireNode(); err != nil {
			return err
		}
		if err := requireSeq(); err != nil {
			return err
		}
		if ev.Attempt < 1 {
			return fmt.Errorf("obs: tx event needs attempt >= 1, got %d", ev.Attempt)
		}
		return oneOf(TxDelivered, TxWasted, TxLost)
	case EvRetry, EvDrop:
		if err := requireNode(); err != nil {
			return err
		}
		if ev.Attempt < 1 {
			return fmt.Errorf("obs: %s event needs attempt >= 1, got %d", ev.Ev, ev.Attempt)
		}
		return nil
	case EvHeadDrop:
		if err := requireNode(); err != nil {
			return err
		}
		if err := requireSeq(); err != nil {
			return err
		}
		return oneOf(DropEvictOldest, DropRefuseNewest)
	case EvLinkSwitch:
		if err := requireNode(); err != nil {
			return err
		}
		return oneOf(SwitchToSecondary, SwitchKeepalive, SwitchToPrimary)
	case EvRetrieve:
		if err := requireNode(); err != nil {
			return err
		}
		return requireSeq()
	case EvPlayoutMiss:
		if err := requireNode(); err != nil {
			return err
		}
		return requireSeq()
	case EvSLOPending, EvSLOFiring, EvSLOResolved:
		// Node is the rule name, Seq the 1-based episode counter.
		if err := requireNode(); err != nil {
			return err
		}
		if ev.Seq < 1 {
			return fmt.Errorf("obs: %s event needs episode seq >= 1, got %d", ev.Ev, ev.Seq)
		}
		return nil
	case EvSpecFetch:
		// Not lease-scoped; only the worker/coordinator node is required.
		return requireNode()
	case EvLeaseGrant, EvFleetHeartbeat, EvLeaseExpire, EvReLease,
		EvLeaseComplete, EvRejectStale:
		if err := requireNode(); err != nil {
			return err
		}
		return requireSeq()
	default:
		return fmt.Errorf("obs: unknown event type %q", ev.Ev)
	}
}

// DecodeEvent parses one JSONL trace line strictly: unknown fields and
// anything but whitespace after the event are errors, and the decoded event
// must pass Validate. This is the function trace-consuming tooling (and the
// contract tests) use, so a trace that decodes here is guaranteed to match
// docs/OBSERVABILITY.md.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return Event{}, fmt.Errorf("obs: decode trace line: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Event{}, fmt.Errorf("obs: decode trace line: trailing content after the event")
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	return ev, nil
}
