package analyze

// Episode kinds.
const (
	// EpisodeRecovery is a loss-triggered secondary visit.
	EpisodeRecovery = "recovery"
	// EpisodeKeepalive is a periodic association-keepalive visit.
	EpisodeKeepalive = "keepalive"
)

// Episode is one reconstructed secondary visit: the span from the client's
// link-switch away from the primary to its switch back, with the Table 3
// delay decomposition. Durations are -1 when the trace does not determine
// them (no matching loss for detect, no retrieval, episode unclosed).
type Episode struct {
	Run  string `json:"run,omitempty"`
	Kind string `json:"kind"`
	// Line is the 1-based trace line of the opening link-switch.
	Line    int64 `json:"line"`
	StartUS int64 `json:"start_us"`
	// EndUS is the switch back to the primary; -1 if the episode never
	// closed before end of trace.
	EndUS int64 `json:"end_us"`
	// TriggerSeq is the sequence number whose loss planned the visit
	// (recovery episodes; -1 for keepalives).
	TriggerSeq int `json:"trigger_seq"`
	// DetectUS is trigger tx-lost → switch initiation: the loss-detection
	// plus visit-planning wait.
	DetectUS int64 `json:"detect_us"`
	// SwitchUS is the link-switch cost (the switch event's dur_us).
	SwitchUS int64 `json:"switch_us"`
	// RetrieveUS is switch-completion → first retrieval.
	RetrieveUS int64 `json:"retrieve_us"`
	// TotalUS is switch initiation → first retrieval — Table 3's "total",
	// identically the client.recovery_delay_us observation (= SwitchUS +
	// RetrieveUS).
	TotalUS int64 `json:"total_us"`
	// Retrieved counts packets recovered during the visit.
	Retrieved int `json:"retrieved"`
}

// Violation is one lint finding, anchored to a 1-based trace line.
type Violation struct {
	Line int64  `json:"line"`
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// DelayStats accumulates a set of microsecond delays.
type DelayStats struct {
	Count int64 `json:"count"`
	MinUS int64 `json:"min_us"`
	MaxUS int64 `json:"max_us"`
	SumUS int64 `json:"sum_us"`
}

func (d *DelayStats) observe(v int64) {
	if d.Count == 0 || v < d.MinUS {
		d.MinUS = v
	}
	if d.Count == 0 || v > d.MaxUS {
		d.MaxUS = v
	}
	d.Count++
	d.SumUS += v
}

// MeanUS returns the mean delay, or 0 when empty.
func (d DelayStats) MeanUS() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.SumUS) / float64(d.Count)
}

// LinkStats aggregates one (run, node) pair's transmit outcomes, loss-burst
// structure, and head-drop churn. A loss burst is a maximal run of
// consecutive lost tx events uninterrupted by a delivered or wasted tx on
// the same node.
type LinkStats struct {
	TxDelivered    int64 `json:"tx_delivered"`
	TxWasted       int64 `json:"tx_wasted"`
	TxLost         int64 `json:"tx_lost"`
	Retries        int64 `json:"retries"`
	Drops          int64 `json:"drops"`
	HeadDropEvict  int64 `json:"head_drop_evict"`
	HeadDropRefuse int64 `json:"head_drop_refuse"`
	LossBursts     int64 `json:"loss_bursts"`
	MaxBurst       int64 `json:"max_burst"`

	curBurst int64
}

// endBurst closes the running loss burst, if any.
func (ls *LinkStats) endBurst() {
	if ls.curBurst > 0 {
		ls.LossBursts++
		ls.curBurst = 0
	}
}

// MeanBurst returns the mean loss-burst length, or 0 when there were none.
func (ls *LinkStats) MeanBurst() float64 {
	if ls.LossBursts == 0 {
		return 0
	}
	return float64(ls.TxLost) / float64(ls.LossBursts)
}

// TracePoint is one fixed window of simulated time with per-event-type
// counts (tx events are additionally counted under "tx:<detail>"). The
// trace-derived counterpart of an obs.SeriesPoint.
type TracePoint struct {
	StartUS int64            `json:"start_us"`
	EndUS   int64            `json:"end_us"`
	Counts  map[string]int64 `json:"counts"`
}

// Report is the whole-trace report of one analysis pass: its totals,
// windows and findings cover every family, while its episode, delay and
// link fields are the packet family's.
type Report struct {
	Lines  int64 `json:"lines"`
	Blank  int64 `json:"blank"`
	Events int64 `json:"events"`
	// Runs lists the distinct run labels seen, sorted.
	Runs []string `json:"runs"`
	// FirstUS/LastUS span the event timestamps (-1 when no events).
	FirstUS int64            `json:"first_us"`
	LastUS  int64            `json:"last_us"`
	ByType  map[string]int64 `json:"by_type"`

	// Episode accounting. Recoveries and Keepalives count episode *opens*,
	// matching the client.recovery_switches / client.keepalive_switches
	// counters; Unclosed counts episodes still open at end of trace.
	Recoveries    int64 `json:"recoveries"`
	Keepalives    int64 `json:"keepalives"`
	Unclosed      int64 `json:"unclosed"`
	Retrieved     int64 `json:"retrieved"`
	PlayoutMisses int64 `json:"playout_misses"`
	// RecoveryDelay aggregates TotalUS over recovery episodes that
	// retrieved at least one packet — the trace-side reconstruction of the
	// client.recovery_delay_us histogram.
	RecoveryDelay DelayStats `json:"recovery_delay"`
	// DetectDelay aggregates DetectUS over recovery episodes whose trigger
	// loss was found in the trace.
	DetectDelay DelayStats `json:"detect_delay"`

	// Links maps each packet node's "run/node" (or "node" for unlabelled
	// traces) to its accumulated stats.
	Links map[string]*LinkStats `json:"links"`
	// Episodes holds every reconstructed episode when
	// Options.KeepEpisodes is set.
	Episodes []Episode `json:"episodes,omitempty"`
	// Points holds the windowed event counts when Options.WindowUS > 0.
	Points []TracePoint `json:"points,omitempty"`

	// Violations holds up to Options.MaxViolations findings of every
	// family, in line order; TotalViolations counts all of them.
	Violations      []Violation `json:"violations"`
	TotalViolations int64       `json:"total_violations"`
}

// Clean reports whether the trace passed every lint check.
func (r *Report) Clean() bool { return r.TotalViolations == 0 }
