package campaign

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// StatusSchema versions the /campaign/status JSON document.
const StatusSchema = "campaign-status-v1"

// Job statuses as a StatusSnapshot's Recent records report them.
const (
	StatusOK     = "ok"     // executed this run
	StatusCached = "cached" // served from the result cache
	StatusFailed = "failed" // failed after its retry
)

// ActiveJob is one in-flight lease in a StatusSnapshot, named by its
// first job: the experiment id, or the sweep cell. N is an experiment's
// corpus size (0 otherwise).
type ActiveJob struct {
	ID        string `json:"id"`
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// JobRecord is one completed lease in a StatusSnapshot, named like
// ActiveJob; ElapsedMS is wall clock from grant to completion.
type JobRecord struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// StatusSnapshot is the JSON document the sweep coordinator serves at
// /campaign/status: fleet totals, in-flight leases, recently completed
// leases, and derived throughput. Schema documented in
// docs/OBSERVABILITY.md ("Live endpoints").
type StatusSnapshot struct {
	Schema  string `json:"schema"`
	Running bool   `json:"running"`
	Workers int    `json:"workers"`

	Total    int `json:"total"`
	Done     int `json:"done"`
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	Retries  int `json:"retries"`

	// Active leases, longest-running first. Recent holds the last
	// completed leases, most recent first (at most 16).
	Active []ActiveJob `json:"active,omitempty"`
	Recent []JobRecord `json:"recent,omitempty"`

	ElapsedMS  int64   `json:"elapsed_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// ETAMS extrapolates the remaining wall clock from the finish rate so
	// far; -1 before the first job finishes.
	ETAMS int64 `json:"eta_ms"`
	// Per-job wall-clock percentiles over finished jobs (zero until one
	// finishes), mirroring the summary fields. Sketch-backed (relative
	// error ≤ 1 %), so they stay cheap at fleet scale.
	ElapsedP50MS  int64 `json:"elapsed_p50_ms"`
	ElapsedP95MS  int64 `json:"elapsed_p95_ms"`
	ElapsedP99MS  int64 `json:"elapsed_p99_ms"`
	ElapsedP999MS int64 `json:"elapsed_p999_ms,omitempty"`

	// Sketch telemetry: how many metric digests the merged aggregate holds
	// (cells × metric keys, plus timing) and their total bucket count —
	// the aggregate's memory driver.
	MetricSketches int `json:"metric_sketches,omitempty"`
	SketchBuckets  int `json:"sketch_buckets,omitempty"`

	// Fleet is the per-worker view: lease counts, completed jobs, and
	// liveness derived from heartbeat recency.
	Fleet []WorkerStatus `json:"fleet,omitempty"`
}

// WorkerStatus is one sweep worker's row in the fleet view, built from the
// lease reports the coordinator accepted for it (sweep-proto-v5): lease
// accounting, job counters, the elapsed p50 from the worker's own digest,
// the coordinator's straggler verdict (worker p50 far above the sweep's
// p50; see docs/FLEET.md for the thresholds), and the worker's streaming
// SLO alert state from its latest report when it runs with -slo.
type WorkerStatus struct {
	Name       string `json:"name"`
	JobsDone   int64  `json:"jobs_done"`
	Leases     int    `json:"active_leases"`
	LastSeenMS int64  `json:"last_seen_ms"`
	Alive      bool   `json:"alive"`

	Executed     int64 `json:"executed,omitempty"`
	Cached       int64 `json:"cached,omitempty"`
	Failed       int64 `json:"failed,omitempty"`
	Samples      int64 `json:"samples,omitempty"`
	ElapsedP50MS int64 `json:"elapsed_p50_ms,omitempty"`
	Straggler    bool  `json:"straggler,omitempty"`

	// SLO alert state: SLOArmed marks a worker running a streaming SLO
	// engine; Pending/Firing are its alert counts as of its latest report
	// and Fired the cumulative episodes that reached firing
	// (internal/obs/slo).
	SLOArmed   bool  `json:"slo_armed,omitempty"`
	SLOPending int64 `json:"slo_pending,omitempty"`
	SLOFiring  int64 `json:"slo_firing,omitempty"`
	SLOFired   int64 `json:"slo_fired,omitempty"`
}

// Text renders a snapshot as the terminal table `campaign watch` draws.
func (snap *StatusSnapshot) Text() string {
	t := stats.NewTable("Campaign fleet", "metric", "value")
	state := "running"
	if !snap.Running {
		state = "finished"
	}
	t.AddRow("state", state)
	t.AddRow("progress", progressBar(snap.Done, snap.Total))
	t.AddRow("executed / cached / failed", fmt.Sprintf("%d / %d / %d", snap.Executed, snap.Cached, snap.Failed))
	t.AddRow("retries", fmt.Sprintf("%d", snap.Retries))
	t.AddRow("workers", fmt.Sprintf("%d", snap.Workers))
	t.AddRow("elapsed", (time.Duration(snap.ElapsedMS) * time.Millisecond).Round(time.Second).String())
	t.AddRow("jobs/sec", fmt.Sprintf("%.2f", snap.JobsPerSec))
	eta := "n/a"
	if snap.ETAMS >= 0 {
		eta = (time.Duration(snap.ETAMS) * time.Millisecond).Round(time.Second).String()
	}
	t.AddRow("eta", eta)
	if snap.Executed+snap.Failed > 0 {
		t.AddRow("job elapsed p50/p95/p99/p999", fmt.Sprintf("%dms / %dms / %dms / %dms",
			snap.ElapsedP50MS, snap.ElapsedP95MS, snap.ElapsedP99MS, snap.ElapsedP999MS))
	}
	if snap.MetricSketches > 0 {
		t.AddRow("metric sketches / buckets", fmt.Sprintf("%d / %d", snap.MetricSketches, snap.SketchBuckets))
	}
	out := t.String()
	if len(snap.Fleet) > 0 {
		f := stats.NewTable("Fleet workers", "worker", "jobs done", "leases",
			"exec/cache/fail", "p50", "alerts", "last seen", "state")
		for _, w := range snap.Fleet {
			state := "alive"
			if !w.Alive {
				state = "DEAD"
			}
			if w.Straggler {
				state += " STRAGGLER"
			}
			p50 := "-"
			if w.Samples > 0 {
				p50 = fmt.Sprintf("%dms", w.ElapsedP50MS)
			}
			// alerts is pending/firing now, plus lifetime fired episodes.
			alerts := "-"
			if w.SLOArmed {
				alerts = fmt.Sprintf("%dp/%df (%d fired)", w.SLOPending, w.SLOFiring, w.SLOFired)
			}
			f.AddRow(w.Name, fmt.Sprintf("%d", w.JobsDone), fmt.Sprintf("%d", w.Leases),
				fmt.Sprintf("%d/%d/%d", w.Executed, w.Cached, w.Failed), p50, alerts,
				(time.Duration(w.LastSeenMS)*time.Millisecond).Round(time.Millisecond).String()+" ago", state)
		}
		out += "\n" + f.String()
	}
	if len(snap.Active) > 0 {
		a := stats.NewTable("Active jobs", "job", "seed", "n", "running for")
		for _, j := range snap.Active {
			a.AddRow(j.ID, fmt.Sprintf("%d", j.Seed), fmt.Sprintf("%d", j.N),
				(time.Duration(j.ElapsedMS) * time.Millisecond).Round(time.Millisecond).String())
		}
		out += "\n" + a.String()
	}
	if len(snap.Recent) > 0 {
		r := stats.NewTable("Recently finished", "job", "status", "elapsed")
		for _, j := range snap.Recent {
			r.AddRow(j.ID, j.Status, fmt.Sprintf("%dms", j.ElapsedMS))
		}
		out += "\n" + r.String()
	}
	return out
}

// progressBar renders done/total as a fixed-width ASCII bar.
func progressBar(done, total int) string {
	const width = 24
	if total <= 0 {
		return "(no jobs)"
	}
	fill := min(done*width/total, width)
	return fmt.Sprintf("[%s%s] %d/%d", strings.Repeat("#", fill), strings.Repeat(".", width-fill), done, total)
}
