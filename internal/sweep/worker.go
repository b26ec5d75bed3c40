package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/sketch"
)

// WorkerOptions tunes one worker engine.
type WorkerOptions struct {
	// Name identifies the worker in leases and the fleet view. Required.
	Name string
	// Parallel is the in-worker job concurrency (default NumCPU).
	Parallel int
	// Batch is the max jobs requested per lease (0 = coordinator's cap).
	Batch int64
	// Progress, when non-nil, receives one line per completed lease.
	Progress io.Writer

	// Obs, when non-nil, receives this worker's side of the lease
	// lifecycle as fleet-trace-v1 events (src=worker). Purely
	// observational — job results are identical with or without it.
	Obs *obs.Registry
	// Flight records lifecycle events into a bounded ring, dumped when
	// the worker learns a lease died under it (a heartbeat answered
	// OK=false or a completion discarded as stale).
	Flight *flight.Recorder

	// SLO, when non-nil, is the worker's armed streaming SLO engine; its
	// live alert counts ride every heartbeat snapshot (sweep-proto-v4) so
	// the coordinator's fleet view shows which workers have alerts pending
	// or firing mid-sweep. Purely observational.
	SLO *slo.Engine
}

// workerPoll is the pause after a failed transport call or a Wait answer.
// A coordinator answers Wait only after waiting min(TTL, 10 s) itself, so
// the pause adds little there; it keeps a worker from spinning against a
// sweep-proto-v4 coordinator that answers Wait at once.
const workerPoll = 100 * time.Millisecond

// maxTransportErrors aborts a worker after this many consecutive transport
// failures — a vanished coordinator should kill the worker, not spin it.
const maxTransportErrors = 10

// workerMeter accumulates the metric snapshot a worker piggybacks on
// heartbeats: lifetime job-outcome counters and the per-job elapsed
// digest. Snapshots are cumulative and sequenced — the coordinator
// applies one only when its sequence advances and derives the counter
// deltas itself — so a snapshot retransmitted after a lost response (or
// arriving out of order) is idempotent and work observed between
// retransmits is never lost or double-counted.
type workerMeter struct {
	mu       sync.Mutex
	hb       int64 // heartbeat sequence, incremented per snapshot
	executed int64
	cached   int64
	failed   int64
	elapsed  *sketch.Digest
}

func newWorkerMeter() *workerMeter {
	return &workerMeter{elapsed: sketch.New()}
}

// observe folds one finished job into the lifetime snapshot.
func (m *workerMeter) observe(elapsedMS float64, cached, failed bool) {
	m.mu.Lock()
	switch {
	case failed:
		m.failed++
	case cached:
		m.cached++
	default:
		m.executed++
	}
	m.elapsed.Add(elapsedMS)
	m.mu.Unlock()
}

// snapshot returns the next sequence number and a self-contained copy of
// the cumulative metrics (the digest is deep-copied, so an in-process
// coordinator can hold it while this worker keeps observing).
func (m *workerMeter) snapshot() (int64, *WorkerMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hb++
	cp := sketch.New()
	// Merge only fails across alpha mismatches; both sides use New().
	_ = cp.Merge(m.elapsed)
	return m.hb, &WorkerMetrics{
		Executed: m.executed, Cached: m.cached, Failed: m.failed, Elapsed: cp,
	}
}

// WorkerStats is one worker's lifetime accounting.
type WorkerStats struct {
	Leases   int64
	Jobs     int64
	Executed int64
	Cached   int64
	Failed   int64
	Ignored  int64 // leases completed after expiry, discarded by the coordinator
}

// RunWorker pulls leases from the coordinator behind transport until the
// sweep is done: fetch the spec once, then lease → run (in-worker parallel,
// through the shared cache) → aggregate into sketches → report. A
// heartbeat goroutine keeps each lease alive while its jobs run, so only a
// genuinely dead worker's span gets re-leased.
func RunWorker(transport Transport, runner *Runner, opts WorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	if opts.Name == "" {
		return stats, fmt.Errorf("sweep: worker needs a name")
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.NumCPU()
	}
	spec, err := transport.FetchSpec()
	if err != nil {
		return stats, fmt.Errorf("sweep: fetch spec: %w", err)
	}
	ft := NewFleetTrace(opts.Obs, opts.Flight, spec.Hash(), "worker")
	ft.SpecFetch(opts.Name, spec.Hash())
	meter := newWorkerMeter()
	errs := 0
	for {
		grant, err := transport.Lease(opts.Name, opts.Batch)
		if err != nil {
			errs++
			if errs >= maxTransportErrors {
				return stats, fmt.Errorf("sweep: lease: %w (%d consecutive failures)", err, errs)
			}
			time.Sleep(workerPoll)
			continue
		}
		errs = 0
		switch {
		case grant.Done:
			return stats, nil
		case grant.Wait:
			time.Sleep(workerPoll)
			continue
		}
		ft.Grant(opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To,
			time.Duration(grant.TTLMS)*time.Millisecond, false)
		report, leaseElapsed := runLease(transport, runner, spec, grant, opts, ft, meter)
		ft.Complete(opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To,
			report.Executed, report.Cached, report.Failed)
		resp, err := transport.Complete(report)
		if err != nil {
			// A failed Complete loses only this lease's work: the span
			// re-leases at TTL expiry (possibly back to this worker, where
			// the cache makes the re-run cheap).
			errs++
			if errs >= maxTransportErrors {
				return stats, fmt.Errorf("sweep: complete: %w (%d consecutive failures)", err, errs)
			}
			continue
		}
		stats.Leases++
		if resp.Ignored {
			stats.Ignored++
			// The coordinator discarded this report as stale: record the
			// worker-side view and dump the ring for the postmortem.
			ft.RejectStale(opts.Name, leaseSeq(grant.LeaseID))
			_, _ = opts.Flight.Dump("stale-" + opts.Name + "-" + grant.LeaseID)
		} else {
			stats.Jobs += grant.To - grant.From
			stats.Executed += report.Executed
			stats.Cached += report.Cached
			stats.Failed += report.Failed
		}
		if opts.Progress != nil {
			tag := ""
			if resp.Ignored {
				tag = "  (expired, discarded)"
			}
			first, _ := spec.JobAt(grant.From)
			fmt.Fprintf(opts.Progress, "%s: lease %s %s jobs [%d,%d) in %s — %d executed, %d cached, %d failed%s\n",
				opts.Name, grant.LeaseID, first.Name(), grant.From, grant.To, leaseElapsed.Round(time.Millisecond),
				report.Executed, report.Cached, report.Failed, tag)
		}
		if resp.Done {
			// This report finished the sweep; don't race a final Lease call
			// against the coordinator tearing down its control plane.
			return stats, nil
		}
	}
}

// runLease executes one granted span with in-worker parallelism and folds
// the results into a fresh aggregate. Heartbeats run on a side goroutine
// for as long as the jobs do, carrying the worker's cumulative metric
// snapshot so the coordinator's fleet view advances mid-lease.
func runLease(transport Transport, runner *Runner, spec *Spec, grant LeaseResponse, opts WorkerOptions, ft *FleetTrace, meter *workerMeter) (CompleteRequest, time.Duration) {
	start := time.Now()
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	if grant.TTLMS > 0 {
		interval := time.Duration(grant.TTLMS) * time.Millisecond / 3
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			dumped := false
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// Transport errors and expiry are ignored for lease
					// bookkeeping: Complete is the authority on whether the
					// lease still counts. But an OK=false answer is the
					// worker's earliest notice its lease died, so it narrates
					// the expiry and dumps the ring once for the postmortem.
					seq, metrics := meter.snapshot()
					if opts.SLO != nil {
						metrics.SLOArmed = true
						metrics.SLOPending, metrics.SLOFiring, metrics.SLOFired = opts.SLO.Counts()
					}
					ft.Heartbeat(opts.Name, leaseSeq(grant.LeaseID), true)
					resp, err := transport.Heartbeat(HeartbeatRequest{
						Worker: opts.Name, LeaseID: grant.LeaseID,
						Seq: seq, Metrics: metrics,
					})
					if err == nil && !resp.OK && !dumped {
						dumped = true
						ft.Expire(opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To, "notified")
						_, _ = opts.Flight.Dump("expire-" + opts.Name + "-" + grant.LeaseID)
					}
				}
			}
		}()
	}

	agg := NewAggregate()
	req := CompleteRequest{Schema: ProtoSchema, Worker: opts.Name, LeaseID: grant.LeaseID, Agg: agg}
	var mu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int64)
	for w := 0; w < opts.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				job, err := spec.JobAt(i)
				var m Metrics
				var cached bool
				jobStart := time.Now()
				if err == nil {
					m, cached, err = runner.Do(job)
				}
				elapsed := float64(time.Since(jobStart).Microseconds()) / 1000
				meter.observe(elapsed, cached, err != nil)
				mu.Lock()
				agg.ObserveElapsed(elapsed)
				if err != nil {
					agg.ObserveFailure(job.CellKey())
					req.Failed++
					if len(req.Errors) < maxLeaseErrors {
						req.Errors = append(req.Errors, err.Error())
					}
				} else {
					agg.Observe(job.CellKey(), m)
					if m.Result != nil {
						agg.ObserveResult(job.Key(), m.Result)
					}
					if cached {
						req.Cached++
					} else {
						req.Executed++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := grant.From; i < grant.To; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(stop)
	hbWG.Wait()
	return req, time.Since(start)
}
