package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
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
	// alert counts ride every lease report (CompleteRequest.SLO), so the
	// coordinator's fleet view shows which workers have alerts pending or
	// firing mid-sweep. Purely observational.
	SLO *slo.Engine
}

// workerPoll is the pause after a failed transport call or a Wait answer.
// A coordinator answers Wait only after waiting min(TTL, 10 s) itself, so
// the pause adds little there; after a failed call it keeps a worker from
// spinning against a coordinator that cannot answer.
const workerPoll = 100 * time.Millisecond

// maxTransportErrors aborts a worker after this many consecutive transport
// failures — a vanished coordinator should kill the worker, not spin it.
const maxTransportErrors = 10

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
// sweep is done: fetch the spec once, then run Parallel job slots through
// the shared cache, folding each lease's results into sketches and
// reporting them. A free slot takes the next job of the current lease;
// when that lease has none left to hand out, one free slot leases the next
// span while busy slots finish the old one, so a worker never idles at a
// lease boundary and holds at most Parallel leases. The slot that finishes
// a lease's last job reports it before it takes more work, so a one-slot
// worker reports each lease before it asks for the next. A heartbeat
// goroutine keeps each lease alive while its jobs run, so only a genuinely
// dead worker's span gets re-leased.
func RunWorker(transport Transport, runner *Runner, opts WorkerOptions) (WorkerStats, error) {
	if opts.Name == "" {
		return WorkerStats{}, fmt.Errorf("sweep: worker needs a name")
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.NumCPU()
	}
	spec, err := transport.FetchSpec()
	if err != nil {
		return WorkerStats{}, fmt.Errorf("sweep: fetch spec: %w", err)
	}
	w := &worker{transport: transport, runner: runner, spec: spec, opts: opts,
		ft: NewFleetTrace(opts.Obs, opts.Flight, spec.Hash(), "worker")}
	w.ft.SpecFetch(opts.Name, spec.Hash())
	var wg sync.WaitGroup
	for range opts.Parallel {
		wg.Add(1)
		go func() { // one job slot
			defer wg.Done()
			for {
				lr, i, ok := w.take()
				if !ok {
					return
				}
				if w.run(lr, i) {
					w.report(lr)
				}
			}
		}()
	}
	wg.Wait()
	// Every lease whose jobs all ran was reported, or its report dropped,
	// by the slot that ran the last one. Only the current lease can still
	// hold jobs, when the worker stopped before handing them out: it was
	// re-leased to another worker (the sweep is done) or cannot be reported
	// (the coordinator is gone).
	if cur := w.cur; cur != nil && cur.next < cur.grant.To {
		cur.stopHeartbeat()
	}
	return w.stats, w.err
}

// worker is one RunWorker call: the state its job slots share.
type worker struct {
	transport Transport
	runner    *Runner
	spec      *Spec
	opts      WorkerOptions
	ft        *FleetTrace

	// takeMu is held by the slot taking a job, through the Lease call when
	// it asks for the next span, so the other free slots wait for that span.
	takeMu sync.Mutex
	cur    *leaseRun // the lease free slots take jobs from

	stopped atomic.Bool // the sweep is done or the worker failed

	mu    sync.Mutex // guards the rest and serializes progress lines
	err   error      // why the worker failed
	errs  int        // consecutive transport failures
	stats WorkerStats
}

// leaseRun is one granted span while its jobs run.
type leaseRun struct {
	grant         LeaseResponse
	start         time.Time
	next          int64 // next job to hand out, under worker.takeMu
	stopHeartbeat func()

	mu   sync.Mutex
	left int64 // jobs not finished yet
	req  CompleteRequest
}

// take hands a free slot its next job: the current lease's next one, or
// the first of the span it leases itself. It returns false once the worker
// stops.
func (w *worker) take() (*leaseRun, int64, bool) {
	w.takeMu.Lock()
	defer w.takeMu.Unlock()
	for !w.stopped.Load() {
		if cur := w.cur; cur != nil && cur.next < cur.grant.To {
			cur.next++
			return cur, cur.next - 1, true
		}
		if lr := w.lease(); lr != nil {
			w.cur = lr
		}
	}
	return nil, 0, false
}

// lease asks for the next span until the coordinator grants one, then
// narrates the grant, starts the lease's heartbeat and opens its report.
// It returns nil once the worker stops: the sweep is done, or the
// coordinator stayed unreachable.
func (w *worker) lease() *leaseRun {
	for !w.stopped.Load() {
		grant, err := w.transport.Lease(w.opts.Name, w.opts.Batch)
		w.tally("lease", err)
		switch {
		case err != nil || grant.Wait:
			time.Sleep(workerPoll)
		case grant.Done:
			w.stop(nil)
			return nil
		default:
			w.ft.Grant(w.opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To,
				time.Duration(grant.TTLMS)*time.Millisecond, false)
			return &leaseRun{
				grant: grant, start: time.Now(), next: grant.From, left: grant.To - grant.From,
				req: CompleteRequest{Schema: ProtoSchema, Worker: w.opts.Name, LeaseID: grant.LeaseID,
					Agg: NewAggregate()},
				stopHeartbeat: w.heartbeat(grant),
			}
		}
	}
	return nil
}

// run executes job i of lr and folds its result into lr's report. It
// returns true when that was the last of lr's jobs to finish.
func (w *worker) run(lr *leaseRun, i int64) (last bool) {
	job, err := w.spec.JobAt(i)
	var m Metrics
	var cached bool
	jobStart := time.Now()
	if err == nil {
		m, cached, err = w.runner.Do(job)
	}
	elapsed := float64(time.Since(jobStart).Microseconds()) / 1000
	lr.mu.Lock()
	defer lr.mu.Unlock()
	req := &lr.req
	req.Agg.ObserveElapsed(elapsed)
	if err != nil {
		req.Agg.ObserveFailure(job.CellKey())
		req.Failed++
		if len(req.Errors) < maxLeaseErrors {
			req.Errors = append(req.Errors, err.Error())
		}
	} else {
		req.Agg.Observe(job.CellKey(), m)
		if m.Result != nil {
			req.Agg.ObserveResult(job.Key(), m.Result)
		}
		if cached {
			req.Cached++
		} else {
			req.Executed++
		}
	}
	lr.left--
	return lr.left == 0
}

// report stops a finished lease's heartbeat and sends its Complete,
// stamped with the SLO engine's alert counts when one is armed. A stopped
// worker sends nothing: its lease was re-leased (the sweep is done) or
// cannot be reported (the coordinator is gone).
func (w *worker) report(lr *leaseRun) {
	lr.stopHeartbeat()
	if w.stopped.Load() {
		return
	}
	leaseElapsed := time.Since(lr.start)
	grant, report := lr.grant, lr.req
	if w.opts.SLO != nil {
		report.SLO = &SLOCounts{}
		report.SLO.Pending, report.SLO.Firing, report.SLO.Fired = w.opts.SLO.Counts()
	}
	w.ft.Complete(w.opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To,
		report.Executed, report.Cached, report.Failed)
	resp, err := w.transport.Complete(report)
	w.tally("complete", err)
	if err != nil {
		// A failed Complete loses only this lease's work: the span
		// re-leases at TTL expiry (possibly back to this worker, where
		// the cache makes the re-run cheap).
		return
	}
	if resp.Done {
		// This report finished the sweep; don't race a final Lease call
		// against the coordinator tearing down its control plane. A slot
		// already inside Lease may still reach it, and hears done.
		w.stop(nil)
	}
	w.mu.Lock()
	w.stats.Leases++
	if resp.Ignored {
		w.stats.Ignored++
		// The coordinator discarded this report as stale: record the
		// worker-side view and dump the ring for the postmortem.
		w.ft.RejectStale(w.opts.Name, leaseSeq(grant.LeaseID))
		_, _ = w.opts.Flight.Dump("stale-" + w.opts.Name + "-" + grant.LeaseID)
	} else {
		w.stats.Jobs += grant.To - grant.From
		w.stats.Executed += report.Executed
		w.stats.Cached += report.Cached
		w.stats.Failed += report.Failed
	}
	if w.opts.Progress != nil {
		tag := ""
		if resp.Ignored {
			tag = "  (expired, discarded)"
		}
		first, _ := w.spec.JobAt(grant.From)
		fmt.Fprintf(w.opts.Progress, "%s: lease %s %s jobs [%d,%d) in %s — %d executed, %d cached, %d failed%s\n",
			w.opts.Name, grant.LeaseID, first.Name(), grant.From, grant.To, leaseElapsed.Round(time.Millisecond),
			report.Executed, report.Cached, report.Failed, tag)
	}
	w.mu.Unlock()
}

// stop ends the worker: no slot takes another job or asks for another
// lease. The first stop sets the error RunWorker returns.
func (w *worker) stop(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stopped.Load() {
		w.err = err
		w.stopped.Store(true)
	}
}

// tally counts consecutive failed calls to the coordinator; a call that
// succeeds ends the run. A vanished coordinator should kill the worker,
// not spin it: the maxTransportErrors-th failure in a row stops the worker
// with that error.
func (w *worker) tally(op string, err error) {
	w.mu.Lock()
	if err != nil {
		w.errs++
	} else {
		w.errs = 0
	}
	n := w.errs
	w.mu.Unlock()
	if n >= maxTransportErrors {
		w.stop(fmt.Errorf("sweep: %s: %w (%d consecutive failures)", op, err, n))
	}
}

// heartbeat keeps grant's lease alive at TTL/3 with bare keepalives. The
// returned stop ends it and waits for it.
func (w *worker) heartbeat(grant LeaseResponse) (stop func()) {
	if grant.TTLMS <= 0 {
		return func() {}
	}
	interval := time.Duration(grant.TTLMS) * time.Millisecond / 3
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		dumped := false
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// Transport errors and expiry are ignored for lease
				// bookkeeping: Complete is the authority on whether the
				// lease still counts. But an OK=false answer is the
				// worker's earliest notice its lease died, so it narrates
				// the expiry and dumps the ring once for the postmortem.
				w.ft.Heartbeat(w.opts.Name, leaseSeq(grant.LeaseID), true)
				resp, err := w.transport.Heartbeat(HeartbeatRequest{Worker: w.opts.Name, LeaseID: grant.LeaseID})
				if err == nil && !resp.OK && !dumped {
					dumped = true
					w.ft.Expire(w.opts.Name, leaseSeq(grant.LeaseID), grant.From, grant.To, "notified")
					_, _ = w.opts.Flight.Dump("expire-" + w.opts.Name + "-" + grant.LeaseID)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
