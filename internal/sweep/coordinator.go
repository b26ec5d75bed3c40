package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/sketch"
)

// span is a half-open job index range [From, To) — the unit of leasing.
// Coordinator state is O(outstanding spans), never O(jobs): a million-job
// sweep is tracked by a next-index cursor, a short requeue list, and the
// active lease table.
type span struct {
	From, To int64
}

func (s span) size() int64 { return s.To - s.From }

// lease is one outstanding grant of a span to a worker.
type lease struct {
	id       string
	worker   string
	span     span
	granted  time.Time
	deadline time.Time
}

// doneLease is one completed lease in the fleet view's recent ring.
type doneLease struct {
	span    span
	status  string
	elapsed time.Duration
}

// recentLeases bounds the completed-lease ring the fleet view reports.
const recentLeases = 16

// Straggler verdict: a worker is flagged once the elapsed p50 of its
// accepted reports exceeds stragglerFactor × the sweep's elapsed p50,
// given at least stragglerMinSamples samples — below that its digest is
// noise.
const (
	stragglerFactor     = 2.0
	stragglerMinSamples = 16
)

// workerInfo is one worker's row of the fleet view (/campaign/status).
// Apart from lastSeen, which any call refreshes, it is built from the
// leases granted to the worker and the reports accepted for them.
type workerInfo struct {
	leases   int
	lastSeen time.Time

	executed, cached, failed int64
	elapsed                  *sketch.Digest // per-job wall clock (ms)
	slo                      *SLOCounts     // from the latest report; nil without -slo
}

// CoordinatorOptions tunes leasing and the fleet observability plane.
type CoordinatorOptions struct {
	// Batch caps jobs per lease (default 64).
	Batch int64
	// TTL is the lease lifetime; a lease not heartbeated or completed
	// within TTL is re-queued for another worker (default 30s).
	TTL time.Duration

	// Obs, when non-nil, receives fleet instruments (sweep.* counters and
	// gauges on /metrics) and fleet-trace-v1 lifecycle events on the
	// trace sink. Purely observational: granting, merging, and the
	// summary fingerprint are identical with or without it.
	Obs *obs.Registry
	// Flight, when non-nil, records lifecycle events into a bounded ring
	// dumped on lease expiry — the postmortem for a worker that died
	// without writing its own.
	Flight *flight.Recorder

	// SLO, when non-nil, stamps per-cell pass/fail verdicts on the summary:
	// every cell-bound rule of the set (Rule.Cell, see internal/obs/slo) is
	// evaluated against the cell's merged metric sketches at Summarize time.
	// Verdicts are derived, diagnostic data — the summary fingerprint is
	// computed over the aggregate alone and is identical with or without
	// them.
	SLO *slo.RuleSet
}

// Coordinator owns a sweep's job stream: it hands out leases, merges
// worker-reported sketch aggregates, re-leases expired work, and serves
// the fleet view. All methods are goroutine-safe; the in-process transport
// calls them directly and the HTTP routes (Routes) wrap them for remote
// workers.
type Coordinator struct {
	spec  *Spec
	total int64
	opts  CoordinatorOptions

	mu       sync.Mutex
	next     int64  // first never-leased index
	requeued []span // expired spans, handed out before fresh ones
	active   map[string]*lease
	workers  map[string]*workerInfo
	agg      *Aggregate
	done     int64
	executed int64
	cached   int64
	failed   int64
	releases int64 // spans re-queued after lease expiry
	stale    int64 // completion reports rejected after expiry
	leaseSeq int64
	start    time.Time
	// failures holds the first reported job errors, capped (Summary).
	failures      []string
	failuresTotal int64
	// recent is a ring of the last recentLeases completed leases;
	// completes counts every completed lease.
	recent    [recentLeases]doneLease
	completes int64

	// wake is closed (and cleared) when a lease completes or a span
	// re-queues, releasing every Lease call waiting for work; a waiter
	// creates it, so nothing is allocated while nobody waits.
	wake chan struct{}

	// Fleet observability plane (all nil-safe no-ops when disabled).
	ft  *FleetTrace
	ins coordInstruments

	finished chan struct{}
	finOnce  sync.Once
}

// coordInstruments is the coordinator's /metrics surface. Counters track
// lease-protocol traffic; the fleet_* counters add up the job outcomes of
// accepted reports.
type coordInstruments struct {
	leasesGranted     *obs.Counter
	leasesExpired     *obs.Counter
	rejectedStale     *obs.Counter
	heartbeats        *obs.Counter
	jobsDone          *obs.Counter
	fleetExecuted     *obs.Counter
	fleetCached       *obs.Counter
	fleetFailed       *obs.Counter
	workersSeen       *obs.Gauge
	workersStraggling *obs.Gauge
	leasesActive      *obs.Gauge
}

// NewCoordinator prepares a coordinator over the spec's job stream.
func NewCoordinator(spec *Spec, opts CoordinatorOptions) *Coordinator {
	if opts.Batch <= 0 {
		opts.Batch = 64
	}
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Second
	}
	c := &Coordinator{
		spec:     spec,
		total:    spec.Total(),
		opts:     opts,
		active:   map[string]*lease{},
		workers:  map[string]*workerInfo{},
		agg:      NewAggregate(),
		start:    time.Now(),
		finished: make(chan struct{}),
		ft:       NewFleetTrace(opts.Obs, opts.Flight, spec.Hash(), "coord"),
	}
	if r := opts.Obs; r != nil {
		c.ins = coordInstruments{
			leasesGranted:     r.Counter("sweep.leases_granted"),
			leasesExpired:     r.Counter("sweep.leases_expired"),
			rejectedStale:     r.Counter("sweep.completions_rejected_stale"),
			heartbeats:        r.Counter("sweep.heartbeats"),
			jobsDone:          r.Counter("sweep.jobs_done"),
			fleetExecuted:     r.Counter("sweep.fleet_jobs_executed"),
			fleetCached:       r.Counter("sweep.fleet_jobs_cached"),
			fleetFailed:       r.Counter("sweep.fleet_jobs_failed"),
			workersSeen:       r.Gauge("sweep.workers"),
			workersStraggling: r.Gauge("sweep.workers_straggling"),
			leasesActive:      r.Gauge("sweep.leases_active"),
		}
	}
	return c
}

// Spec returns the sweep spec (shared, read-only).
func (c *Coordinator) Spec() *Spec { return c.spec }

// reap moves expired leases back onto the requeue list. Called under mu
// from every entry point, so a dead worker's jobs become available the
// next time any live worker asks for work; a Lease call waiting for work
// also wakes at the earliest deadline to reap it. There is no background
// timer.
func (c *Coordinator) reap(now time.Time) {
	for _, l := range c.active {
		if now.After(l.deadline) {
			c.requeue(l, "ttl")
		}
	}
}

// requeue ends lease l without a result, under mu: its span goes back on
// the requeue list, ahead of fresh work, and waiting Lease calls wake to
// take it.
//
// This is also the coordinator-side postmortem trigger: a SIGKILL'd
// worker cannot dump its own flight ring, so the coordinator dumps its
// ring (the lease lifecycle as this side saw it) when a lease dies.
func (c *Coordinator) requeue(l *lease, reason string) {
	delete(c.active, l.id)
	c.ins.leasesActive.Set(int64(len(c.active)))
	c.requeued = append(c.requeued, l.span)
	c.releases++
	c.workers[l.worker].leases--
	c.ins.leasesExpired.Inc()
	c.ft.Expire(l.worker, leaseSeq(l.id), l.span.From, l.span.To, reason)
	// A failed dump is not worth failing lease bookkeeping over: the dump
	// is a best-effort postmortem.
	_, _ = c.opts.Flight.Dump("expire-" + l.worker + "-" + l.id)
	c.wakeWaiters()
}

// wakeWaiters releases every Lease call waiting for work. Called under mu.
func (c *Coordinator) wakeWaiters() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

func (c *Coordinator) worker(name string, now time.Time) *workerInfo {
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{elapsed: sketch.New()}
		c.workers[name] = w
		c.ins.workersSeen.Set(int64(len(c.workers)))
	}
	w.lastSeen = now
	return w
}

// maxLeaseWait caps how long one Lease call waits for work; the bound per
// call is min(TTL, maxLeaseWait). It must stay under the HTTP client's
// 30 s timeout (NewHTTPTransport). Capping it at the TTL keeps a waiting
// worker's lastSeen, which each call and each wake-up refreshes, inside
// the fleet view's aliveWindow of 3 TTLs: under -ttl 2s a flat 10 s wait
// would show the worker as dead.
const maxLeaseWait = 10 * time.Second

// Lease grants the next available span to a worker. The response is one of
// Done (sweep complete — worker should exit), a grant, or Wait: every span
// stayed leased out for the whole bounded wait (see lease), so the worker
// should ask again.
func (c *Coordinator) Lease(workerName string, max int64) LeaseResponse {
	resp, _ := c.lease(context.Background(), workerName, max)
	return resp
}

// lease is Lease for a caller that can go away. When nothing is free it
// waits, holding no lock, until a lease completes or a span re-queues, the
// earliest active lease reaches its deadline, min(TTL, maxLeaseWait) has
// passed, or ctx ends; then it reaps and tries again. A caller whose ctx
// ended gets ctx.Err() and no span, so an HTTP client that hung up mid-wait
// never strands a span until its TTL; once the sweep is done it hears Done
// all the same, so a server shutting down (which ends every request's ctx)
// cannot turn the final wake-up into an error.
func (c *Coordinator) lease(ctx context.Context, workerName string, max int64) (LeaseResponse, error) {
	if max <= 0 || max > c.opts.Batch {
		max = c.opts.Batch
	}
	giveUp := time.Now().Add(min(c.opts.TTL, maxLeaseWait))
	for {
		c.mu.Lock()
		if err := ctx.Err(); err != nil && c.done < c.total {
			c.mu.Unlock()
			return LeaseResponse{}, err
		}
		now := time.Now()
		resp := c.grant(workerName, max, now)
		if !resp.Wait || !now.Before(giveUp) {
			c.mu.Unlock()
			return resp, nil
		}
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake, until := c.wake, giveUp
		for _, l := range c.active {
			if l.deadline.Before(until) {
				until = l.deadline
			}
		}
		c.mu.Unlock()

		timer := time.NewTimer(until.Sub(now))
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
	}
}

// grant answers workerName's lease request without waiting, under mu:
// Done, the next available span, or Wait when every span is leased out.
//
// A re-queued span is re-leased whole, up to max. A fresh span takes at
// most ⌈R/(W+1)⌉ of the R never-leased jobs, where W counts the workers
// seen so far, the asker included: spans shrink toward the end of the
// sweep, so the workers finish together rather than all waiting on
// whoever holds the last full batch.
func (c *Coordinator) grant(workerName string, max int64, now time.Time) LeaseResponse {
	c.reap(now)
	w := c.worker(workerName, now)
	if c.done >= c.total {
		return LeaseResponse{Schema: ProtoSchema, Done: true}
	}
	var sp span
	reLease := false
	switch {
	case len(c.requeued) > 0:
		reLease = true
		sp = c.requeued[0]
		if sp.size() > max {
			c.requeued[0].From = sp.From + max
			sp.To = sp.From + max
		} else {
			c.requeued = c.requeued[1:]
		}
	case c.next < c.total:
		share := int64(len(c.workers)) + 1
		sp = span{c.next, c.next + min(max, (c.total-c.next+share-1)/share)}
		c.next = sp.To
	default:
		return LeaseResponse{Schema: ProtoSchema, Wait: true}
	}
	c.leaseSeq++
	id := fmt.Sprintf("L%d", c.leaseSeq)
	c.active[id] = &lease{id: id, worker: workerName, span: sp, granted: now, deadline: now.Add(c.opts.TTL)}
	c.ins.leasesActive.Set(int64(len(c.active)))
	w.leases++
	c.ins.leasesGranted.Inc()
	c.ft.Grant(workerName, c.leaseSeq, sp.From, sp.To, c.opts.TTL, reLease)
	return LeaseResponse{Schema: ProtoSchema, LeaseID: id, From: sp.From, To: sp.To,
		TTLMS: c.opts.TTL.Milliseconds()}
}

// Heartbeat extends the deadline of a lease granted to the heartbeat's
// worker. OK=false tells the worker its lease expired and was re-queued
// (its eventual Complete will be ignored), or that the lease is not its
// own, whose deadline it leaves alone.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(now)
	c.worker(req.Worker, now)
	c.ins.heartbeats.Inc()
	l, ok := c.active[req.LeaseID]
	ok = ok && l.worker == req.Worker
	c.ft.Heartbeat(req.Worker, leaseSeq(req.LeaseID), ok)
	if ok {
		l.deadline = now.Add(c.opts.TTL)
	}
	return HeartbeatResponse{OK: ok}
}

// Complete merges a finished lease's sketch report into the fleet
// aggregate, and its job counts, elapsed digest and SLO state into the
// fleet-view row of the worker the lease was granted to; the reporter's
// name only refreshes its own last-seen time. A report for an expired
// (re-queued) lease is ignored — its span has been or will be re-run by
// another worker, and counting it twice would break the
// sharded-equals-single-process determinism contract. A report whose job
// counts or aggregate do not cover its span is refused and the span
// re-queued at once. A report whose aggregate cannot merge is rejected
// whole, before it changes anything; its lease re-queues at TTL.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if req.Schema != ProtoSchema {
		// Version negotiation is a flat refusal: merging a different
		// generation's metric layout would silently skew every sketch.
		return CompleteResponse{}, fmt.Errorf(
			"sweep: worker %q speaks %q, coordinator speaks %q — rebuild the older binary",
			req.Worker, req.Schema, ProtoSchema)
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(now)
	c.worker(req.Worker, now)
	l, ok := c.active[req.LeaseID]
	if !ok {
		c.stale++
		c.ins.rejectedStale.Inc()
		c.ft.RejectStale(req.Worker, leaseSeq(req.LeaseID))
		return CompleteResponse{Ignored: true}, nil
	}
	// A worker that cannot account for its whole span, in its counts and
	// in its aggregate alike, gets its lease re-queued rather than
	// corrupting the aggregate or ending the sweep on an empty one.
	var refusal error
	reported := req.Executed + req.Cached + req.Failed
	switch {
	case reported != l.span.size():
		refusal = fmt.Errorf("sweep: lease %s reports %d jobs for a %d-job span", l.id, reported, l.span.size())
	case req.Agg == nil:
		refusal = fmt.Errorf("sweep: lease %s reports no aggregate for its %d-job span", l.id, l.span.size())
	case req.Agg.Jobs() != reported:
		refusal = fmt.Errorf("sweep: lease %s aggregate counts %d jobs for a %d-job span",
			l.id, req.Agg.Jobs(), l.span.size())
	}
	if refusal != nil {
		c.requeue(l, "mismatch")
		return CompleteResponse{Ignored: true}, refusal
	}
	if err := c.agg.Merge(req.Agg); err != nil {
		return CompleteResponse{}, err
	}
	delete(c.active, l.id)
	c.ins.leasesActive.Set(int64(len(c.active)))
	w := c.workers[l.worker]
	w.leases--
	w.executed += req.Executed
	w.cached += req.Cached
	w.failed += req.Failed
	_ = w.elapsed.Merge(req.Agg.Elapsed) // its alpha passed c.agg.Merge
	w.slo = req.SLO
	c.setStraggling()
	c.done += l.span.size()
	c.executed += req.Executed
	c.cached += req.Cached
	c.failed += req.Failed
	c.failuresTotal += int64(len(req.Errors))
	for _, msg := range req.Errors {
		if len(c.failures) < maxSummaryFailures {
			c.failures = append(c.failures, msg)
		}
	}
	status := campaign.StatusOK
	switch {
	case req.Failed > 0:
		status = campaign.StatusFailed
	case req.Cached == l.span.size():
		status = campaign.StatusCached
	}
	c.recent[c.completes%recentLeases] = doneLease{span: l.span, status: status, elapsed: now.Sub(l.granted)}
	c.completes++
	c.ins.jobsDone.Add(l.span.size())
	c.ins.fleetExecuted.Add(req.Executed)
	c.ins.fleetCached.Add(req.Cached)
	c.ins.fleetFailed.Add(req.Failed)
	c.ft.Complete(l.worker, leaseSeq(l.id), l.span.From, l.span.To,
		req.Executed, req.Cached, req.Failed)
	c.wakeWaiters()
	if c.done >= c.total {
		c.finOnce.Do(func() { close(c.finished) })
		// Tell the finishing worker directly: a follow-up Lease call would
		// race against the coordinator shutting down its control plane.
		return CompleteResponse{OK: true, Done: true}, nil
	}
	return CompleteResponse{OK: true}, nil
}

// Done reports whether every job has been completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done >= c.total
}

// Finished returns a channel closed when the last job completes.
func (c *Coordinator) Finished() <-chan struct{} { return c.finished }

// Releases reports how many spans were re-queued after lease expiry.
func (c *Coordinator) Releases() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.releases
}

// aliveWindow: a worker with no heartbeat for this many lease TTLs is
// shown as dead in the fleet view.
const aliveWindow = 3

// Snapshot assembles the live fleet view in the campaign-status-v1 schema
// that `campaign watch` renders: totals and rates, the live leases
// (Active, longest-running first) and the last completed ones (Recent,
// most recent first), each named by its span's first job, plus the
// per-worker fleet table.
func (c *Coordinator) Snapshot() *campaign.StatusSnapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(now)
	snap := &campaign.StatusSnapshot{
		Schema:   campaign.StatusSchema,
		Running:  c.done < c.total,
		Total:    int(c.total),
		Done:     int(c.done),
		Executed: int(c.executed),
		Cached:   int(c.cached),
		Failed:   int(c.failed),
		Retries:  int(c.releases),
		ETAMS:    -1,
	}
	snap.ElapsedMS = now.Sub(c.start).Milliseconds()
	if secs := float64(snap.ElapsedMS) / 1000; secs > 0 && c.done > 0 {
		snap.JobsPerSec = float64(c.done) / secs
		snap.ETAMS = int64(float64(c.total-c.done) / snap.JobsPerSec * 1000)
	}
	if c.agg.Elapsed.Count() > 0 {
		snap.ElapsedP50MS = int64(c.agg.Elapsed.Quantile(0.50))
		snap.ElapsedP95MS = int64(c.agg.Elapsed.Quantile(0.95))
		snap.ElapsedP99MS = int64(c.agg.Elapsed.Quantile(0.99))
		snap.ElapsedP999MS = int64(c.agg.Elapsed.Quantile(0.999))
	}
	snap.MetricSketches = c.agg.Sketches()
	snap.SketchBuckets = c.agg.Buckets()
	for _, l := range c.active {
		j, _ := c.spec.JobAt(l.span.From)
		a := campaign.ActiveJob{ID: j.Name(), Seed: j.Seed, ElapsedMS: now.Sub(l.granted).Milliseconds()}
		if j.experiment != nil {
			a.N = j.corpusN()
		}
		snap.Active = append(snap.Active, a)
	}
	sort.Slice(snap.Active, func(i, k int) bool {
		if snap.Active[i].ElapsedMS != snap.Active[k].ElapsedMS {
			return snap.Active[i].ElapsedMS > snap.Active[k].ElapsedMS
		}
		return snap.Active[i].ID < snap.Active[k].ID
	})
	for i := c.completes - 1; i >= 0 && i >= c.completes-recentLeases; i-- {
		d := c.recent[i%recentLeases]
		j, _ := c.spec.JobAt(d.span.From)
		snap.Recent = append(snap.Recent, campaign.JobRecord{ID: j.Name(), Status: d.status,
			ElapsedMS: d.elapsed.Milliseconds()})
	}

	fleetP50 := c.agg.Elapsed.Quantile(0.50)
	for name, w := range c.workers {
		ws := campaign.WorkerStatus{
			Name:         name,
			JobsDone:     w.executed + w.cached + w.failed,
			Leases:       w.leases,
			LastSeenMS:   now.Sub(w.lastSeen).Milliseconds(),
			Alive:        now.Sub(w.lastSeen) <= aliveWindow*c.opts.TTL,
			Executed:     w.executed,
			Cached:       w.cached,
			Failed:       w.failed,
			Samples:      int64(w.elapsed.Count()),
			ElapsedP50MS: int64(w.elapsed.Quantile(0.50)),
			Straggler:    w.straggles(fleetP50),
		}
		if w.slo != nil {
			ws.SLOArmed = true
			ws.SLOPending, ws.SLOFiring, ws.SLOFired = w.slo.Pending, w.slo.Firing, w.slo.Fired
		}
		snap.Fleet = append(snap.Fleet, ws)
	}
	sort.Slice(snap.Fleet, func(i, k int) bool { return snap.Fleet[i].Name < snap.Fleet[k].Name })
	snap.Workers = len(snap.Fleet)
	return snap
}

// straggles is the straggler verdict for w against the sweep's elapsed
// median, which merges every worker's accepted reports.
func (w *workerInfo) straggles(fleetP50 float64) bool {
	return w.elapsed.Count() >= stragglerMinSamples && fleetP50 > 0 &&
		w.elapsed.Quantile(0.50) > stragglerFactor*fleetP50
}

// setStraggling recomputes the sweep.workers_straggling gauge, whose
// verdicts move with every accepted report. Called under mu; a no-op
// without a registry.
func (c *Coordinator) setStraggling() {
	if c.ins.workersStraggling == nil {
		return
	}
	fleetP50 := c.agg.Elapsed.Quantile(0.50)
	n := int64(0)
	for _, w := range c.workers {
		if w.straggles(fleetP50) {
			n++
		}
	}
	c.ins.workersStraggling.Set(n)
}

// Summary renders the final merged report. Valid at any point; before
// Finished it covers the jobs completed so far, and its digests are
// copied under the lock, so a caller may read or encode it while later
// reports merge. Once every job is done nothing merges any more, and the
// summary shares the aggregate's digests.
func (c *Coordinator) Summary() *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summarize(c.spec, c.agg)
	if c.done < c.total {
		for i := range s.Cells {
			s.Cells[i].Sketches = cloneDigests(s.Cells[i].Sketches)
		}
	}
	s.ApplyVerdicts(c.opts.SLO)
	s.Executed = c.executed
	s.Cached = c.cached
	s.Workers = len(c.workers)
	s.ElapsedMS = time.Since(c.start).Milliseconds()
	if secs := float64(s.ElapsedMS) / 1000; secs > 0 && c.done > 0 {
		s.JobsPerSec = float64(c.done) / secs
	}
	s.Failures = append([]string(nil), c.failures...)
	s.FailuresTotal = c.failuresTotal
	return s
}
