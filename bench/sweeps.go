package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/expose"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/voip"
)

//go:embed workloads/corpus-office.yaml
var fleetCorpus []byte

const (
	// localParallel is the in-process worker's job concurrency and
	// fleetWorkers the HTTP fleet's worker count (one job each): either way
	// two busy goroutines, one per core of a 2-core machine.
	localParallel = 2
	fleetWorkers  = 2
	// probeStride samples every probeStride-th job of the first grid for
	// the traced run's serial per-call decomposition.
	probeStride = 8
)

// sweepShape sizes one sweep workload. A run repeats passes — each a
// fresh coordinator, workers, summary and report over one grid — until its
// time is up; pass p runs grid p mod grids, so a run covers grids ×
// seedsPerPass seeds of every cell rather than one small grid many times.
type sweepShape struct {
	name         string
	seedsPerPass int64
	grids        int
	durationS    float64 // call length of the classic grid
	warm         bool    // set-up fills a cache; every pass resolves from it
	fleet        bool    // scenario corpus over HTTP, two workers, cache off
}

var (
	sweepCold = sweepShape{name: "sweep-cold", seedsPerPass: 2, grids: 32, durationS: 120}
	sweepWarm = sweepShape{name: "sweep-warm", seedsPerPass: 16, grids: 1, durationS: 30, warm: true}
	fleetHTTP = sweepShape{name: "fleet-http", seedsPerPass: 8, grids: 32, fleet: true}
)

// spec builds grid g's sweep-v1 spec for a workload seed, with count seeds
// per cell. Seeds never overlap between workload seeds or grids.
func (sh sweepShape) spec(seed int64, g int, count int64) (*sweep.Spec, error) {
	doc := map[string]any{
		"name":  "bench-" + sh.name,
		"seeds": map[string]int64{"start": (seed-1)*int64(sh.grids)*sh.seedsPerPass + 1 + int64(g)*sh.seedsPerPass, "count": count},
	}
	if sh.fleet {
		v, err := scenario.YAMLToValue(fleetCorpus)
		if err != nil {
			return nil, fmt.Errorf("fleet corpus: %w", err)
		}
		m, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("fleet corpus: not a mapping")
		}
		m["seed"] = seed
		doc["scenarios"] = m
	} else {
		doc["duration_s"] = sh.durationS
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return sweep.ParseSpec(data)
}

// sweepSession is one set-up of a sweep workload.
type sweepSession struct {
	shape  sweepShape
	specs  []*sweep.Spec
	expect []string       // committed fingerprint per grid, nil when none
	seen   map[int]string // grid → the first fingerprint this session produced
	work   string         // temp dir holding every cache of the session
	cache  *campaign.Cache

	mu       sync.Mutex
	jobNS    []float64 // RunFunc-timed job durations of the current run
	reqBytes []float64 // /sweep/complete request sizes (traced fleet runs)
}

func openSweep(sh sweepShape, seed int64, expect []string) (session, error) {
	s := &sweepSession{shape: sh, expect: expect, seen: map[int]string{}}
	for g := 0; g < sh.grids; g++ {
		spec, err := sh.spec(seed, g, sh.seedsPerPass)
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, spec)
	}
	var err error
	if s.work, err = os.MkdirTemp("", "bench-"+sh.name+"-*"); err != nil {
		return nil, err
	}
	var ph phase
	if sh.warm {
		// The fill: a cold pass over the grid, into the cache every
		// timed pass then resolves from.
		if s.cache, err = campaign.OpenCache(filepath.Join(s.work, "warm")); err != nil {
			s.close()
			return nil, err
		}
		s.pass(0, s.specs[0], false, nil, &ph)
	} else {
		// Warm-up: one job per cell (per scenario on the fleet), through
		// the same pass machinery, so lazy initialization and heap growth
		// land in set-up rather than in the first timed pass.
		warmup, err := sh.spec(seed, 0, 1)
		if err != nil {
			s.close()
			return nil, err
		}
		s.pass(-1, warmup, false, nil, &ph)
	}
	if ph.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%s set-up: %v", sh.name, ph.notes)
	}
	return s, nil
}

func (s *sweepSession) close() error { return os.RemoveAll(s.work) }

func (s *sweepSession) run(d time.Duration, rec *recorder) (*phase, error) {
	s.mu.Lock()
	s.jobNS = s.jobNS[:0]
	s.mu.Unlock()
	ph := &phase{}
	start := time.Now()
	// A short run still goes on until its latency sample supports p90.
	for p := 0; time.Since(start) < d || s.latencySamples(ph) < 10*minTail; p++ {
		g := p % len(s.specs)
		s.pass(g, s.specs[g], s.shape.warm, rec, ph)
	}
	if !s.shape.warm {
		s.mu.Lock()
		ph.lat = append([]float64(nil), s.jobNS...)
		s.mu.Unlock()
	}
	return ph, nil
}

// latencySamples counts the run's latency samples so far: passes on the
// warm workload, jobs on the others.
func (s *sweepSession) latencySamples(ph *phase) int {
	if s.shape.warm {
		return len(ph.lat)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobNS)
}

// pass runs one sweep end to end — coordinator, workers, summary, report —
// and checks what it produced. Grid g < 0 is an unchecked warm-up grid.
// cached says whether every job must resolve from the warm cache.
func (s *sweepSession) pass(g int, spec *sweep.Spec, cached bool, rec *recorder, ph *phase) {
	total := spec.Total()
	ph.attempted += total
	cache := s.cache
	if !s.shape.warm && !s.shape.fleet {
		dir, err := os.MkdirTemp(s.work, "cold-*")
		if err == nil {
			defer os.RemoveAll(dir)
			cache, err = campaign.OpenCache(dir)
		}
		if err != nil {
			ph.fail(total, "pass cache: %v", err)
			return
		}
	}
	runner := &sweep.Runner{Cache: cache, RunFunc: s.runFunc(rec)}

	passID := rec.id()
	start := time.Now()
	coord := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{})
	var werrs []error
	if s.shape.fleet {
		werrs = s.runFleet(coord, runner, rec)
	} else {
		var tr sweep.Transport = sweep.LocalTransport{C: coord}
		if rec != nil {
			tr = timedTransport{tr, rec}
		}
		_, err := sweep.RunWorker(tr, runner, sweep.WorkerOptions{Name: "local", Parallel: localParallel})
		werrs = append(werrs, err)
	}
	var sum *sweep.Summary
	rec.timed(passID, "Summarize", func() { sum = coord.Summary() })
	var (
		rep    *sweep.Report
		repErr error
		text   string
	)
	rec.timed(passID, "Report", func() {
		if rep, repErr = sum.Report(); repErr == nil {
			text = rep.Text()
		}
	})
	rec.add(passID, 0, "pass", start)
	wall := time.Since(start)

	for _, err := range werrs {
		if err != nil {
			ph.fail(1, "worker: %v", err)
		}
	}
	if sum.Failed > 0 || sum.FailuresTotal > 0 {
		ph.fail(max(sum.Failed, sum.FailuresTotal), "%d jobs failed: %q", sum.FailuresTotal, sum.Failures)
	}
	if sum.Done != total || int64(sum.CallsTotal()) != total {
		ph.fail(1, "summary covers %d jobs (%d calls), grid has %d", sum.Done, sum.CallsTotal(), total)
	}
	if cached && (sum.Cached != total || sum.Executed != 0) {
		ph.fail(1, "%d of %d jobs resolved from the warm cache, %d executed", sum.Cached, total, sum.Executed)
	}
	if !cached && sum.Executed != total {
		ph.fail(1, "%d of %d jobs executed; the cache should start empty", sum.Executed, total)
	}
	switch {
	case repErr != nil:
		ph.fail(1, "report: %v", repErr)
	case rep.Fingerprint != sum.Fingerprint || !bytes.Contains([]byte(text), []byte(sum.Fingerprint)):
		ph.fail(1, "report does not carry the summary fingerprint %s", sum.Fingerprint)
	}
	if g >= 0 {
		s.checkFingerprint(g, sum.Fingerprint, ph)
	}

	ph.items += total
	ph.passes = append(ph.passes, pass{items: total, wall: wall})
	ph.rss = append(ph.rss, rssMiB())
	if s.shape.warm {
		ph.lat = append(ph.lat, float64(wall))
	}
}

// checkFingerprint holds every pass of a grid to the first fingerprint the
// session saw for it (so a traced pass must equal the timed pass), and to
// the committed fingerprint when there is one.
func (s *sweepSession) checkFingerprint(g int, fp string, ph *phase) {
	if prev, ok := s.seen[g]; ok && prev != fp {
		ph.fail(1, "grid %d: fingerprint %s differs from %s earlier in this run", g, fp, prev)
	} else if !ok {
		s.seen[g] = fp
	}
	if g < len(s.expect) && s.expect[g] != fp {
		ph.fail(1, "grid %d: fingerprint %s, committed %s", g, fp, s.expect[g])
	}
}

// fingerprints returns the fingerprint of every grid the session ran.
func (s *sweepSession) fingerprints() []string {
	out := make([]string, len(s.specs))
	for g := range out {
		out[g] = s.seen[g]
	}
	return out
}

// runFunc times each executed job around sweep.RunJob, the seam the
// Runner already exposes.
func (s *sweepSession) runFunc(rec *recorder) func(sweep.Job) sweep.Metrics {
	return func(j sweep.Job) sweep.Metrics {
		id := rec.id()
		start := time.Now()
		m := sweep.RunJob(j)
		d := time.Since(start)
		rec.add(id, 0, "RunJob", start)
		s.mu.Lock()
		s.jobNS = append(s.jobNS, float64(d))
		s.mu.Unlock()
		return m
	}
}

// runFleet serves the coordinator's routes on an expose server on
// loopback and runs two one-job workers against it over HTTP.
func (s *sweepSession) runFleet(coord *sweep.Coordinator, runner *sweep.Runner, rec *recorder) []error {
	srv := expose.New(nil)
	if rec != nil {
		coord.Routes(timedMux{srv: srv, rec: rec, s: s})
	} else {
		coord.Routes(srv)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return []error{err}
	}
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		ht := sweep.NewHTTPTransport(srv.Addr())
		var tr sweep.Transport = ht
		if rec != nil {
			tr = timedTransport{ht, rec}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer ht.Client.CloseIdleConnections()
			_, errs[w] = sweep.RunWorker(tr, runner,
				sweep.WorkerOptions{Name: fmt.Sprintf("w%d", w), Parallel: 1})
		}(w)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// timedTransport records a span around each lease and completion a worker
// sends: the client's view of the control plane.
type timedTransport struct {
	sweep.Transport
	rec *recorder
}

func (t timedTransport) Lease(worker string, max int64) (resp sweep.LeaseResponse, err error) {
	t.rec.timed(0, "Lease", func() { resp, err = t.Transport.Lease(worker, max) })
	return resp, err
}

func (t timedTransport) Complete(req sweep.CompleteRequest) (resp sweep.CompleteResponse, err error) {
	t.rec.timed(0, "Complete", func() { resp, err = t.Transport.Complete(req) })
	return resp, err
}

// timedMux mounts the coordinator's routes on the expose server, timing
// each request server-side.
type timedMux struct {
	srv *expose.Server
	rec *recorder
	s   *sweepSession
}

func (m timedMux) Handle(pattern string, h http.Handler) {
	name := "server " + pattern
	m.srv.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := m.rec.id()
		start := time.Now()
		h.ServeHTTP(w, r)
		m.rec.add(id, 0, name, start)
		if pattern == "/sweep/complete" {
			m.s.mu.Lock()
			m.s.reqBytes = append(m.s.reqBytes, float64(r.ContentLength))
			m.s.mu.Unlock()
		}
	}))
}

// layers derives the per-layer metrics of a traced run: control-plane and
// pass spans already in rec, then a serial probe over every probeStride-th
// job of the first grid that times each public call a job makes, counts
// its allocations, and replays it with the simulator's counters armed.
func (s *sweepSession) layers(rec *recorder, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	spans := rec.snapshot()
	workers := 1.0
	if s.shape.fleet {
		workers = fleetWorkers
	}
	passWall := sum(durations(spans, "pass"))
	out["sweep.lease_us"] = median(durations(spans, "Lease")) / 1e3
	out["sweep.complete_us"] = median(durations(spans, "Complete")) / 1e3
	out["sweep.complete_server_us"] = median(durations(spans, "server /sweep/complete")) / 1e3
	out["sweep.worker_wait_frac"] = ratio(sum(durations(spans, "Lease"))+sum(durations(spans, "Complete")), workers*passWall)
	out["sweep.summarize_ms"] = median(durations(spans, "Summarize")) / 1e6
	out["sweep.report_ms"] = median(durations(spans, "Report")) / 1e6
	s.mu.Lock()
	out["sweep.complete_req_kb"] = median(s.reqBytes) / 1024
	s.mu.Unlock()

	reg := obs.NewRegistry()
	jobs, allocs, err := s.probe(rec, reg)
	if err != nil {
		return nil, err
	}
	probe := rec.snapshot()[len(spans):]
	ctr := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	events := ctr("sim.events_executed")
	callNS := sum(durations(probe, "RunDualCall")) + sum(durations(probe, "RunDiversiFi"))
	out["sim.events_per_job"] = ratio(events, jobs)
	out["sim.ns_per_event"] = ratio(callNS, events)
	out["phy.attempts_per_job"] = ratio(ctr("phy.tx_attempts"), jobs)
	out["phy.loss_frac"] = ratio(ctr("phy.collision_losses")+ctr("phy.noise_losses"), ctr("phy.tx_attempts"))
	out["mac.attempts_per_frame"] = ratio(ctr("mac.attempts"), ctr("mac.frames"))
	out["ap.enqueued_per_job"] = ratio(ctr("ap.enqueued"), jobs)
	out["ap.queue_drop_frac"] = ratio(ctr("ap.queue_drops"), ctr("ap.enqueued"))
	out["ap.wasted_frac"] = ratio(ctr("ap.tx_wasted"), ctr("ap.tx_delivered")+ctr("ap.tx_wasted")+ctr("ap.tx_lost"))
	out["client.recovered_per_loss"] = ratio(ctr("client.recovered"), ctr("client.losses_detected"))
	out["client.switches_per_job"] = ratio(ctr("client.recovery_switches"), jobs)
	out["core.dual_call_ms"] = median(durations(probe, "RunDualCall")) / 1e6
	out["core.diversifi_call_ms"] = median(durations(probe, "RunDiversiFi")) / 1e6
	out["core.dual_allocs_per_call"] = ratio(allocs["RunDualCall"], jobs)
	out["core.diversifi_allocs_per_call"] = ratio(allocs["RunDiversiFi"], jobs)
	out["trace.cross_link_us"] = median(durations(probe, "CrossLink")) / 1e3
	out["voip.assess_us"] = median(durations(probe, "Assess")) / 1e3
	out["scenario.job_scenario_us"] = median(durations(probe, "Job.Scenario")) / 1e3
	out["campaign.cache_store_us"] = median(durations(probe, "CacheStore")) / 1e3
	out["campaign.cache_load_us"] = median(durations(probe, "CacheLoad")) / 1e3
	out["sweep.observe_us"] = median(durations(probe, "Observe")) / 1e3
	self := selfTimes(probe)
	var gap, wall float64
	for _, sp := range probe {
		if sp.Name == "job" {
			gap += float64(self[sp.ID])
			wall += float64(sp.dur())
		}
	}
	out["bench.probe_gap_frac"] = ratio(gap, wall)

	snap, err := reg.Snapshot().JSON()
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(filepath.Join(dir, "counters.json"), snap, 0o644)
}

// probe replays every probeStride-th job of the first grid serially. The
// job's reference metrics come from sweep.RunJob outside the timed tree;
// inside it, each public call is its own span, and the decomposition must
// reproduce the reference exactly.
func (s *sweepSession) probe(rec *recorder, reg *obs.Registry) (jobs float64, allocs map[string]float64, err error) {
	spec := s.specs[0]
	allocs = map[string]float64{}
	var store *campaign.Cache
	if !s.shape.warm && !s.shape.fleet {
		dir, err := os.MkdirTemp(s.work, "probe-*")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		if store, err = campaign.OpenCache(dir); err != nil {
			return 0, nil, err
		}
	}
	agg := sweep.NewAggregate()
	for i := int64(0); i < spec.Total(); i += probeStride {
		first, err := spec.JobAt(i)
		if err != nil {
			return 0, nil, err
		}
		ref := sweep.RunJob(first)
		refData, err := json.Marshal(ref)
		if err != nil {
			return 0, nil, err
		}

		root := rec.id()
		start := time.Now()
		var job sweep.Job
		rec.timed(root, "JobAt", func() { job, err = spec.JobAt(i) })
		if err != nil {
			return 0, nil, err
		}
		var sc core.Scenario
		if s.shape.warm {
			var data []byte
			var ok bool
			var m sweep.Metrics
			rec.timed(root, "CacheLoad", func() {
				if data, ok = s.cache.LoadRaw(job.Key()); ok {
					err = json.Unmarshal(data, &m)
				}
			})
			if !ok || err != nil || !bytes.Equal(data, refData) {
				return 0, nil, fmt.Errorf("probe job %d: warm cache entry differs from a fresh run (hit %v, %v)", i, ok, err)
			}
		} else {
			rec.timed(root, "Job.Scenario", func() { sc = job.Scenario() })
			var ms runtime.MemStats
			mallocs := func() float64 { runtime.ReadMemStats(&ms); return float64(ms.Mallocs) }
			var (
				dual       core.DualCall
				dvf        core.DiversiFiResult
				cross      *trace.Trace
				q1, q2, q3 voip.Quality
			)
			m0 := mallocs()
			rec.timed(root, "RunDualCall", func() { dual = core.RunDualCall(sc) })
			allocs["RunDualCall"] += mallocs() - m0
			rec.timed(root, "Assess", func() { q1 = voip.Assess(dual.Stronger(), sc.Profile) })
			rec.timed(root, "CrossLink", func() { cross = dual.CrossLink() })
			rec.timed(root, "Assess", func() { q2 = voip.Assess(cross, sc.Profile) })
			m0 = mallocs()
			rec.timed(root, "RunDiversiFi", func() { dvf = core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP}) })
			allocs["RunDiversiFi"] += mallocs() - m0
			rec.timed(root, "Assess", func() { q3 = voip.Assess(dvf.Trace, sc.Profile) })
			if q1.MOS != ref.Scalars["stronger_mos"] || q2.MOS != ref.Scalars["cross_mos"] || q3.MOS != ref.Scalars["diversifi_mos"] {
				return 0, nil, fmt.Errorf("probe job %d: decomposed MOS (%g, %g, %g) differs from sweep.RunJob's (%g, %g, %g)",
					i, q1.MOS, q2.MOS, q3.MOS, ref.Scalars["stronger_mos"], ref.Scalars["cross_mos"], ref.Scalars["diversifi_mos"])
			}
			if store != nil {
				rec.timed(root, "CacheStore", func() {
					var data []byte
					if data, err = json.Marshal(ref); err == nil {
						err = store.StoreRaw(job.Key(), data)
					}
				})
				if err != nil {
					return 0, nil, err
				}
			}
		}
		rec.timed(root, "Observe", func() { agg.Observe(job.CellKey(), ref) })
		rec.add(root, 0, "job", start)

		if !s.shape.warm {
			// The counted replay: the simulator's own counters, armed
			// through sim.ObsProvider, outside the timed tree (arming costs
			// each call about a third more time).
			sim.ObsProvider = func(int64) *obs.Registry { return reg }
			core.RunDualCall(sc)
			core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
			sim.ObsProvider = nil
		}
		jobs++
	}
	return jobs, allocs, nil
}
