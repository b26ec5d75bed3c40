package sweep

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// MetricsSchema versions cached per-job metric records. v2 widened the
// record from a fixed stronger/cross field pair to the keyed metric set of
// metrickeys.go (three strategies, duplication bytes, recovery-delay
// decomposition); v1 cache entries fail the schema check and re-execute.
const MetricsSchema = "sweep-metrics-v2"

// Metrics is one job's outcome: the population-level quality signals of a
// single simulated call under all three strategies (stronger-link
// selection, cross-link replication, DiversiFi). Scalars and Series are
// keyed by the canonical metric table (MetricKeys); Poor by strategy name.
// This is the unit the per-cell sketches aggregate — per-job records are
// never retained beyond this struct's lifetime.
type Metrics struct {
	Schema string `json:"schema"`

	// Scalars holds one observation per KindScalar metric.
	Scalars map[string]float64 `json:"scalars"`
	// Series holds zero or more observations per KindSeries metric (the
	// recovery-delay components: one entry per recovery episode).
	Series map[string][]float64 `json:"series,omitempty"`
	// Poor flags the poor-call verdict (MOS < threshold) per strategy.
	Poor map[string]bool `json:"poor"`

	// Result is an experiment job's outcome (experiments source only).
	Result *exp.Result `json:"result,omitempty"`
}

// valid reports whether a decoded record is structurally usable.
func (m Metrics) valid() bool {
	return m.Schema == MetricsSchema && m.Scalars != nil && m.Poor != nil
}

// RunJob executes one sweep job on the real simulator: draw the scenario
// for the job's grid cell, run the two-NIC dual call (assessing both the
// stronger-selection and cross-link-replication receivers), then replay the
// same scenario through the single-NIC DiversiFi client (custom-AP mode)
// for the paper's strategy, including its per-recovery delay decomposition.
// An experiment job runs its registered experiment instead.
func RunJob(j Job) Metrics {
	if j.experiment != nil {
		return Metrics{Schema: MetricsSchema, Result: j.experiment.Run(j.corpusN(), j.Seed)}
	}
	sc := j.Scenario()
	profile, _ := traffic.ProfileByKey(j.spec.Profile)
	m := Metrics{
		Schema:  MetricsSchema,
		Scalars: make(map[string]float64, scalarMetrics),
		Series:  make(map[string][]float64, seriesMetrics),
		Poor:    make(map[string]bool, len(Strategies())),
	}

	d := core.RunDualCall(sc)
	observeQuality(&m, strongerKeys, voip.Assess(d.Stronger(), profile))
	observeQuality(&m, crossKeys, voip.AssessMerged(d.TraceA, d.TraceB, profile))

	// Cross-link duplication cost: every packet delivered on both links
	// bought airtime without buying recovery.
	if n := d.TraceA.Len(); n > 0 {
		both := 0
		for seq := 0; seq < n; seq++ {
			if d.TraceA.Arrived(seq) && d.TraceB.Arrived(seq) {
				both++
			}
		}
		m.Scalars[crossDupKey] = float64(both) * float64(profile.PacketBytes)
	}
	// RunJob holds the only references to its two results, so it hands
	// their traces, series and logs back once scored: DiversiFi's call
	// reuses the dual call's storage, and later jobs reuse the rest.
	d.Release()

	r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: core.ModeCustomAP})
	defer r.Release()
	observeQuality(&m, diversifiKeys, voip.Assess(r.Trace, profile))
	m.Scalars[diversifiDupKey] =
		r.WastefulRate * float64(r.Trace.Len()) * float64(profile.PacketBytes)
	if n := len(r.Recoveries); n > 0 {
		detect, sw, retrieve, total := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i, ev := range r.Recoveries {
			detect[i] = toMS(ev.Detect)
			sw[i] = toMS(ev.Switch)
			retrieve[i] = toMS(ev.Retrieve)
			total[i] = toMS(ev.Total)
		}
		m.Series["recovery_detect_ms"] = detect
		m.Series["recovery_switch_ms"] = sw
		m.Series["recovery_retrieve_ms"] = retrieve
		m.Series["recovery_total_ms"] = total
	}
	return m
}

// qualityKeys are one strategy's quality metric keys.
type qualityKeys struct {
	strategy, mos, worst, missPct string
}

func newQualityKeys(strategy string) qualityKeys {
	return qualityKeys{strategy: strategy, mos: metricKey(strategy, "mos"),
		worst: metricKey(strategy, "worst"), missPct: metricKey(strategy, "miss_pct")}
}

// The keys RunJob writes, each built once; metricKey panics at package
// init on a key missing from the table. scalarMetrics and seriesMetrics
// size a job's record.
var (
	strongerKeys                 = newQualityKeys(StrategyStronger)
	crossKeys                    = newQualityKeys(StrategyCross)
	diversifiKeys                = newQualityKeys(StrategyDiversiFi)
	crossDupKey                  = metricKey(StrategyCross, "dup_bytes")
	diversifiDupKey              = metricKey(StrategyDiversiFi, "dup_bytes")
	scalarMetrics, seriesMetrics = countMetricKinds()
)

// countMetricKinds counts the table's scalar and series metrics.
func countMetricKinds() (scalars, series int) {
	for _, d := range metricDefs {
		if d.Kind == KindSeries {
			series++
		} else {
			scalars++
		}
	}
	return scalars, series
}

// observeQuality folds one receiver's assessed call quality into the
// strategy's scalar metrics and poor-call flag.
func observeQuality(m *Metrics, k qualityKeys, q voip.Quality) {
	m.Scalars[k.mos] = q.MOS
	m.Scalars[k.worst] = q.WorstWindowLoss
	m.Scalars[k.missPct] = 100 * q.LossRate
	m.Poor[k.strategy] = q.Poor
}

func toMS(d sim.Duration) float64 { return float64(d) / 1000 }

// Scenario materializes the job's simulated call: the cell picks the
// impairment class, the device class the MIMO order, the AP density the
// impairment severity, and the job's content key seeds both the scenario
// draw and the call's in-simulator randomness.
//
// Scenario-axis jobs instead compile scenario ScenarioIndex of the
// embedded scenario-v1 spec — geometry, link parameters, and impairment
// knobs all come from the generator — and only the call's in-simulator
// seed varies along the seed axis.
func (j Job) Scenario() core.Scenario {
	if j.spec.scn != nil {
		sc := j.spec.scn.Generate(int(j.ScenarioIndex)).Scenario
		_, callSeed := j.seeds()
		sc.Seed = callSeed
		return sc
	}
	scenarioSeed, callSeed := j.seeds()
	sev := j.spec.Severity * densityByName(j.Density).Severity
	imp, _ := core.ImpairmentByName(j.Impairment)
	profile, _ := traffic.ProfileByKey(j.spec.Profile)
	sc := core.RandomScenarioSeverity(rng.New(scenarioSeed), imp, profile, callSeed, sev)
	sc.Duration = sim.FromSeconds(j.spec.DurationS)
	return sc.WithMIMO(deviceByName(j.Device).MIMOOrder)
}

// Runner resolves jobs through the shared content-addressed cache and
// executes misses. RunFunc defaults to RunJob; tests and synthetic
// benchmarks substitute a cheap metric generator.
type Runner struct {
	RunFunc func(Job) Metrics
	Cache   *campaign.Cache // nil disables caching
	// Timeout bounds each attempt's wall clock (0 = none). The simulator
	// has no cancellation points, so a timed-out job runs on, abandoned.
	Timeout time.Duration

	// Flight, when non-nil, is dumped when a job panics or times out, so
	// the postmortem carries the events leading up to it.
	Flight *flight.Recorder
}

// panicStackLimit caps the stack captured into a panic error message —
// enough for the crash site and its callers without ballooning lease
// reports (CompleteRequest carries these errors over the wire).
const panicStackLimit = 4 << 10

// Do resolves one job: cache hit, or execute + store. A failed attempt (a
// panic, a timeout, an experiment returning nil) is retried once; what
// still fails comes back as an error carrying the panic stack and the
// flight-dump path, so one pathological job cannot take down a worker and
// stays diagnosable after the fact. Do reads and encodes each entry in a
// buffer from a pool it owns, so an entry's bytes cost no allocation and
// the codec keeps none of them; an entry the codec refuses is evicted and
// the job re-executed once.
func (r *Runner) Do(j Job) (m Metrics, cached bool, err error) {
	key := j.Key()
	if r.Cache != nil {
		if m, ok := r.load(j, key); ok {
			return m, true, nil
		}
	}
	m, err = r.attempt(j)
	if err != nil {
		m, err = r.attempt(j) // one retry
	}
	if err != nil {
		return Metrics{}, false, err
	}
	if r.Cache != nil {
		r.store(j, key, m)
	}
	return m, false, nil
}

// load reads and decodes the entry cached under key, evicting one it
// cannot decode.
func (r *Runner) load(j Job, key string) (Metrics, bool) {
	buf := entryBufs.Get().(*[]byte)
	defer putEntryBuf(buf)
	data, hit := r.Cache.AppendRaw((*buf)[:0], key)
	*buf = data
	if !hit {
		return Metrics{}, false
	}
	m, ok := decodeEntry(j, data)
	if !ok {
		r.Cache.RemoveRaw(key) // stale schema or corruption: one re-execution
	}
	return m, ok
}

// store encodes m and caches it under key. A record the codec refuses is
// not stored, and a cache write failure degrades re-run speed, not
// correctness.
func (r *Runner) store(j Job, key string, m Metrics) {
	buf := entryBufs.Get().(*[]byte)
	defer putEntryBuf(buf)
	data, err := encodeEntry(j, m, (*buf)[:0])
	*buf = data
	if err == nil {
		_ = r.Cache.StoreRaw(key, data)
	}
}

// attempt runs the job once: inline, or with a timeout on a goroutine of
// its own.
func (r *Runner) attempt(j Job) (Metrics, error) {
	if r.Timeout <= 0 {
		return r.run(j)
	}
	type outcome struct {
		m   Metrics
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		m, err := r.run(j)
		ch <- outcome{m, err}
	}()
	select {
	case o := <-ch:
		return o.m, o.err
	case <-time.After(r.Timeout):
		return Metrics{}, fmt.Errorf("job %d (%s seed %d): timeout after %s%s",
			j.Index, j.Name(), j.Seed, r.Timeout, r.dump(fmt.Sprintf("timeout-job-%d", j.Index)))
	}
}

// run calls the job body with panic recovery.
func (r *Runner) run(j Job) (m Metrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if len(stack) > panicStackLimit {
				stack = stack[:panicStackLimit]
			}
			err = fmt.Errorf("job %d (%s seed %d): panic: %v%s\n%s",
				j.Index, j.Name(), j.Seed, p, r.dump(fmt.Sprintf("panic-job-%d", j.Index)), stack)
		}
	}()
	run := r.RunFunc
	if run == nil {
		run = RunJob
	}
	m = run(j)
	if j.experiment != nil && m.Result == nil {
		return Metrics{}, fmt.Errorf("job %d (%s seed %d): experiment returned nil result",
			j.Index, j.Name(), j.Seed)
	}
	m.Schema = MetricsSchema
	return m, nil
}

// dump writes the flight ring, returning the failure message's suffix.
func (r *Runner) dump(tag string) string {
	path, err := r.Flight.Dump(tag)
	if err != nil || path == "" {
		return ""
	}
	return "\nflight dump: " + path
}
