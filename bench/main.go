// Command bench is the repository's benchmark of record. It runs one named
// workload — a cold paper sweep, a warm resume from the result cache, an
// HTTP worker fleet, or the live UDP relay — through the packages' public
// functions, checks that the outputs are correct, and prints every
// end-to-end metric as "name value unit" followed by one JSON result line.
// With --trace 1 it instead runs the workload traced and prints the
// per-layer metrics, writing spans, counters and a CPU profile to
// --trace-dir. See README.md for the metrics, the workloads and why each
// was chosen.
//
//	bench --workload sweep-cold --seed 1 --seconds 20 --trace 0
//	bench                               # every workload, each in a child process
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// session is one set-up of a workload, ready to be measured.
type session interface {
	// run measures the workload for about d; rec, when non-nil, records
	// spans around the calls the workload makes.
	run(d time.Duration, rec *recorder) (*phase, error)
	// layers returns the per-layer metrics of a traced run recorded in
	// rec, writing the workload's own artifacts to dir.
	layers(rec *recorder, dir string) (map[string]float64, error)
	close() error
}

// phase is what one measured run of a session produced.
type phase struct {
	items     int64     // work items done: jobs, or datagrams offered
	passes    []pass    // one per pass of a closed loop; the open loop's whole run
	lat       []float64 // latency samples, ns
	rss       []float64 // resident set sampled through the run, MiB
	attempted int64     // operations attempted, for the failure count
	failed    int64     // failed operations plus correctness violations
	notes     []string  // the first violations, for the log
	cpu       time.Duration
	alloc     uint64 // bytes allocated
}

// pass is one timed stretch of work: a sweep pass, or the relay's whole
// run.
type pass struct {
	items int64
	wall  time.Duration
}

func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	if len(p.notes) < 16 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// workload opens a session for a seed; expect holds the committed summary
// fingerprints its grids must reproduce (nil when none are committed).
type workload struct {
	name string
	open func(seed int64, expect []string) (session, error)
}

// The workloads, and why each was chosen, are described in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{"sweep-cold", func(seed int64, expect []string) (session, error) { return openSweep(sweepCold, seed, expect) }},
	{"sweep-warm", func(seed int64, expect []string) (session, error) { return openSweep(sweepWarm, seed, expect) }},
	{"fleet-http", func(seed int64, expect []string) (session, error) { return openSweep(fleetHTTP, seed, expect) }},
	{"relay-live", func(seed int64, _ []string) (session, error) { return openRelay(relayLive, seed) }},
}

// A timed run sets its workload up at least setupRepeats times and for at
// least a tenth of the time it measures; setup_s is the median, so one
// slow set-up does not decide it, and a set-up of milliseconds is repeated
// often enough to be measured.
const setupRepeats = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from an untraced run. An item is a job on the sweeps and an
// offered datagram on the relay. The run's speed — throughput, latency,
// CPU per item — is in perLayer instead: on a shared 2-core VM it moved by
// more than the 10% an end-to-end metric may move between runs of one
// commit (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_kb_per_item", "KiB"},
	{"rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload never enters
// reads 0 there.
var perLayer = append([]metricDef{
	{"sim.events_per_job", "count"},
	{"sim.ns_per_event", "ns"},
	{"phy.attempts_per_job", "count"},
	{"phy.loss_frac", "ratio"},
	{"mac.attempts_per_frame", "count"},
	{"ap.enqueued_per_job", "count"},
	{"ap.queue_drop_frac", "ratio"},
	{"ap.wasted_frac", "ratio"},
	{"client.recovered_per_loss", "ratio"},
	{"client.switches_per_job", "count"},
	{"core.dual_call_ms", "ms"},
	{"core.diversifi_call_ms", "ms"},
	{"core.dual_allocs_per_call", "count"},
	{"core.diversifi_allocs_per_call", "count"},
	{"trace.cross_link_us", "us"},
	{"voip.assess_us", "us"},
	{"scenario.job_scenario_us", "us"},
	{"campaign.cache_store_us", "us"},
	{"campaign.cache_load_us", "us"},
	{"sweep.observe_us", "us"},
	{"sweep.lease_us", "us"},
	{"sweep.complete_us", "us"},
	{"sweep.complete_server_us", "us"},
	{"sweep.complete_req_kb", "KiB"},
	{"sweep.worker_wait_frac", "ratio"},
	{"sweep.summarize_ms", "ms"},
	{"sweep.report_ms", "ms"},
	{"emu.direct_lat_us_p50", "us"},
	{"emu.middlebox_lat_us_p50", "us"},
	{"emu.lat_us_p99", "us"},
	{"emu.ctrl_rtt_us_p50", "us"},
	{"emu.replicator_fanout", "ratio"},
	{"emu.headdrop_per_outage", "count"},
	{"bench.throughput_per_s", "1/s"},
	{"bench.latency_us_p50", "us"},
	{"bench.latency_us_p90", "us"},
	{"bench.cpu_us_per_item", "us"},
	{"bench.gen_late_us_p99", "us"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.probe_gap_frac", "ratio"},
}, cpuSelfMetrics()...)

func cpuSelfMetrics() []metricDef {
	out := make([]metricDef, len(cpuModules))
	for i, m := range cpuModules {
		out[i] = metricDef{m + ".cpu_self_frac", "ratio"}
	}
	return out
}

//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

// committed returns the committed summary fingerprints of a workload's
// grids for a seed (seed 1 only).
func committed(name string, seed int64) ([]string, error) {
	if seed != 1 {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/fingerprints.json: %w", err)
	}
	return all[name], nil
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "all", "workload: "+strings.Join(names, ", ")+", or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 20, "how long a run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans, counters and its CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	expect, err := committed(w.name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return report(*w, runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		dir: filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed)), expect: expect}, stdout, stderr)
}

// report runs one workload and prints its stamp, metrics and result line.
// The exit code is nonzero when the run failed or any output was wrong.
func report(w workload, o runOpts, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, stamp(w.name, o))
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "bench: %s: violation: %s\n", w.name, n)
	}
	if len(res.fingerprints) > 0 {
		fp, _ := json.Marshal(res.fingerprints)
		fmt.Fprintf(stderr, "bench: %s: seed %d grid fingerprints %s\n", w.name, o.seed, fp)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string   // traced runs' artifacts
	expect  []string // committed fingerprints, nil when none
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs         []metricDef
	notes        []string
	fingerprints []string // per grid, for sweeps ("" for a grid not run)
}

func newResult(defs []metricDef, values map[string]float64, phases ...*phase) *result {
	r := &result{Metrics: map[string]metricValue{}, defs: defs}
	for _, p := range phases {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.notes = append(r.notes, p.notes...)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

func (r *result) print(w io.Writer) error {
	for _, d := range r.defs {
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// runWorkload sets the workload up, measures it, and returns its result:
// end-to-end metrics from an untraced run, or per-layer metrics from a
// traced one.
func runWorkload(w workload, o runOpts) (*result, error) {
	var (
		setups []float64
		sess   session
		spent  time.Duration
	)
	// setup_s is an end-to-end metric; a traced run sets up once.
	for !o.traced && (len(setups) < setupRepeats || spent < o.seconds/10) || len(setups) == 0 {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		s, err := w.open(o.seed, o.expect)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		spent += took
		sess = s
	}
	defer sess.close()
	withFingerprints := func(r *result) *result {
		if s, ok := sess.(*sweepSession); ok {
			r.fingerprints = s.fingerprints()
		}
		return r
	}

	if !o.traced {
		ph, err := measure(sess, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		return withFingerprints(newResult(endToEnd, endToEndValues(setups, ph), ph)), nil
	}

	// Traced: an untraced half first, for the overhead baseline and the
	// fingerprints the traced half must reproduce, then the traced half
	// under the CPU profiler.
	half := o.seconds / 2
	timed, err := measure(sess, half, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	profile := filepath.Join(o.dir, "cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	traced, err := measure(sess, half, rec)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	values, err := sess.layers(rec, o.dir)
	if err != nil {
		return nil, err
	}
	split, err := cpuSplit(profile)
	if err != nil {
		return nil, err
	}
	for m, v := range split {
		values[m+".cpu_self_frac"] = v
	}
	speed, err := speedValues(timed)
	if err != nil {
		return nil, err
	}
	for m, v := range speed {
		values[m] = v
	}
	values["bench.trace_overhead_frac"] = ratio(perItem(traced), perItem(timed)) - 1
	if err := writeJSONL(filepath.Join(o.dir, "spans.jsonl"), rec.snapshot()); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.dir, "stamp.txt"), []byte(stamp(w.name, o)+"\n"), 0o644); err != nil {
		return nil, err
	}
	return withFingerprints(newResult(perLayer, values, timed, traced)), nil
}

// measure runs the session for d and charges it the process CPU time and
// heap allocation the run took.
func measure(s session, d time.Duration, rec *recorder) (*phase, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	ph, err := s.run(d, rec)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	return ph, nil
}

// perItem is a phase's CPU time per work item, in seconds.
func perItem(p *phase) float64 { return ratio(p.cpu.Seconds(), float64(p.items)) }

// endToEndValues returns the end-to-end metrics of a timed run: the
// median set-up time, allocation per item and the median resident set.
func endToEndValues(setups []float64, ph *phase) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(setups),
		"alloc_kb_per_item": ratio(float64(ph.alloc)/1024, float64(ph.items)),
		"rss_mb":            median(ph.rss),
	}
}

// speedValues returns a run's speed: its median pass rate, latency
// percentiles and CPU time per item.
func speedValues(ph *phase) (map[string]float64, error) {
	var rates []float64
	for _, p := range ph.passes {
		rates = append(rates, float64(p.items)/p.wall.Seconds())
	}
	lat := sortedCopy(ph.lat)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	p90, err := percentile(lat, 0.90)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return map[string]float64{
		"bench.throughput_per_s": median(rates),
		"bench.latency_us_p50":   p50 / 1e3,
		"bench.latency_us_p90":   p90 / 1e3,
		"bench.cpu_us_per_item":  perItem(ph) * 1e6,
	}, nil
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB returns the process's resident set now, in MiB, or 0 where
// /proc/self/statm cannot be read.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// stamp records what a result was measured on.
func stamp(name string, o runOpts) string {
	trace := 0
	if o.traced {
		trace = 1
	}
	return fmt.Sprintf("# stamp go=%s gomaxprocs=%d nproc=%d cpu=%q kernel=%s commit=%s seed=%d workload=%s trace=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), kernel(), gitCommit(),
		o.seed, name, trace)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitCommit is the commit of the working directory's own repository, or
// "unknown" outside one: git may not search parent directories.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in its own child process, with the same
// flags, and fails if any of them does.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
