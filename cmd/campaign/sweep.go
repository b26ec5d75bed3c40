package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obsflag"
	"repro/internal/sweep"
)

// runSweep is `campaign sweep [expand|report] ...`: the fleet sweep
// driver. The plain form runs a spec to completion — in-process workers,
// optional HTTP control plane for remote `campaign worker` processes — and
// prints the merged Table-1-style summary (or, with -report, the full
// paper artifact). The expand form previews the job stream without running
// anything; the report form re-renders the artifact offline from a saved
// summary JSON.
func runSweep(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "expand" {
		return runSweepExpand(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "report" {
		return runSweepReport(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("campaign sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	local := fs.Int("local", 1, "in-process workers (0 = serve remote workers only, requires -http)")
	parallel := fs.Int("parallel", 0, "job concurrency per in-process worker (0 = NumCPU)")
	batch := fs.Int64("batch", 64, "max jobs per lease")
	ttl := fs.Duration("ttl", 30*time.Second, "lease TTL; a worker silent this long forfeits its span")
	cacheDir := fs.String("cache", campaign.DefaultCacheDir, "shared result cache directory")
	noCache := fs.Bool("no-cache", false, "bypass the result cache entirely")
	summaryPath := fs.String("summary", "", "write the summary JSON to this file")
	asJSON := fs.Bool("json", false, "print the output as JSON instead of text")
	report := fs.Bool("report", false, "print the paper-artifact report (Tables 1-3 + CDFs) instead of the summary table")
	quiet := fs.Bool("quiet", false, "suppress per-lease progress lines")
	obsFlags := obsflag.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: campaign sweep [flags] SPEC.json")
		fmt.Fprintln(stderr, "       campaign sweep expand [-n N] SPEC.json")
		fmt.Fprintln(stderr, "       campaign sweep report [-json] SUMMARY.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	spec, err := sweep.LoadSpec(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 2
	}
	if *local <= 0 && obsFlags.HTTP == "" {
		fmt.Fprintln(stderr, "campaign: -local 0 needs -http (nobody would run the jobs)")
		return 2
	}

	cache, err := openCache(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	sess, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	defer sess.Close()
	sess.HandleSignals("sweep")
	if err := sweep.ValidateSLOBindings(sess.SLO().RuleSet()); err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 2
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	sum, err := fleet{local: *local, parallel: *parallel, batch: *batch, ttl: *ttl,
		cache: cache, progress: progress}.run(spec, sess)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	return finish(sum, sess, *summaryPath, *report, *asJSON, stdout, stderr)
}

// fleet configures one run of the sweep driver, which both `campaign` and
// `campaign sweep` use.
type fleet struct {
	local    int           // in-process workers
	parallel int           // job concurrency per worker (0 = NumCPU)
	batch    int64         // max jobs per lease
	ttl      time.Duration // lease TTL (0 = the coordinator's default)
	timeout  time.Duration // per-attempt job timeout (0 = none)
	cache    *campaign.Cache
	progress io.Writer // per-lease lines and the header; nil = quiet
}

// run drives spec to completion: a coordinator, mounted on the session's
// control plane when -http is set, and f.local in-process workers. With no
// local workers every job runs on remote ones, so it blocks on the
// coordinator instead of the (empty) local pool.
func (f fleet) run(spec *sweep.Spec, sess *obsflag.Session) (*sweep.Summary, error) {
	coord := sweep.NewCoordinator(spec, sweep.CoordinatorOptions{
		Batch: f.batch, TTL: f.ttl,
		Obs: sess.Reg, Flight: sess.Flight(),
		SLO: sess.SLO().RuleSet(),
	})
	if srv := sess.HTTP(); srv != nil {
		coord.Routes(srv)
	}
	if f.progress != nil {
		fmt.Fprintf(f.progress, "sweep %q: %s (spec %s)\n", spec.Name, spec.Grid(), spec.Hash())
	}
	runner := &sweep.Runner{Cache: f.cache, Timeout: f.timeout, Flight: sess.Flight()}
	var wg sync.WaitGroup
	errs := make([]error, f.local)
	for w := 0; w < f.local; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_, errs[n] = sweep.RunWorker(sweep.LocalTransport{C: coord}, runner,
				sweep.WorkerOptions{
					Name:     fmt.Sprintf("local%d", n),
					Parallel: f.parallel,
					Progress: f.progress,
					SLO:      sess.SLO(),
				})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	<-coord.Finished()
	return coord.Summary(), nil
}

// openCache opens the shared result cache, or returns nil with -no-cache.
func openCache(dir string, off bool) (*campaign.Cache, error) {
	if off {
		return nil, nil
	}
	return campaign.OpenCache(dir)
}

// finish writes a finished fleet's -summary file and its output, closes
// the session, and returns the exit code: 1 if any job failed.
func finish(sum *sweep.Summary, sess *obsflag.Session, summaryPath string, report, asJSON bool, stdout, stderr io.Writer) int {
	if summaryPath != "" {
		data, err := sum.JSON()
		if err == nil {
			err = os.WriteFile(summaryPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "campaign: write summary:", err)
			return 1
		}
	}
	if err := emitSweepOutput(sum, report, asJSON, stdout); err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	if sum.Failed > 0 {
		return 1
	}
	return 0
}

// runSweepExpand is `campaign sweep expand`: count a spec's job stream and
// preview its first jobs without running anything. The stream is lazy, so
// this is instant even for a million-job spec.
func runSweepExpand(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign sweep expand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int64("n", 0, "also list the first N jobs (0 = just the count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: campaign sweep expand [-n N] SPEC.json")
		return 2
	}
	spec, err := sweep.LoadSpec(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 2
	}
	fmt.Fprintf(stdout, "sweep %q (spec %s): %s\n",
		spec.Name, spec.Hash(), spec.Grid())
	limit := *n
	if limit > spec.Total() {
		limit = spec.Total()
	}
	for i := int64(0); i < limit; i++ {
		j, err := spec.JobAt(i)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%8d  %-32s seed %-8d key %s\n", j.Index, j.CellKey(), j.Seed, j.Key())
	}
	return 0
}

// emitSweepOutput prints a finished sweep either as the one-line-per-cell
// summary or, with report set, as the full paper artifact rendered from the
// merged sketches.
func emitSweepOutput(sum *sweep.Summary, report, asJSON bool, stdout io.Writer) error {
	if report {
		rep, err := sum.Report()
		if err != nil {
			return err
		}
		if asJSON {
			data, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(data))
			return nil
		}
		fmt.Fprint(stdout, rep.Text())
		return nil
	}
	if asJSON {
		data, err := sum.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	fmt.Fprint(stdout, sum.Text())
	return nil
}

// runSweepReport is `campaign sweep report SUMMARY.json`: re-render the
// paper artifact (Tables 1-3, MOS quantiles, CDF figures) offline from a
// summary written by `campaign sweep -summary`. Nothing is re-run — the
// report comes entirely from the merged sketches in the file.
func runSweepReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign sweep report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print the report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: campaign sweep report [-json] SUMMARY.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 2
	}
	sum, err := sweep.LoadSummary(data)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 2
	}
	if err := emitSweepOutput(sum, true, *asJSON, stdout); err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	return 0
}

// runWorkerCmd is `campaign worker -connect ADDR`: one sharded sweep worker.
// It pulls job leases from a coordinator's control plane, runs them through
// the shared cache, and reports merged sketches until the sweep completes.
func runWorkerCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address (host:port or http://host:port) — required")
	name := fs.String("name", "", "worker name in the fleet view (default host:pid)")
	parallel := fs.Int("parallel", 0, "job concurrency (0 = NumCPU)")
	batch := fs.Int64("batch", 0, "max jobs per lease (0 = coordinator's cap)")
	cacheDir := fs.String("cache", campaign.DefaultCacheDir, "shared result cache directory")
	noCache := fs.Bool("no-cache", false, "bypass the result cache entirely")
	quiet := fs.Bool("quiet", false, "suppress per-lease progress lines")
	obsFlags := obsflag.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: campaign worker -connect ADDR [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *connect == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	cache, err := openCache(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	sess, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	defer sess.Close()
	sess.HandleSignals("worker")
	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	stats, err := sweep.RunWorker(sweep.NewHTTPTransport(*connect),
		&sweep.Runner{Cache: cache, Flight: sess.Flight()},
		sweep.WorkerOptions{Name: *name, Parallel: *parallel, Batch: *batch, Progress: progress,
			Obs: sess.Reg, Flight: sess.Flight(), SLO: sess.SLO()})
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	if cerr := sess.Close(); cerr != nil {
		fmt.Fprintln(stderr, "campaign:", cerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s: sweep done — %d leases, %d jobs (%d executed, %d cached, %d failed, %d expired)\n",
		*name, stats.Leases, stats.Jobs, stats.Executed, stats.Cached, stats.Failed, stats.Ignored)
	if stats.Failed > 0 {
		return 1
	}
	return 0
}

// runCacheCmd is `campaign cache stat|gc`: inspect and prune the shared
// content-addressed result cache.
func runCacheCmd(args []string, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintln(stderr, "usage: campaign cache stat [-cache DIR]")
		fmt.Fprintln(stderr, "       campaign cache gc [-cache DIR] [-max-age D] [-max-bytes N]")
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("campaign cache "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cacheDir := fs.String("cache", campaign.DefaultCacheDir, "result cache directory")
	maxAge := fs.Duration("max-age", 0, "gc: drop entries older than this (0 = no age rule)")
	maxBytes := fs.Int64("max-bytes", 0, "gc: then drop oldest entries until the cache fits this budget (0 = no size rule)")
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		usage()
		return 2
	}
	cache, err := campaign.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	switch sub {
	case "stat":
		st, err := cache.Stat()
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		temp := ""
		if st.Temp > 0 {
			temp = fmt.Sprintf(" and %d temp files", st.Temp)
		}
		fmt.Fprintf(stdout, "cache %s: %d entries%s, %s\n", st.Dir, st.Entries, temp, fmtBytes(st.Bytes))
		if st.Entries+st.Temp > 0 {
			fmt.Fprintf(stdout, "oldest %s, newest %s\n",
				(time.Duration(st.OldestAgeMS) * time.Millisecond).Round(time.Second),
				(time.Duration(st.NewestAgeMS) * time.Millisecond).Round(time.Second))
		}
		return 0
	case "gc":
		if *maxAge == 0 && *maxBytes == 0 {
			fmt.Fprintln(stderr, "campaign: gc needs -max-age and/or -max-bytes (refusing to guess)")
			return 2
		}
		res, err := cache.GC(*maxAge, *maxBytes)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintf(stdout, "gc %s: removed %d entries (%s), kept %d (%s)\n",
			cache.Dir(), res.Removed, fmtBytes(res.RemovedBytes), res.Kept, fmtBytes(res.KeptBytes))
		return 0
	default:
		usage()
		return 2
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
