// Command campaign runs fleets of jobs on the sweep engine
// (internal/sweep): registered experiments, simulated-call grids and
// scenario corpora, through one content-addressed result cache.
//
// Usage:
//
//	campaign [-jobs all|kind|id,id,...] [-seed N] [-n N] [-workers N]
//	         [-timeout D] [-cache DIR] [-no-cache] [-out DIR]
//	         [-summary FILE] [-json] [-quiet] [-list]
//	         [-metrics FILE] [-trace FILE] [-series PATH[,WINDOW]]
//	         [-pprof DIR] [-http ADDR] [-flight DIR[,N]]
//	campaign watch [-interval D] [-once] [-no-clear] ADDR
//	campaign sweep [-local N] [-parallel N] [-batch N] [-ttl D]
//	         [-cache DIR] [-no-cache] [-summary FILE] [-json] [-report]
//	         [-quiet] [-http ADDR] [-trace FILE] [-flight DIR[,N]] SPEC.json
//	campaign sweep expand [-n N] SPEC.json
//	campaign sweep report [-json] SUMMARY.json
//	campaign worker -connect ADDR [-name NAME] [-parallel N] [-batch N]
//	         [-cache DIR] [-no-cache] [-quiet] [-trace FILE] [-flight DIR[,N]]
//	campaign cache stat|gc [-cache DIR] [-max-age D] [-max-bytes N]
//
// The plain form runs the experiments registered in exp.Registry() — the
// paper's tables and figures — as an experiments-source sweep: one
// in-process worker per -workers, one job per lease, each job addressed by
// (id, seed, n) and resolved through the cache with panic isolation, one
// retry and the -timeout. Re-running a campaign is instant and an
// interrupted one resumes where it stopped. The process exits 1 if any
// job failed, but a failing job never aborts the fleet. -json and -summary
// write the sweep-summary-v2 document; -out writes its results as CSV.
//
// The observability flags (-metrics, -trace, -series, -pprof, -http) are
// shared with cmd/experiments; see docs/OBSERVABILITY.md. Jobs run
// concurrently, so simulator-level metrics aggregate across the fleet, with
// trace lines distinguished by their per-simulation run label. With -http
// set the driver additionally serves the coordinator's control plane and
// the live fleet view at /campaign/status, which `campaign watch ADDR`
// renders as a refreshing terminal table.
//
// The sweep subcommands drive the same engine (see docs/FLEET.md): `sweep`
// runs any spec to a merged sketch-backed summary (with -report, the
// paper artifact of docs/RESULTS.md — Tables 1-3 plus CDF figures — or an
// experiments spec's results as `experiments all` prints them), `sweep
// expand` previews the lazy job stream, `sweep report` re-renders the
// artifact offline from a saved -summary file, `worker` joins a remote
// coordinator's sweep over its control plane, and `cache` inspects or
// prunes the shared content-addressed result cache.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/obsflag"
	"repro/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "watch":
			return runWatch(os.Args[2:], os.Stdout, os.Stderr)
		case "sweep":
			return runSweep(os.Args[2:], os.Stdout, os.Stderr)
		case "worker":
			return runWorkerCmd(os.Args[2:], os.Stdout, os.Stderr)
		case "cache":
			return runCacheCmd(os.Args[2:], os.Stdout, os.Stderr)
		}
	}
	return runCampaign(os.Args[1:], os.Stdout, os.Stderr)
}

// runCampaign is plain `campaign [flags]`: the registered experiments
// picked by -jobs, run as an experiments-source sweep.
func runCampaign(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobsSel := fs.String("jobs", "all", "fleet selector: all, a kind (table, figure, scaling, ablation, extension, calibration), or a comma-separated id list")
	seed := fs.Int64("seed", 42, "root random seed")
	n := fs.Int("n", 0, "corpus size override (0 = each experiment's paper size)")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = NumCPU)")
	timeout := fs.Duration("timeout", 15*time.Minute, "per-job wall-clock timeout (0 = none)")
	cacheDir := fs.String("cache", campaign.DefaultCacheDir, "result cache directory")
	noCache := fs.Bool("no-cache", false, "bypass the result cache entirely")
	outDir := fs.String("out", "", "also write each successful job's CSV to <dir>/<id>.csv")
	summaryPath := fs.String("summary", "", "write the summary JSON to this file")
	asJSON := fs.Bool("json", false, "print the summary as JSON instead of text")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines")
	list := fs.Bool("list", false, "list registered experiments and exit")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "campaign: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, s := range exp.Registry() {
			fmt.Fprintf(stdout, "%-24s %-12s n=%-4d %s\n", s.ID, s.Kind, s.DefaultN, s.Title)
		}
		return 0
	}

	spec, err := experimentsSpec(*jobsSel, *seed, *n)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
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
	sess.HandleSignals("campaign")

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	sum, err := fleet{local: *workers, parallel: 1, batch: 1, timeout: *timeout,
		cache: cache, progress: progress}.run(spec, sess)
	if err != nil {
		fmt.Fprintln(stderr, "campaign:", err)
		return 1
	}
	if *outDir != "" {
		if err := writeCSVs(*outDir, sum.Results); err != nil {
			fmt.Fprintln(stderr, "campaign: write csv:", err)
			return 1
		}
	}
	return finish(sum, sess, *summaryPath, false, *asJSON, stdout, stderr)
}

// experimentsSpec is the sweep a registry campaign runs: the selected
// experiments at one seed. An empty selector means all.
func experimentsSpec(sel string, seed int64, n int) (*sweep.Spec, error) {
	if strings.TrimSpace(sel) == "" {
		sel = "all"
	}
	doc, err := json.Marshal(sweep.Spec{Name: "campaign", Experiments: strings.Split(sel, ","),
		N: n, Seeds: sweep.SeedRange{Start: seed, Count: 1}})
	if err != nil {
		return nil, err
	}
	return sweep.ParseSpec(doc)
}

// writeCSVs writes each experiment result's tables to <dir>/<id>.csv.
func writeCSVs(dir string, results []*exp.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		if err := os.WriteFile(filepath.Join(dir, r.ID+".csv"), []byte(r.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
