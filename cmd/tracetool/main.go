// Command tracetool analyzes JSONL traces produced by the -trace flag of
// cmd/experiments and cmd/campaign (schema: docs/OBSERVABILITY.md), via
// the one-pass engine in internal/obs/analyze.
//
// Usage:
//
//	tracetool lint [-max N] FILE...
//	tracetool episodes [-json] FILE...
//	tracetool series [-json] [-window DUR] FILE...
//	tracetool summary [-json] FILE...
//	tracetool export [-format chrome] [-o FILE] FILE
//
// A trace may mix three event families: packets (simulation and relay
// traffic), fleet (the fleet-trace-v1 lease lifecycle a sharded sweep
// emits) and slo (the slo-trace-v1 alert transitions of the streaming SLO
// engine). lint, episodes and export detect them and print the section of
// every family present in the file — the packet section when none is. lint
// and episodes exit 1 when any family's lint is dirty, so CI can gate on
// clean traces.
//
// lint checks every line against the trace contract — strict schema
// decode, per-stream timestamp ordering, and each family's state machine:
// packet episode well-formedness and retrieval causality, the
// coordinator's lease lifecycle (a complete after expire — a merged stale
// report — is a violation), and the alert lifecycle (sequences strictly
// increase, one open episode per rule) — printing one "file:line: kind:
// message" finding per violation.
//
// episodes reconstructs each family's episodes. Packets: every secondary
// visit (recovery and keepalive) with its Table 3 delay decomposition —
// detect (trigger loss → switch), switch (link-switch cost), retrieve
// (switch completion → first retrieval), and total (switch initiation →
// first retrieval, the client.recovery_delay_us observation). Fleet:
// per-worker timelines, per-lease episodes and expire→re-lease recovery
// accounting. SLO: per-rule totals and every pending→firing→resolved
// episode. -json prints one document per family.
//
// series buckets event counts into fixed windows of simulated time — the
// trace-derived counterpart of the -series flag's metric timeline.
//
// summary prints per-trace totals: events by type, per-link transmit
// outcomes and loss-burst structure, episode counts, and lint status.
//
// export converts a trace into another tool's format. The only format so
// far is chrome: Chrome trace-event JSON loadable in chrome://tracing or
// https://ui.perfetto.dev, with one process per run. Packet nodes get a
// track each, with every recovery episode rendered as a span plus its
// detect/switch/retrieve phase slices; each worker gets a lane of lease
// spans; each SLO rule a lane of episode spans and firing arcs.
//
// Each FILE is analyzed independently — traces from different processes
// have different wall-clock epochs — and may be "-" for stdin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs/analyze"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  tracetool lint [-max N] FILE...
  tracetool episodes [-json] FILE...
  tracetool series [-json] [-window DUR] FILE...
  tracetool summary [-json] FILE...
  tracetool export [-format chrome] [-o FILE] FILE

lint, episodes and export cover every event family in the file (packets,
fleet, slo). FILE may be "-" for stdin. See docs/OBSERVABILITY.md for the
trace schema.
`)
}

// run is the testable entry point: it dispatches to one subcommand and
// returns the process exit code (0 ok, 1 failure/violations, 2 usage).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "lint":
		return cmdLint(rest, stdin, stdout, stderr)
	case "episodes":
		return cmdEpisodes(rest, stdin, stdout, stderr)
	case "series":
		return cmdSeries(rest, stdin, stdout, stderr)
	case "summary":
		return cmdSummary(rest, stdin, stdout, stderr)
	case "export":
		return cmdExport(rest, stdin, stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "tracetool: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

// analyzeFile runs one analysis pass over path ("-" = stdin).
func analyzeFile(path string, stdin io.Reader, opts analyze.Options) (*analyze.Result, error) {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return analyze.Analyze(r, opts)
}

// forEachFile analyzes every path, invoking fn per result. Open/read errors
// are printed and turn the exit code nonzero without stopping the walk.
// With gate set, so does a dirty lint: violations are findings, not tool
// errors, but the exit code must reflect them so CI can gate on a clean
// corpus.
func forEachFile(paths []string, stdin io.Reader, stderr io.Writer, opts analyze.Options,
	gate bool, fn func(path string, res *analyze.Result)) int {
	code := 0
	for _, path := range paths {
		res, err := analyzeFile(path, stdin, opts)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			code = 1
			continue
		}
		fn(path, res)
		if gate && !res.Report.Clean() {
			code = 1
		}
	}
	return code
}

func cmdLint(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxV := fs.Int("max", 0, "max violations to print per file (0 = default 100, negative = all)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	return forEachFile(fs.Args(), stdin, stderr, analyze.Options{MaxViolations: *maxV}, true,
		func(path string, res *analyze.Result) {
			rep := res.Report
			for _, v := range rep.Violations {
				fmt.Fprintf(stdout, "%s:%d: %s: %s\n", path, v.Line, v.Kind, v.Msg)
			}
			if rep.Clean() {
				fmt.Fprintf(stdout, "%s: %d events, clean\n", path, rep.Events)
			} else {
				fmt.Fprintf(stdout, "%s: %d events, %d violations (%d shown)\n",
					path, rep.Events, rep.TotalViolations, len(rep.Violations))
			}
		})
}

func cmdEpisodes(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("episodes", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit one JSON document per family instead of text")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	return forEachFile(fs.Args(), stdin, stderr, analyze.Options{KeepEpisodes: true}, true,
		func(path string, res *analyze.Result) {
			for _, fam := range res.Families() {
				switch fam {
				case analyze.FamilyPackets:
					printEpisodes(stdout, path, res.Report, *asJSON)
				case analyze.FamilyFleet:
					printFleet(stdout, path, res.Fleet, *asJSON)
				case analyze.FamilySLO:
					printSLO(stdout, path, res.SLO, *asJSON)
				}
			}
		})
}

// printEpisodes renders the packet family's secondary visits.
func printEpisodes(stdout io.Writer, path string, rep *analyze.Report, asJSON bool) {
	if asJSON {
		writeJSON(stdout, struct {
			File          string             `json:"file"`
			Recoveries    int64              `json:"recoveries"`
			Keepalives    int64              `json:"keepalives"`
			Unclosed      int64              `json:"unclosed"`
			Retrieved     int64              `json:"retrieved"`
			RecoveryDelay analyze.DelayStats `json:"recovery_delay"`
			DetectDelay   analyze.DelayStats `json:"detect_delay"`
			Episodes      []analyze.Episode  `json:"episodes"`
		}{path, rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved,
			rep.RecoveryDelay, rep.DetectDelay, rep.Episodes})
		return
	}
	tbl := stats.NewTable("episodes: "+path,
		"run", "kind", "line", "start_us", "end_us", "trigger",
		"detect_us", "switch_us", "retrieve_us", "total_us", "retrieved")
	for _, e := range rep.Episodes {
		tbl.AddRow(e.Run, e.Kind, fmt.Sprint(e.Line), fmt.Sprint(e.StartUS),
			orDash(e.EndUS), orDash(int64(e.TriggerSeq)), orDash(e.DetectUS),
			fmt.Sprint(e.SwitchUS), orDash(e.RetrieveUS), orDash(e.TotalUS),
			fmt.Sprint(e.Retrieved))
	}
	fmt.Fprint(stdout, tbl.String())
	fmt.Fprintf(stdout, "recoveries %d, keepalives %d, unclosed %d, retrieved %d\n",
		rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved)
	fmt.Fprintf(stdout, "recovery total_us: %s\n", delayLine(rep.RecoveryDelay))
	fmt.Fprintf(stdout, "detect_us:         %s\n", delayLine(rep.DetectDelay))
	if !rep.Clean() {
		fmt.Fprintln(stdout, lintStatus(path, rep))
	}
}

// printFleet renders the fleet family's lanes, leases and lint.
func printFleet(stdout io.Writer, path string, rep *analyze.FleetReport, asJSON bool) {
	if asJSON {
		writeJSON(stdout, struct {
			File string `json:"file"`
			*analyze.FleetReport
		}{path, rep})
		return
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "%s:%d: %s: %s\n", path, v.Line, v.Kind, v.Msg)
	}
	fmt.Fprintf(stdout, "%s: %d events (%d fleet, %d skipped)", path, rep.Events, rep.FleetEvents, rep.Skipped)
	if len(rep.Runs) > 0 {
		fmt.Fprintf(stdout, ", runs %v", rep.Runs)
	}
	fmt.Fprintln(stdout)

	lanes := stats.NewTable("worker lanes", "node", "events", "first_us", "last_us")
	for _, node := range sortedKeys(rep.Lanes) {
		l := rep.Lanes[node]
		lanes.AddRow(node, fmt.Sprint(l.Events), fmt.Sprint(l.FirstUS), fmt.Sprint(l.LastUS))
	}
	fmt.Fprint(stdout, lanes.String())

	leases := stats.NewTable("leases",
		"lease", "worker", "span", "grant_us", "end_us", "ttl_us", "hb", "outcome", "re-leased")
	for _, e := range rep.Leases {
		outcome := e.Outcome
		if e.Reason != "" {
			outcome += " (" + e.Reason + ")"
		}
		if e.ReLease {
			outcome += " [re-lease]"
		}
		releasedTag := ""
		if e.ReLeased {
			releasedTag = "yes"
		}
		leases.AddRow(e.ID, e.Worker, fmt.Sprintf("%d:%d", e.From, e.To),
			fmt.Sprint(e.GrantUS), orDash(e.EndUS), fmt.Sprint(e.TTLUS),
			fmt.Sprint(e.Heartbeats), outcome, releasedTag)
	}
	fmt.Fprint(stdout, leases.String())

	fmt.Fprintf(stdout, "grants %d (%d re-lease), completed %d, expired %d, stale rejects %d, heartbeats %d\n",
		rep.Grants, rep.ReLeases, rep.Completed, rep.Expired, rep.StaleRejects, rep.Heartbeats)
	fmt.Fprintf(stdout, "expire->re-lease episodes: %d\n", rep.ExpireReLeaseEpisodes)
	if rep.Clean() {
		fmt.Fprintln(stdout, "fleet lint: clean")
	} else {
		fmt.Fprintf(stdout, "fleet lint: %d violations (%d shown)\n",
			rep.TotalViolations, len(rep.Violations))
	}
}

// printSLO renders the slo family's rules, episodes and lint.
func printSLO(stdout io.Writer, path string, rep *analyze.SLOReport, asJSON bool) {
	if asJSON {
		writeJSON(stdout, struct {
			File string `json:"file"`
			*analyze.SLOReport
		}{path, rep})
		return
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "%s:%d: %s: %s\n", path, v.Line, v.Kind, v.Msg)
	}
	fmt.Fprintf(stdout, "%s: %d events (%d slo, %d skipped)", path, rep.Events, rep.SLOEvents, rep.Skipped)
	if len(rep.Runs) > 0 {
		fmt.Fprintf(stdout, ", runs %v", rep.Runs)
	}
	fmt.Fprintln(stdout)

	rules := stats.NewTable("rules", "rule", "episodes", "fired", "resolved", "open", "firing_us")
	for _, name := range sortedKeys(rep.Rules) {
		st := rep.Rules[name]
		rules.AddRow(name, fmt.Sprint(st.Episodes), fmt.Sprint(st.Fired),
			fmt.Sprint(st.Resolved), fmt.Sprint(st.Open), fmt.Sprint(st.FiringUS))
	}
	fmt.Fprint(stdout, rules.String())

	eps := stats.NewTable("episodes",
		"rule", "seq", "pending_us", "firing_us", "resolved_us", "outcome", "value", "bound")
	for _, e := range rep.Episodes {
		eps.AddRow(e.Rule, fmt.Sprint(e.Seq), fmt.Sprint(e.PendingUS),
			orDash(e.FiringUS), orDash(e.ResolvedUS), e.Outcome, e.Value, e.Bound)
	}
	fmt.Fprint(stdout, eps.String())

	if rep.Clean() {
		fmt.Fprintln(stdout, "slo lint: clean")
	} else {
		fmt.Fprintf(stdout, "slo lint: %d violations (%d shown)\n",
			rep.TotalViolations, len(rep.Violations))
	}
}

func cmdSeries(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("series", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit JSON instead of a text table")
	window := fs.Duration("window", time.Second, "window width in simulated time")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 || *window <= 0 {
		usage(stderr)
		return 2
	}
	windowUS := window.Microseconds()
	return forEachFile(fs.Args(), stdin, stderr, analyze.Options{WindowUS: windowUS}, false,
		func(path string, res *analyze.Result) {
			rep := res.Report
			if *asJSON {
				writeJSON(stdout, struct {
					File     string               `json:"file"`
					WindowUS int64                `json:"window_us"`
					Points   []analyze.TracePoint `json:"points"`
				}{path, windowUS, rep.Points})
				return
			}
			// Columns: the union of count keys across every window.
			keySet := map[string]bool{}
			for _, p := range rep.Points {
				for k := range p.Counts {
					keySet[k] = true
				}
			}
			keys := sortedKeys(keySet)
			tbl := stats.NewTable(fmt.Sprintf("series: %s (window %v)", path, *window),
				append([]string{"start_us", "end_us"}, keys...)...)
			for _, p := range rep.Points {
				row := []string{fmt.Sprint(p.StartUS), fmt.Sprint(p.EndUS)}
				for _, k := range keys {
					if n := p.Counts[k]; n != 0 {
						row = append(row, fmt.Sprint(n))
					} else {
						row = append(row, "")
					}
				}
				tbl.AddRow(row...)
			}
			fmt.Fprint(stdout, tbl.String())
		})
}

func cmdSummary(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	return forEachFile(fs.Args(), stdin, stderr, analyze.Options{}, false,
		func(path string, res *analyze.Result) {
			rep := res.Report
			if *asJSON {
				writeJSON(stdout, struct {
					File string `json:"file"`
					*analyze.Report
				}{path, rep})
				return
			}
			fmt.Fprintf(stdout, "%s: %d lines, %d events", path, rep.Lines, rep.Events)
			if len(rep.Runs) > 0 {
				fmt.Fprintf(stdout, ", runs %v, span [%dus, %dus]", rep.Runs, rep.FirstUS, rep.LastUS)
			}
			fmt.Fprintln(stdout)

			types := stats.NewTable("", "event", "count")
			for _, k := range sortedKeys(rep.ByType) {
				types.AddRow(k, fmt.Sprint(rep.ByType[k]))
			}
			fmt.Fprint(stdout, types.String())

			links := stats.NewTable("links",
				"link", "delivered", "wasted", "lost", "retries", "drops",
				"hd-evict", "hd-refuse", "bursts", "max-burst")
			for _, k := range sortedKeys(rep.Links) {
				ls := rep.Links[k]
				links.AddRow(k, fmt.Sprint(ls.TxDelivered), fmt.Sprint(ls.TxWasted),
					fmt.Sprint(ls.TxLost), fmt.Sprint(ls.Retries), fmt.Sprint(ls.Drops),
					fmt.Sprint(ls.HeadDropEvict), fmt.Sprint(ls.HeadDropRefuse),
					fmt.Sprint(ls.LossBursts), fmt.Sprint(ls.MaxBurst))
			}
			fmt.Fprint(stdout, links.String())

			fmt.Fprintf(stdout, "episodes: %d recoveries, %d keepalives, %d unclosed; %d retrieved, %d playout misses\n",
				rep.Recoveries, rep.Keepalives, rep.Unclosed, rep.Retrieved, rep.PlayoutMisses)
			fmt.Fprintf(stdout, "recovery total_us: %s\n", delayLine(rep.RecoveryDelay))
			fmt.Fprintln(stdout, lintStatus(path, rep))
		})
}

func cmdExport(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "chrome", "output format (chrome)")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage(stderr)
		return 2
	}
	if *format != "chrome" {
		fmt.Fprintf(stderr, "tracetool: unknown export format %q (supported: chrome)\n", *format)
		return 2
	}
	in := stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	out := stdout
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return 1
		}
		outFile = f
		out = f
	}
	if err := analyze.ChromeTrace(in, out); err != nil {
		fmt.Fprintln(stderr, "tracetool:", err)
		if outFile != nil {
			outFile.Close()
		}
		return 1
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(stderr, "tracetool:", err)
			return 1
		}
	}
	return 0
}

// lintStatus is the one-line lint verdict of the whole trace.
func lintStatus(path string, rep *analyze.Report) string {
	if rep.Clean() {
		return "lint: clean"
	}
	return fmt.Sprintf("lint: %d violations (run `tracetool lint %s`)", rep.TotalViolations, path)
}

// orDash renders v, with the analyzer's -1 "not determined" sentinel as "-".
func orDash(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprint(v)
}

// delayLine renders a DelayStats as "count N min X mean Y max Z".
func delayLine(d analyze.DelayStats) string {
	if d.Count == 0 {
		return "count 0"
	}
	return fmt.Sprintf("count %d min %d mean %.1f max %d", d.Count, d.MinUS, d.MeanUS(), d.MaxUS)
}

func writeJSON(w io.Writer, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "{}")
		return
	}
	w.Write(data)
	io.WriteString(w, "\n")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
