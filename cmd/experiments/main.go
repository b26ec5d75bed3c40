// Command experiments regenerates every table and figure of the DiversiFi
// paper's evaluation from the simulation substrates.
//
// Usage:
//
//	experiments [-seed N] [-n N] [-csv] [-metrics FILE] [-trace FILE]
//	            [-series PATH[,WINDOW]] [-pprof DIR] [-http ADDR]
//	            <experiment>|all
//	experiments scenario validate SPEC...
//	experiments scenario gen SPEC [-n N] [-out DIR]
//	experiments scenario run SPEC [-i N] [-strategy all|dual|diversifi]
//
// The experiment set comes from exp.Registry(), the same table cmd/campaign
// runs as cached, parallel sweep jobs; `experiments all` is the serial,
// uncached reference that writes results_all.txt, and regenerates
// everything except the calibration sweeps, which are diagnostic. Run
// `experiments list` for the full inventory. The population-scale paper
// artifact of docs/RESULTS.md comes from `campaign sweep -report`.
//
// `experiments scenario` validates, generates, and runs declarative
// scenario-v1 specs (internal/scenario, docs/SCENARIOS.md): `validate`
// checks documents and prints their canonical hashes, `gen` materializes a
// spec's generated corpus as JSONL (or per-scenario JSON files with -out),
// and `run` executes one generated scenario under all three strategies.
//
// The observability flags (-metrics, -trace, -series, -pprof, -http) are
// shared with cmd/campaign; see docs/OBSERVABILITY.md for the metric names,
// the JSONL trace schema, the time-series dump, and the live HTTP
// endpoints they produce. Traces can be analyzed offline with
// cmd/tracetool.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/obsflag"
)

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 42, "root random seed")
	n := flag.Int("n", 0, "corpus size override (0 = paper's size)")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	outDir := flag.String("out", "", "also write each experiment's CSV to <dir>/<id>.csv")
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-seed N] [-n N] [-csv] [-metrics FILE] [-trace FILE] [-series PATH[,WINDOW]] [-pprof DIR] <experiment>|all|list")
		fmt.Fprintln(os.Stderr, "       experiments scenario validate|gen|run SPEC...")
		return 2
	}

	sess, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer sess.Close()
	sess.HandleSignals("experiments")

	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		code = 1
	}
	emit := func(r *exp.Result) {
		if *csv {
			fmt.Print(r.CSV())
		} else {
			fmt.Print(r.Render())
		}
		fmt.Println()
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fail(err)
				return
			}
			path := filepath.Join(*outDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fail(err)
			}
		}
	}
	runSpec := func(s exp.Spec) {
		r := s.Run(*n, *seed)
		if s.Kind == exp.KindCalibration {
			// Calibration sweeps are free-form diagnostic text, not tables.
			fmt.Print(strings.Join(r.Plots, ""))
			return
		}
		emit(r)
	}

	switch name := flag.Arg(0); name {
	case "all":
		for _, s := range exp.Registry() {
			if s.Kind == exp.KindCalibration {
				continue
			}
			runSpec(s)
		}
	case "list":
		for _, s := range exp.Registry() {
			fmt.Printf("%-24s %-12s %s\n", s.ID, s.Kind, s.Title)
		}
	case "scenario":
		if err := runScenarioMode(flag.Args()[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			if _, isUsage := err.(usageError); isUsage {
				return 2
			}
			return 1
		}
	default:
		s, err := exp.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runSpec(s)
	}
	if err := sess.Close(); err != nil {
		fail(err)
	}
	return code
}
