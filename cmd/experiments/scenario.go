package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/voip"
)

// runScenarioMode dispatches the `experiments scenario` subcommands:
//
//	scenario validate SPEC...        check specs, print hash and count
//	scenario gen SPEC [-n N] [-out DIR]   generate the corpus as JSONL
//	scenario run SPEC [-i N] [-strategy S]   run one generated scenario end to end
//
// These are the CLI face of internal/scenario: the same decode → normalize
// → generate pipeline the sweep engine's scenarios axis uses, so a spec
// that validates here is a spec a fleet can run.
func runScenarioMode(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return usageError{}
	}
	switch args[0] {
	case "validate":
		if len(args) < 2 {
			return usageError{}
		}
		return scenarioValidate(args[1:], stdout)
	case "gen":
		return scenarioGen(args[1:], stdout)
	case "run":
		return scenarioRun(args[1:], stdout)
	default:
		return usageError{}
	}
}

// usageError tells main to print usage and exit 2 rather than 1.
type usageError struct{}

func (usageError) Error() string {
	return "usage: experiments scenario validate SPEC...\n" +
		"       experiments scenario gen SPEC [-n N] [-out DIR]\n" +
		"       experiments scenario run SPEC [-i N] [-strategy all|dual|diversifi]"
}

func scenarioValidate(paths []string, stdout io.Writer) error {
	for _, path := range paths {
		spec, err := scenario.LoadSpec(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "ok %s name=%s hash=%s count=%d duration=%gs profile=%s\n",
			path, spec.Name, spec.Hash(), spec.Count, spec.DurationS, spec.Profile)
	}
	return nil
}

// genRecord is one generated scenario's JSONL line: the generator metadata
// plus the complete core.Scenario, the exact simulated call. A record's
// params document is also a scenario file that `diversifi -scenario`
// replays.
type genRecord struct {
	Index      int           `json:"index"`
	Seed       int64         `json:"seed"`
	Impairment string        `json:"impairment"`
	Device     string        `json:"device"`
	MIMOOrder  int           `json:"mimo_order"`
	Severity   float64       `json:"severity"`
	StartUS    int64         `json:"start_us"`
	Params     core.Scenario `json:"params"`
}

func scenarioGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scenario gen", flag.ContinueOnError)
	n := fs.Int("n", 0, "generate only the first N scenarios (0 = all)")
	outDir := fs.String("out", "", "write one <name>-<index>.json per scenario instead of JSONL on stdout")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(sortedFlagsFirst(args)); err != nil || fs.NArg() != 1 {
		return usageError{}
	}
	spec, err := scenario.LoadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	count := spec.Count
	if *n > 0 && *n < count {
		count = *n
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	starts := spec.Arrivals(count)
	enc := json.NewEncoder(stdout)
	for i := 0; i < count; i++ {
		g := spec.Generate(i)
		rec := genRecord{
			Index:      g.Index,
			Seed:       g.Seed,
			Impairment: g.Impairment.String(),
			Device:     g.Device,
			MIMOOrder:  g.MIMOOrder,
			Severity:   g.Severity,
			StartUS:    int64(starts[i]),
			Params:     g.Scenario,
		}
		if *outDir == "" {
			if err := enc.Encode(rec); err != nil {
				return err
			}
			continue
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-%03d.json", spec.Name, i))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *outDir != "" {
		fmt.Fprintf(stdout, "wrote %d scenarios to %s (spec %s)\n", count, *outDir, spec.Hash())
	}
	return nil
}

func scenarioRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	idx := fs.Int("i", 0, "corpus index to run")
	strategy := fs.String("strategy", "all", "which strategies to run: all, dual, diversifi")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(sortedFlagsFirst(args)); err != nil || fs.NArg() != 1 {
		return usageError{}
	}
	switch *strategy {
	case "all", "dual", "diversifi":
	default:
		return fmt.Errorf("scenario run: -strategy %q not in all/dual/diversifi", *strategy)
	}
	spec, err := scenario.LoadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	if *idx < 0 || *idx >= spec.Count {
		return fmt.Errorf("scenario index %d outside the spec's corpus [0, %d)", *idx, spec.Count)
	}
	g := spec.Generate(*idx)
	profile := spec.TrafficProfile()
	fmt.Fprintf(stdout, "scenario %s[%d]: impairment=%s device=%s severity=%.2f seed=%d\n",
		spec.Name, g.Index, g.Impairment, g.Device, g.Severity, g.Seed)

	report := func(strategy string, q voip.Quality) {
		fmt.Fprintf(stdout, "  %-10s MOS=%.2f loss=%.2f%% worst-window=%.2f%% poor=%v\n",
			strategy, q.MOS, 100*q.LossRate, 100*q.WorstWindowLoss, q.Poor)
	}
	// Restricting to one strategy also keeps the process on a single
	// simulation — useful under -slo/-series, whose window collector follows
	// the global clock high-water mark and so only sees the first simulation
	// of a multi-sim process in full (docs/OBSERVABILITY.md).
	if *strategy == "all" || *strategy == "dual" {
		d := core.RunDualCall(g.Scenario)
		report("stronger", voip.Assess(d.Stronger(), profile))
		report("cross", voip.AssessMerged(d.TraceA, d.TraceB, profile))
	}
	if *strategy == "all" || *strategy == "diversifi" {
		r := core.RunDiversiFi(g.Scenario, core.DiversiFiOptions{Mode: core.ModeCustomAP})
		report("diversifi", voip.Assess(r.Trace, profile))
	}
	return nil
}

// sortedFlagsFirst reorders args so flags precede the positional spec path,
// allowing both `gen spec.yaml -n 5` and `gen -n 5 spec.yaml`.
func sortedFlagsFirst(args []string) []string {
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if len(a) > 1 && a[0] == '-' {
			flags = append(flags, a)
			// A flag of the form -name value consumes the next arg.
			if !hasEquals(a) && i+1 < len(args) {
				flags = append(flags, args[i+1])
				i++
			}
			continue
		}
		pos = append(pos, a)
	}
	return append(flags, pos...)
}

func hasEquals(a string) bool {
	for _, c := range a {
		if c == '=' {
			return true
		}
	}
	return false
}
