// Command diversifi simulates one interactive-streaming call over two WiFi
// links and reports network and call-quality metrics for a chosen
// receiving strategy.
//
// Usage:
//
//	diversifi [-seed N] [-impairment none|weak-link|mobility|microwave|congestion]
//	          [-strategy stronger|better|divert|temporal|cross-link|diversifi|diversifi-mb]
//	          [-profile g711|highrate] [-duration 2m] [-assoc]
//	          [-scenario FILE] [-scenario-out FILE]
//
// A scenario file is the JSON encoding of core.Scenario, the same document
// as the params of an `experiments scenario gen` record.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sim/rng"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// usageError marks a bad flag or value: exit status 2 instead of 1.
// printed is set when the flag package has already printed the error,
// followed by the usage text.
type usageError struct {
	error
	printed bool
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	var usage usageError
	isUsage := errors.As(err, &usage)
	if !usage.printed {
		fmt.Fprintln(os.Stderr, "diversifi:", err)
	}
	if isUsage {
		os.Exit(2)
	}
	os.Exit(1)
}

// run simulates the call args describe and writes its report to stdout.
// A scenario loaded with -scenario supplies the impairment, seed, stream
// profile and duration, overriding those flags.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diversifi", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed")
	imp := fs.String("impairment", "none", "impairment class")
	strategy := fs.String("strategy", "diversifi", "receiving strategy")
	profName := fs.String("profile", "g711", "stream profile: g711 or highrate")
	duration := fs.Duration("duration", 2*time.Minute, "call duration")
	fullAssoc := fs.Bool("assoc", false, "run the 802.11 management plane (scan + associate + queue-config IE) before the call")
	scenarioIn := fs.String("scenario", "", "load the scenario from a JSON file instead of generating one")
	scenarioOut := fs.String("scenario-out", "", "write the generated scenario to a JSON file for later replay")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{error: err, printed: true}
	}

	impairment, ok := core.ImpairmentByName(*imp)
	if !ok {
		return usageError{error: fmt.Errorf("unknown impairment %q", *imp)}
	}
	profile, ok := traffic.ProfileByKey(*profName)
	if !ok {
		return usageError{error: fmt.Errorf("unknown profile %q", *profName)}
	}

	var sc core.Scenario
	if *scenarioIn != "" {
		var err error
		if sc, err = loadScenario(*scenarioIn); err != nil {
			return err
		}
	} else {
		sc = core.RandomScenario(rng.New(*seed), impairment, profile, *seed).
			WithDuration(sim.FromSeconds(duration.Seconds()))
	}
	if *scenarioOut != "" {
		data, err := json.MarshalIndent(sc, "", "  ")
		if err == nil {
			err = os.WriteFile(*scenarioOut, data, 0o644)
		}
		if err != nil {
			return err
		}
	}

	var tr *trace.Trace
	var extra string
	switch *strategy {
	case "stronger":
		tr = core.RunDualCall(sc).Stronger()
	case "better":
		tr = core.RunDualCall(sc).Better(5 * sim.Second)
	case "divert":
		tr = core.RunDualCall(sc).Divert(1, 1)
	case "cross-link":
		tr = core.RunDualCall(sc).CrossLink()
	case "temporal":
		tr, _ = core.RunTemporal(sc, 100*sim.Millisecond)
	case "diversifi", "diversifi-mb":
		mode := core.ModeCustomAP
		if *strategy == "diversifi-mb" {
			mode = core.ModeMiddlebox
		}
		r := core.RunDiversiFi(sc, core.DiversiFiOptions{Mode: mode, FullAssociation: *fullAssoc})
		tr = r.Trace
		if *fullAssoc {
			extra = fmt.Sprintf("association setup:    %.1f ms\n", r.AssociationDelay.Milliseconds())
		}
		extra += fmt.Sprintf(
			"losses detected:      %d\nrecovered:            %d\nrecovery switches:    %d\nkeepalive switches:   %d\nwasteful duplication: %.2f%%\n",
			r.Client.LossesDetected, r.Client.Recovered,
			r.Client.RecoverySwitches, r.Client.KeepaliveSwitches,
			100*r.WastefulRate)
	default:
		return usageError{error: fmt.Errorf("unknown strategy %q", *strategy)}
	}

	q := voip.Assess(tr, sc.Profile)
	callLen := time.Duration(sc.Duration) * time.Microsecond
	fmt.Fprintf(stdout, "scenario:    %s, seed %d, %s stream, %v call\n", sc.Impairment, sc.Seed, sc.Profile.Name, callLen)
	fmt.Fprintf(stdout, "strategy:    %s\n\n", *strategy)
	fmt.Fprintf(stdout, "packets:              %d\n", tr.Len())
	fmt.Fprintf(stdout, "loss rate:            %.2f%%\n", 100*q.LossRate)
	fmt.Fprintf(stdout, "worst 5s loss:        %.1f%%\n", 100*q.WorstWindowLoss)
	fmt.Fprintf(stdout, "mean one-way delay:   %.2f ms\n", q.MeanDelayMs)
	fmt.Fprintf(stdout, "jitter (RFC3550):     %.2f ms\n", q.JitterMs)
	fmt.Fprintf(stdout, "concealment:          %d interpolated, %d extrapolated\n", q.Interpolated, q.Extrapolated)
	fmt.Fprintf(stdout, "MOS estimate:         %.2f (R=%.1f)%s\n", q.MOS, q.RFactor, poorTag(q.Poor))
	if extra != "" {
		fmt.Fprint(stdout, "\n", extra)
	}
	return nil
}

// loadScenario reads a scenario file: the JSON encoding of core.Scenario,
// the same document as the params of an `experiments scenario gen` record.
// The file is outside input, so unknown fields, an impairment outside
// core.AllImpairments, a profile other than G.711 or HighRate and an
// invalid channel are errors.
func loadScenario(path string) (core.Scenario, error) {
	var sc core.Scenario
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("bad scenario file: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return sc, errors.New("bad scenario file: trailing content after the scenario")
	}
	switch {
	case !slices.Contains(core.AllImpairments, sc.Impairment):
		return sc, fmt.Errorf("bad scenario file: unknown impairment %d", int(sc.Impairment))
	case sc.Profile != traffic.G711 && sc.Profile != traffic.HighRate:
		return sc, fmt.Errorf("bad scenario file: unknown profile %q", sc.Profile.Name)
	case !sc.ChanA.Valid() || !sc.ChanB.Valid():
		return sc, fmt.Errorf("bad scenario file: invalid channel (%v, %v)", sc.ChanA, sc.ChanB)
	}
	return sc, nil
}

func poorTag(poor bool) string {
	if poor {
		return "  ← POOR CALL"
	}
	return ""
}
