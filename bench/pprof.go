package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cpuModules are the layers a CPU sample can be charged to: the repo's
// modules, the Go runtime (GC and scheduler), this benchmark's own code,
// and other for standard-library work no repo frame called (HTTP plumbing).
var cpuModules = []string{
	"sim", "rng", "phy", "mac", "ap", "netsim", "pkt", "client", "traffic",
	"core", "trace", "voip", "obs", "scenario", "sweep", "sketch", "campaign",
	"emu", "stats", "runtime", "bench", "other",
}

const internalPrefix = "repro/internal/"

// frameModule maps one pprof function name to its layer, or "" for a
// frame outside the repo's modules.
func frameModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := strings.TrimPrefix(fn, internalPrefix)
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "sim/rng" {
			return "rng"
		}
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[:i] // obs/expose, obs/flight, scenario/stattest, ...
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// attribute charges one sampled stack (leaf first) to a layer: the
// innermost frame that belongs to a repo module (so allocation and GC
// assist inside a module's call are that module's cost), else runtime when
// every frame is the runtime's own (GC workers, the scheduler), else other.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		if !isRuntimeFrame(fn) {
			return "other"
		}
	}
	return "runtime"
}

// parseTraces reads `go tool pprof -traces` text and returns the sampled
// CPU time charged to each layer.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	var (
		value time.Duration
		stack []string
	)
	flush := func() {
		if len(stack) > 0 {
			out[attribute(stack)] += value
		}
		stack, value = nil, 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 && value == 0 {
			// The block's first line: "<value>   <leaf function>".
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	return out, nil
}

// parseSampleValue reads a pprof duration such as "10ms", "1.20s" or
// "500us".
func parseSampleValue(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"ns", time.Nanosecond}, {"us", time.Microsecond}, {"ms", time.Millisecond},
		{"s", time.Second}, {"mins", time.Minute}, {"hrs", time.Hour}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err == nil {
				return time.Duration(f * float64(u.unit)), nil
			}
		}
	}
	return 0, fmt.Errorf("pprof traces: bad sample value %q", s)
}

// cpuSplit runs `go tool pprof -traces` on a CPU profile of this binary and
// returns each layer's share of the sampled CPU time.
func cpuSplit(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byModule, err := parseTraces(strings.NewReader(string(text)))
	if err != nil {
		return nil, err
	}
	return shares(byModule), nil
}

// shares normalizes per-layer CPU time into fractions of the total, with
// every layer of cpuModules present.
func shares(byModule map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range byModule {
		total += d
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = float64(byModule[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}
