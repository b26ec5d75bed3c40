// Package obsflag wires the observability layer (internal/obs) into a CLI:
// it registers the shared -metrics / -trace / -series / -slo / -pprof /
// -http flags, builds the root registry, trace sink, time-series collector,
// streaming SLO engine, and live introspection server they request,
// installs sim.ObsProvider so every simulator constructed anywhere in the
// process is instrumented, and writes all outputs on Close. Both
// cmd/experiments and cmd/campaign use it, so the flags behave identically
// across drivers.
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/expose"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/sim"
)

// Flags holds the observability options shared by the experiment drivers.
type Flags struct {
	// Metrics is where the end-of-run metrics snapshot goes: "" disables,
	// "-" writes text to stderr, a *.json path writes the JSON encoding,
	// anything else writes the aligned text table.
	Metrics string
	// Trace is the JSONL event-trace output path ("" disables). The line
	// schema is documented in docs/OBSERVABILITY.md.
	Trace string
	// Series is "PATH" or "PATH,WINDOW": write a time-windowed metrics
	// series (obs.Series) to PATH on exit, bucketed by WINDOW of simulated
	// time (a Go duration, default 1s). "-" writes text to stderr, *.json
	// writes one JSON document, *.jsonl writes a header line plus one line
	// per window, anything else text.
	Series string
	// Pprof is a directory for cpu.pprof and heap.pprof ("" disables).
	Pprof string
	// HTTP is a listen address (e.g. "127.0.0.1:6060" or ":0") for the live
	// introspection server (internal/obs/expose): /metrics, /statusz,
	// /healthz, /debug/pprof/. "" disables.
	HTTP string
	// Flight is "DIR" or "DIR,N": arm a flight recorder (internal/obs/
	// flight) holding the last N lifecycle events (default
	// flight.DefaultCapacity) and dump it into DIR on panic, per-job
	// timeout, or lease expiry. "" disables — and disabled costs zero
	// allocations on the hot path.
	Flight string
	// Slo is an slo-v1 ruleset path (JSON or the YAML subset): arm the
	// streaming SLO engine (internal/obs/slo) evaluating the rules on
	// every captured series window, served at /alerts and as slo_*
	// families on /metrics when -http is set. Without -series a
	// default-window collector is installed to drive evaluation (its
	// points are not dumped). "" disables.
	Slo string
}

// Register installs -metrics, -trace, -series, -slo, -pprof, -http, and
// -flight on fs (typically flag.CommandLine) and returns the struct their
// values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", `write the metrics snapshot on exit ("-" = stderr as text, *.json = JSON, else text file)`)
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL event trace to this file (schema: docs/OBSERVABILITY.md)")
	fs.StringVar(&f.Series, "series", "", `write a time-windowed metrics series on exit: PATH[,WINDOW] (WINDOW = Go duration of simulated time, default 1s; "-" = stderr, *.json = JSON, *.jsonl = JSONL, else text)`)
	fs.StringVar(&f.Slo, "slo", "", "evaluate the slo-v1 alert rules in this file (JSON or YAML) on every series window; live state at /alerts and slo_* on /metrics with -http")
	fs.StringVar(&f.Pprof, "pprof", "", "write cpu.pprof and heap.pprof to this directory")
	fs.StringVar(&f.HTTP, "http", "", `serve live introspection (/metrics, /statusz, /healthz, /debug/pprof/) on this address (e.g. "127.0.0.1:6060"; ":0" picks a free port)`)
	fs.StringVar(&f.Flight, "flight", "", `arm the flight recorder: DIR[,N] keeps the last N lifecycle events (default 256) and dumps them to DIR as JSONL on panic, job timeout, or lease expiry`)
	return f
}

// Enabled reports whether any simulator instrumentation was requested.
// Profiling alone does not need a registry; a live HTTP endpoint does.
func (f *Flags) Enabled() bool {
	return f.Metrics != "" || f.Trace != "" || f.Series != "" || f.Slo != "" || f.HTTP != ""
}

// parseFlightSpec splits a -flight value into its dump directory and ring
// capacity. With no comma the whole spec is the directory and the capacity
// is flight.DefaultCapacity; otherwise the capacity is the suffix after the
// last comma, and a suffix that is not a positive integer is an error.
func parseFlightSpec(spec string) (dir string, capacity int, err error) {
	capacity = flight.DefaultCapacity
	i := strings.LastIndexByte(spec, ',')
	if i < 0 {
		return spec, capacity, nil
	}
	n, nerr := strconv.Atoi(spec[i+1:])
	if nerr != nil {
		return "", 0, fmt.Errorf("flight: bad capacity %q: %w", spec[i+1:], nerr)
	}
	if n <= 0 {
		return "", 0, fmt.Errorf("flight: non-positive capacity %q", spec[i+1:])
	}
	return spec[:i], n, nil
}

// parseSeriesSpec splits a -series value into its output path and window.
// With no comma the whole spec is the path and the window is one simulated
// second; otherwise the window is the suffix after the last comma, and a
// suffix that is not a positive Go duration is an error.
func parseSeriesSpec(spec string) (path string, windowUS int64, err error) {
	windowUS = obs.DefaultSeriesWindowUS
	i := strings.LastIndexByte(spec, ',')
	if i < 0 {
		return spec, windowUS, nil
	}
	d, derr := time.ParseDuration(spec[i+1:])
	if derr != nil {
		return "", 0, fmt.Errorf("series: bad window %q: %w", spec[i+1:], derr)
	}
	if d <= 0 {
		return "", 0, fmt.Errorf("series: non-positive window %q", spec[i+1:])
	}
	return spec[:i], d.Microseconds(), nil
}

// Session is the live observability state of one CLI run. Callers must
// Close it before exiting — including error paths — or trace lines and
// profiles are lost; the usual shape is a run() function with
// `defer sess.Close()` whose return code main passes to os.Exit.
type Session struct {
	// Reg is the root registry (nil when no instrumentation was requested;
	// the obs API is nil-safe, so callers may use it unconditionally).
	Reg *obs.Registry
	// Stderr receives the "-" renderings and the trace-loss report at
	// Close; nil selects os.Stderr. Tests inject a buffer here.
	Stderr     io.Writer
	flags      *Flags
	series     *obs.Series
	seriesPath string
	slo        *slo.Engine
	sloSeries  *obs.Series // engine-owned series when -slo is set without -series
	http       *expose.Server
	flight     *flight.Recorder
	cpuFile    *os.File
	closeMu    sync.Mutex
	closed     bool
}

// Setup builds what the flags ask for: a registry (with a trace sink when
// -trace is set and a series collector when -series is set) published
// through sim.ObsProvider with per-simulation "s<seed>" run labels, and a
// started CPU profile when -pprof is set. With no flags set it returns an
// inert session whose Close is a no-op.
func (f *Flags) Setup() (*Session, error) {
	s := &Session{flags: f}
	if f.Enabled() {
		reg := obs.NewRegistry()
		if f.Trace != "" {
			if err := ensureDir(f.Trace); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			file, err := os.Create(f.Trace)
			if err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			reg.SetSink(obs.NewSink(file))
		}
		if f.Series != "" {
			path, windowUS, err := parseSeriesSpec(f.Series)
			if err != nil {
				return nil, err
			}
			if path != "-" {
				if err := ensureDir(path); err != nil {
					return nil, fmt.Errorf("series: %w", err)
				}
			}
			s.series = obs.NewSeries(reg, windowUS)
			s.seriesPath = path
			reg.SetSeries(s.series)
		}
		if f.Slo != "" {
			rules, err := slo.LoadRules(f.Slo)
			if err != nil {
				return nil, err
			}
			eng := slo.NewEngine(rules)
			driver := s.series
			if driver == nil {
				// No -series collector: the engine still needs window
				// boundaries to evaluate at, so install a default-window
				// series purely to drive it (its points are never dumped).
				driver = obs.NewSeries(reg, obs.DefaultSeriesWindowUS)
				reg.SetSeries(driver)
				s.sloSeries = driver
			}
			eng.Arm(reg, driver)
			s.slo = eng
		}
		if f.Metrics != "" && f.Metrics != "-" {
			if err := ensureDir(f.Metrics); err != nil {
				return nil, fmt.Errorf("metrics: %w", err)
			}
		}
		if f.HTTP != "" {
			if s.series == nil && s.sloSeries == nil {
				// No -series collector, but /statusz still wants the simulated
				// clock: install a clock-only series (its window is beyond any
				// horizon, so it never captures a point) purely for its
				// high-water mark.
				reg.SetSeries(obs.NewSeries(reg, obs.ClockOnlyWindowUS))
			}
			srv := expose.New(reg)
			if s.slo != nil {
				srv.Handle("/alerts", s.slo)
				srv.OnMetrics(s.slo.WriteMetrics)
			}
			if err := srv.Start(f.HTTP); err != nil {
				return nil, err
			}
			s.http = srv
			// Announced on stderr so scripts can discover a ":0" port.
			fmt.Fprintf(s.stderr(), "obsflag: live endpoints on http://%s (/metrics /statusz /healthz /debug/pprof/)\n", srv.Addr())
		}
		s.Reg = reg
		// One experiment may run several simulations with the same seed
		// (paired strategy comparisons reuse the seed on purpose), but a run
		// label must denote ONE simulation or trace consumers would see two
		// interleaved causal histories under one key. Disambiguate repeat
		// instances with an instance suffix: s42, s42#2, s42#3, …
		var mu sync.Mutex
		instances := make(map[int64]int)
		sim.ObsProvider = func(seed int64) *obs.Registry {
			mu.Lock()
			instances[seed]++
			n := instances[seed]
			mu.Unlock()
			if n == 1 {
				return reg.WithRun(fmt.Sprintf("s%d", seed))
			}
			return reg.WithRun(fmt.Sprintf("s%d#%d", seed, n))
		}
	}
	if f.Flight != "" {
		dir, capacity, err := parseFlightSpec(f.Flight)
		if err != nil {
			return nil, err
		}
		if dir == "" {
			return nil, fmt.Errorf("flight: empty dump directory in %q", f.Flight)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		s.flight = flight.New(dir, capacity)
	}
	if f.Pprof != "" {
		if err := os.MkdirAll(f.Pprof, 0o755); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		file, err := os.Create(filepath.Join(f.Pprof, "cpu.pprof"))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, fmt.Errorf("pprof: %w", err)
		}
		s.cpuFile = file
	}
	return s, nil
}

// Series returns the session's series collector (nil unless -series was
// set; the obs.Series API is nil-safe).
func (s *Session) Series() *obs.Series {
	if s == nil {
		return nil
	}
	return s.series
}

// SLO returns the armed streaming SLO engine (nil unless -slo was set;
// the slo.Engine API is nil-safe). cmd/campaign uses it to stamp alert
// state on sweep lease reports and per-cell verdicts on summaries.
func (s *Session) SLO() *slo.Engine {
	if s == nil {
		return nil
	}
	return s.slo
}

// Flight returns the armed flight recorder (nil unless -flight was set;
// the flight API is nil-safe, so callers may wire it unconditionally).
func (s *Session) Flight() *flight.Recorder {
	if s == nil {
		return nil
	}
	return s.flight
}

// HTTP returns the live introspection server (nil unless -http was set).
// Drivers use it to mount their own views (e.g. /campaign/status) before
// the fleet starts.
func (s *Session) HTTP() *expose.Server {
	if s == nil {
		return nil
	}
	return s.http
}

// HTTPAddr returns the introspection server's bound address ("" when -http
// is unset), letting a driver report the resolved ":0" port.
func (s *Session) HTTPAddr() string {
	if s == nil || s.http == nil {
		return ""
	}
	return s.http.Addr()
}

// HandleSignals installs a SIGINT/SIGTERM handler that shuts the session
// down cleanly instead of losing buffered observability state on Ctrl-C:
// the flight ring is dumped as "interrupt-<tag>", then Close runs — trace
// sink flushed, metrics/series snapshots written, HTTP server closed —
// before the process exits with the conventional 128+signal code. Call
// once after Setup; a second signal during shutdown kills the process the
// default way. Safe on a nil session (no handler is installed).
func (s *Session) HandleSignals(tag string) {
	if s == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		signal.Stop(ch) // restore default handling for a second signal
		fmt.Fprintf(s.stderr(), "obsflag: %v — flushing observability state\n", sig)
		if path, err := s.flight.Dump("interrupt-" + tag); err != nil {
			fmt.Fprintln(s.stderr(), "obsflag: flight dump:", err)
		} else if path != "" {
			fmt.Fprintf(s.stderr(), "obsflag: flight ring dumped to %s\n", path)
		}
		if err := s.Close(); err != nil {
			fmt.Fprintln(s.stderr(), "obsflag:", err)
		}
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// ensureDir creates the parent directory of path if it is missing.
func ensureDir(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		return os.MkdirAll(dir, 0o755)
	}
	return nil
}

// stderr returns the session's error stream.
func (s *Session) stderr() io.Writer {
	if s.Stderr != nil {
		return s.Stderr
	}
	return os.Stderr
}

// Close uninstalls sim.ObsProvider, flushes and closes the trace sink
// (reporting any events it had to drop), writes the metrics snapshot and
// the series dump, and finalizes the CPU/heap profiles. It is idempotent
// and safe on a nil session (so `defer sess.Close()` composes with an
// explicit error-checked Close), returning the first error.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Stop serving before tearing down what the handlers read.
	keep(s.http.Close())
	s.http = nil
	if s.Reg != nil {
		sim.ObsProvider = nil
		// Flush the final partial series window before the sink closes, so
		// SLO transitions evaluated at flush still reach the trace. The
		// series-dump path below must not Flush again (it would append a
		// degenerate extra point).
		s.series.Flush()
		s.sloSeries.Flush()
		sink := s.Reg.Sink()
		closeErr := sink.Close()
		// A sink drops events rather than aborting a simulation; surface
		// the loss here so a truncated trace never goes unnoticed. The loss
		// report subsumes a flush error at Close, so it takes priority.
		if n := sink.Errored(); n > 0 {
			err := fmt.Errorf("trace: %d events lost (first error: %w)", n, sink.FirstErr())
			fmt.Fprintln(s.stderr(), "obsflag:", err)
			keep(err)
		}
		keep(closeErr)
	}
	if s.flags.Metrics != "" && s.Reg != nil {
		snap := s.Reg.Snapshot()
		switch {
		case s.flags.Metrics == "-":
			fmt.Fprint(s.stderr(), snap.Text())
		case strings.HasSuffix(s.flags.Metrics, ".json"):
			data, err := snap.JSON()
			if err == nil {
				err = os.WriteFile(s.flags.Metrics, data, 0o644)
			}
			keep(err)
		default:
			keep(os.WriteFile(s.flags.Metrics, []byte(snap.Text()), 0o644))
		}
	}
	if s.series != nil {
		dump := s.series.Snapshot()
		switch {
		case s.seriesPath == "-":
			fmt.Fprint(s.stderr(), dump.Text())
		case strings.HasSuffix(s.seriesPath, ".jsonl"):
			data, err := dump.JSONL()
			if err == nil {
				err = os.WriteFile(s.seriesPath, data, 0o644)
			}
			keep(err)
		case strings.HasSuffix(s.seriesPath, ".json"):
			data, err := dump.JSON()
			if err == nil {
				err = os.WriteFile(s.seriesPath, data, 0o644)
			}
			keep(err)
		default:
			keep(os.WriteFile(s.seriesPath, []byte(dump.Text()), 0o644))
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
		runtime.GC() // fold recently freed memory out of the heap profile
		hf, err := os.Create(filepath.Join(s.flags.Pprof, "heap.pprof"))
		if err == nil {
			err = pprof.WriteHeapProfile(hf)
			if cerr := hf.Close(); err == nil {
				err = cerr
			}
		}
		keep(err)
	}
	return firstErr
}
