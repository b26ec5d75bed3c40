// Package expose is the live control plane of the observability layer: a
// zero-dependency HTTP introspection server any binary can attach to a
// running obs.Registry.
//
// Where internal/obs and internal/obsflag are post-mortem — metrics,
// traces, and series land in files inspected after the run — expose makes
// the same state scrapeable while the run is in flight, the way a
// production multi-link serving stack would publish per-link health:
//
//   - GET /metrics   — Prometheus text exposition (v0.0.4) of the live
//     registry; histograms in cumulative _bucket/_sum/_count form.
//   - GET /statusz   — per-run progress: sim clock vs wall clock,
//     events/sec, recovery and link-loss counters. HTML by default,
//     JSON with ?format=json (or an application/json Accept header).
//   - GET /healthz   — liveness ("ok").
//   - GET /debug/pprof/* — the standard runtime profiles.
//   - /               — an index linking the above.
//
// Drivers add their own views with Handle; cmd/campaign mounts
// the sweep coordinator's fleet view at /campaign/status this way.
//
// Everything the server reads comes from atomic loads under the registry's
// read lock — a scrape never writes simulator-visible state, so a
// concurrent scrape cannot perturb simulation results (the simtest live
// perturbation test holds golden metric snapshots byte-identical while
// hammering /metrics mid-run). With no server attached nothing in the hot
// path changes at all: the package is only reachable from the -http flag.
package expose

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server is one HTTP introspection endpoint bound to a registry. Create it
// with New, optionally add handlers, then Start it; Close shuts it down
// gracefully. The zero value is not usable.
type Server struct {
	reg *obs.Registry
	mux *http.ServeMux

	started  time.Time
	scrapes  atomic.Int64 // /metrics requests served
	statuszN atomic.Int64 // /statusz requests served

	mu         sync.Mutex
	lastRateAt time.Time // previous /statusz sample point for the recent rate
	lastEvents int64

	srvMu sync.Mutex
	ln    net.Listener
	srv   *http.Server
	// cancel ends the context of every request srv serves, so a handler
	// waiting on its request (a long-poll) returns as Close begins.
	cancel context.CancelFunc

	// extra routes registered via Handle, for the index page.
	extraMu sync.Mutex
	extra   []string

	// onMetrics hooks append extra families to /metrics after the registry
	// exposition (OnMetrics). They let registry-external state — the SLO
	// engine's alert gauges, derived rates — appear on the scrape without
	// creating instruments, keeping golden metric snapshots byte-identical.
	hookMu  sync.Mutex
	onMetrs []func(io.Writer)
}

// New returns a server exposing reg (nil is allowed: /metrics is then an
// empty, valid exposition and /statusz reports only process state).
func New(reg *obs.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// Handle mounts h at pattern (a http.ServeMux pattern). Call before Start.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.extraMu.Lock()
	s.extra = append(s.extra, pattern)
	s.extraMu.Unlock()
}

// ServeHTTP serves the server's routes directly (without a listener), so
// tests and embedders can drive it through httptest.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Start binds addr (e.g. "127.0.0.1:0") and serves in the background. The
// bound address is available from Addr. Errors — a busy port above all —
// are returned, never swallowed.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("expose: listen %s: %w", addr, err)
	}
	s.srvMu.Lock()
	if s.srv != nil {
		s.srvMu.Unlock()
		ln.Close()
		return fmt.Errorf("expose: server already started on %s", s.ln.Addr())
	}
	base, cancel := context.WithCancel(context.Background())
	s.ln, s.cancel = ln, cancel
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second,
		BaseContext: func(net.Listener) context.Context { return base }}
	srv := s.srv
	s.srvMu.Unlock()
	go srv.Serve(ln) // Serve returns ErrServerClosed on Close; nothing to report
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down: it ends every in-flight request's context,
// so handlers waiting on one return at once, then lets the requests finish
// for up to one second before forcing the listener closed. Safe to call on
// a nil or never-started server, and idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.srvMu.Lock()
	srv, cancelRequests := s.srv, s.cancel
	s.srv, s.ln, s.cancel = nil, nil, nil
	s.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	cancelRequests()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// Scrapes returns how many /metrics requests this server has served.
func (s *Server) Scrapes() int64 { return s.scrapes.Load() }

// OnMetrics registers a hook that appends extra exposition families to
// every /metrics response, after the registry's own families. Hooks must
// write complete, valid family blocks (# HELP, # TYPE, samples) whose names
// do not collide with registry instruments. Call before Start.
func (s *Server) OnMetrics(fn func(w io.Writer)) {
	if fn == nil {
		return
	}
	s.hookMu.Lock()
	s.onMetrs = append(s.onMetrs, fn)
	s.hookMu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteExposition(w, s.reg)
	s.writeEventsRate(w)
	s.hookMu.Lock()
	hooks := append([]func(io.Writer){}, s.onMetrs...)
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn(w)
	}
}

// writeEventsRate appends the honest fleet-wide events-per-second gauge:
// the sim.events_executed counter (shared by every in-process runner
// goroutine) divided by the server's wall-clock uptime, computed at scrape
// time so it needs no registry instrument and cannot perturb snapshots.
func (s *Server) writeEventsRate(w io.Writer) {
	if s.reg == nil {
		return
	}
	// Read via Visit rather than Counter(): a lookup must not create the
	// instrument, or scraping would perturb golden metric snapshots.
	var events int64
	s.reg.Visit(obs.Visitor{Counter: func(name string, v int64) {
		if name == "sim.events_executed" {
			events = v
		}
	}})
	rate := 0.0
	if secs := time.Since(s.started).Seconds(); secs > 0 {
		rate = float64(events) / secs
	}
	fmt.Fprintf(w, "# HELP sim_events_per_sec Fleet-wide simulator events executed per wall-clock second (lifetime average)\n"+
		"# TYPE sim_events_per_sec gauge\nsim_events_per_sec %g\n", rate)
}

// Statusz is the /statusz JSON document: live per-run progress derived
// from the registry plus process state. Schema documented in
// docs/OBSERVABILITY.md ("Live endpoints").
type Statusz struct {
	Schema    string `json:"schema"`
	StartedAt string `json:"started_at"` // wall clock, RFC 3339
	UptimeMS  int64  `json:"uptime_ms"`

	// SimClockUS is the fleet's simulated-clock high-water mark (µs), -1
	// when no series collector is attached to report it.
	SimClockUS int64 `json:"sim_clock_us"`
	// SimPerWallRatio is simulated seconds per wall second (-1 unknown).
	SimPerWallRatio float64 `json:"sim_per_wall_ratio"`

	EventsExecuted     int64   `json:"events_executed"`
	EventsPerSec       float64 `json:"events_per_sec"`        // lifetime average
	EventsPerSecRecent float64 `json:"events_per_sec_recent"` // since previous /statusz
	MetricsScrapes     int64   `json:"metrics_scrapes"`

	// Recovery is the client's live loss/recovery view, Links the AP-side
	// transmit outcomes — the per-link health signals a multi-link system
	// steers by. Both are plucked from the counters map for convenience.
	Recovery map[string]int64 `json:"recovery,omitempty"`
	Links    map[string]int64 `json:"links,omitempty"`

	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]obs.GaugeValue  `json:"gauges,omitempty"`
	Histograms map[string]obs.HistSummary `json:"histograms,omitempty"`
}

// statusz assembles the live document.
func (s *Server) statusz() *Statusz {
	now := time.Now()
	st := &Statusz{
		Schema:          "obs-statusz-v1",
		StartedAt:       s.started.UTC().Format(time.RFC3339),
		UptimeMS:        now.Sub(s.started).Milliseconds(),
		SimClockUS:      -1,
		SimPerWallRatio: -1,
		MetricsScrapes:  s.scrapes.Load(),
		Counters:        map[string]int64{},
		Gauges:          map[string]obs.GaugeValue{},
		Histograms:      map[string]obs.HistSummary{},
	}
	s.reg.Visit(obs.Visitor{
		Counter: func(name string, v int64) { st.Counters[name] = v },
		Gauge:   func(name string, g obs.GaugeValue) { st.Gauges[name] = g },
		Histogram: func(name string, h obs.HistSnapshot) {
			st.Histograms[name] = h.Summary()
		},
	})
	if se := s.reg.Series(); se != nil {
		st.SimClockUS = se.ClockUS()
		if wallUS := now.Sub(s.started).Microseconds(); wallUS > 0 && st.SimClockUS > 0 {
			st.SimPerWallRatio = float64(st.SimClockUS) / float64(wallUS)
		}
	}
	st.EventsExecuted = st.Counters["sim.events_executed"]
	if secs := now.Sub(s.started).Seconds(); secs > 0 {
		st.EventsPerSec = float64(st.EventsExecuted) / secs
	}
	s.mu.Lock()
	if !s.lastRateAt.IsZero() {
		if dt := now.Sub(s.lastRateAt).Seconds(); dt > 0 {
			st.EventsPerSecRecent = float64(st.EventsExecuted-s.lastEvents) / dt
		}
	}
	s.lastRateAt, s.lastEvents = now, st.EventsExecuted
	s.mu.Unlock()

	st.Recovery = pluck(st.Counters, "client.")
	st.Links = pluck(st.Counters, "ap.")
	for _, k := range []string{"phy.collision_losses", "phy.noise_losses", "mac.frame_drops"} {
		if v, ok := st.Counters[k]; ok {
			st.Links[k] = v
		}
	}
	return st
}

// pluck copies every counter under the given name prefix (nil when none).
func pluck(counters map[string]int64, prefix string) map[string]int64 {
	var out map[string]int64
	for k, v := range counters {
		if strings.HasPrefix(k, prefix) {
			if out == nil {
				out = map[string]int64{}
			}
			out[k] = v
		}
	}
	return out
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.statuszN.Add(1)
	st := s.statusz()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	writeStatuszHTML(w, st)
}

// writeStatuszHTML renders the human page: headline numbers plus the full
// counter/gauge/histogram tables, auto-refreshing every 2 s.
func writeStatuszHTML(w http.ResponseWriter, st *Statusz) {
	fmt.Fprint(w, `<!DOCTYPE html><html><head><meta charset="utf-8">`+
		`<meta http-equiv="refresh" content="2"><title>statusz</title>`+
		`<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}`+
		`td,th{border:1px solid #999;padding:2px 8px;text-align:right}`+
		`th{background:#eee}td:first-child,th:first-child{text-align:left}</style>`+
		`</head><body><h1>DiversiFi live status</h1>`)
	simClock := "n/a"
	if st.SimClockUS >= 0 {
		simClock = fmt.Sprintf("%.3fs", float64(st.SimClockUS)/1e6)
	}
	fmt.Fprintf(w, `<p>uptime %.1fs — sim clock %s — %d events executed `+
		`(%.0f/s lifetime, %.0f/s recent) — %d scrapes</p>`,
		float64(st.UptimeMS)/1e3, simClock, st.EventsExecuted,
		st.EventsPerSec, st.EventsPerSecRecent, st.MetricsScrapes)
	section := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "<h2>%s</h2><table><tr><th>name</th><th>value</th></tr>", title)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td></tr>", k, m[k])
		}
		fmt.Fprint(w, "</table>")
	}
	section("recovery", st.Recovery)
	section("links", st.Links)
	section("counters", st.Counters)
	if len(st.Gauges) > 0 {
		fmt.Fprint(w, "<h2>gauges</h2><table><tr><th>name</th><th>value</th><th>max</th></tr>")
		for _, k := range sortedKeys(st.Gauges) {
			g := st.Gauges[k]
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td></tr>", k, g.Value, g.Max)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(st.Histograms) > 0 {
		fmt.Fprint(w, "<h2>histograms</h2><table><tr><th>name</th><th>n</th><th>min</th>"+
			"<th>mean</th><th>max</th></tr>")
		for _, k := range sortedKeys(st.Histograms) {
			h := st.Histograms[k]
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1f</td><td>%d</td></tr>",
				k, h.Count, h.Min, h.Mean, h.Max)
		}
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "</body></html>")
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>DiversiFi introspection</title></head><body>`+
		`<h1>DiversiFi live endpoints</h1><ul>`+
		`<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>`+
		`<li><a href="/statusz">/statusz</a> — run progress (add ?format=json)</li>`+
		`<li><a href="/healthz">/healthz</a> — liveness</li>`+
		`<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>`)
	s.extraMu.Lock()
	extra := append([]string(nil), s.extra...)
	s.extraMu.Unlock()
	sort.Strings(extra)
	for _, p := range extra {
		fmt.Fprintf(w, `<li><a href="%s">%s</a></li>`, p, p)
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data)
	w.Write([]byte("\n"))
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
