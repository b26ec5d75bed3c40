package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ProtoSchema versions the worker wire protocol. Every response carries it
// so a worker pointed at the wrong port fails loudly, not weirdly, and
// CompleteRequest carries it back so a coordinator rejects reports from a
// worker speaking a different protocol generation. v2 widened the cell
// aggregate from five fixed digests to the keyed metric set of
// metrickeys.go; v3 added per-lease failure reporting on Complete and
// metric snapshots on heartbeats; v4 added SLO alert state to those
// snapshots; v5 dropped the snapshots: a heartbeat is a bare keepalive,
// the fleet view is built from accepted lease reports, and a report
// carries the worker's SLO alert state (CompleteRequest.SLO). Older
// workers and coordinators are mutually rejected (there is no
// down-negotiation — rebuild the older binary).
const ProtoSchema = "sweep-proto-v5"

// SpecResponse is GET /sweep/spec: the sweep a worker should run.
type SpecResponse struct {
	Schema string `json:"schema"`
	Hash   string `json:"hash"`
	Spec   *Spec  `json:"spec"`
}

// LeaseRequest is POST /sweep/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int64  `json:"max,omitempty"`
}

// LeaseResponse grants a job span, asks the worker to wait, or ends it.
// The coordinator answers Wait only after waiting min(TTL, 10 s) itself
// with every span leased out.
type LeaseResponse struct {
	Schema  string `json:"schema"`
	Done    bool   `json:"done,omitempty"`
	Wait    bool   `json:"wait,omitempty"`
	LeaseID string `json:"lease_id,omitempty"`
	From    int64  `json:"from"`
	To      int64  `json:"to"`
	TTLMS   int64  `json:"ttl_ms,omitempty"`
}

// HeartbeatRequest is POST /sweep/heartbeat: a bare keepalive for one
// lease. What the worker did is reported once, in the lease's Complete.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse: OK=false means the lease expired and was re-queued,
// or was granted to another worker.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest is POST /sweep/complete: a finished lease's merged
// sketch aggregate plus its job accounting (which must cover the span).
// Schema is the worker's protocol generation; the coordinator rejects a
// mismatch rather than merge a foreign metric layout into the aggregate.
type CompleteRequest struct {
	Schema   string     `json:"schema"`
	Worker   string     `json:"worker"`
	LeaseID  string     `json:"lease_id"`
	Executed int64      `json:"executed"`
	Cached   int64      `json:"cached"`
	Failed   int64      `json:"failed"`
	Agg      *Aggregate `json:"agg"`
	// Errors carries up to maxLeaseErrors job failure messages (panic
	// stacks included, truncated), so a fleet panic is diagnosable from
	// the coordinator summary alone.
	Errors []string `json:"errors,omitempty"`
	// SLO is the worker's streaming SLO alert state as it sends the
	// report, nil unless it runs an engine (-slo). Fleet-view telemetry:
	// it never reaches the aggregate.
	SLO *SLOCounts `json:"slo,omitempty"`
}

// SLOCounts is a worker's streaming SLO engine state (internal/obs/slo):
// the rules pending and firing now, and the episodes that reached firing
// so far.
type SLOCounts struct {
	Pending int64 `json:"pending"`
	Firing  int64 `json:"firing"`
	Fired   int64 `json:"fired"`
}

// maxLeaseErrors caps the failure messages one lease report carries.
const maxLeaseErrors = 8

// CompleteResponse: Ignored means the lease had expired — the span was
// re-queued and this report was discarded. Done means this report finished
// the sweep; the worker should exit without leasing again, because the
// coordinator may tear down its control plane the moment the sweep ends.
type CompleteResponse struct {
	OK      bool `json:"ok"`
	Ignored bool `json:"ignored,omitempty"`
	Done    bool `json:"done,omitempty"`
}

// routeMounter is the slice of expose.Server the coordinator needs; taking
// the interface keeps sweep mountable on any mux-like server.
type routeMounter interface {
	Handle(pattern string, h http.Handler)
}

// Routes mounts the worker protocol and fleet views on an introspection
// server (internal/obs/expose):
//
//	GET  /sweep/spec       — the spec workers should run
//	POST /sweep/lease      — pull a job span (waits while all are leased)
//	POST /sweep/heartbeat  — keep a lease alive
//	POST /sweep/complete   — report a finished span's sketches
//	GET  /sweep/summary    — a snapshot of the merged summary (partial mid-run)
//	GET  /campaign/status  — fleet view (campaign-status-v1; `campaign
//	                         watch` renders it, including per-worker state)
func (c *Coordinator) Routes(srv routeMounter) {
	srv.Handle("/sweep/spec", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, SpecResponse{Schema: ProtoSchema, Hash: c.spec.Hash(), Spec: c.spec})
	}))
	srv.Handle("/sweep/lease", postHandler(func(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
		if req.Worker == "" {
			return LeaseResponse{}, fmt.Errorf("lease request needs a worker name")
		}
		return c.lease(ctx, req.Worker, req.Max)
	}))
	srv.Handle("/sweep/heartbeat", postHandler(func(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
		if req.Worker == "" {
			return HeartbeatResponse{}, fmt.Errorf("heartbeat needs a worker name")
		}
		return c.Heartbeat(req), nil
	}))
	srv.Handle("/sweep/complete", postHandler(func(_ context.Context, req CompleteRequest) (CompleteResponse, error) {
		if req.Worker == "" {
			return CompleteResponse{}, fmt.Errorf("lease report needs a worker name")
		}
		return c.Complete(req)
	}))
	srv.Handle("/sweep/summary", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, c.Summary())
	}))
	srv.Handle("/campaign/status", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, c.Snapshot())
	}))
}

// postHandler adapts a typed request/response function to an HTTP route.
// fn gets the request's context, which ends when the client goes away.
// The body must be one JSON value, with nothing but space after it.
func postHandler[Req, Resp any](fn func(context.Context, Req) (Resp, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		body, err := readBody(r)
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			http.Error(w, "decode: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		serveJSON(w, resp)
	})
}

// maxBodyPrealloc caps the buffer a POST body is read into up front. A
// body declaring a larger Content-Length, or none, is read into a buffer
// that grows as its bytes arrive, so a client cannot make the coordinator
// allocate more than it sends.
const maxBodyPrealloc = 1 << 20

// readBody reads a request body in one allocation when its length is
// known and at most maxBodyPrealloc.
func readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxBodyPrealloc {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(r.Body)
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data)
	w.Write([]byte("\n"))
}

// Transport is how a worker reaches its coordinator: direct method calls
// in-process, JSON-over-HTTP across processes. Both implementations share
// the worker engine, so the single-process and sharded paths cannot drift.
type Transport interface {
	FetchSpec() (*Spec, error)
	Lease(worker string, max int64) (LeaseResponse, error)
	Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error)
	Complete(req CompleteRequest) (CompleteResponse, error)
}

// LocalTransport drives a coordinator in the same process.
type LocalTransport struct{ C *Coordinator }

func (t LocalTransport) FetchSpec() (*Spec, error) { return t.C.Spec(), nil }
func (t LocalTransport) Lease(worker string, max int64) (LeaseResponse, error) {
	return t.C.Lease(worker, max), nil
}
func (t LocalTransport) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	return t.C.Heartbeat(req), nil
}
func (t LocalTransport) Complete(req CompleteRequest) (CompleteResponse, error) {
	return t.C.Complete(req)
}

// HTTPTransport drives a remote coordinator over its control plane.
type HTTPTransport struct {
	// Base is the coordinator's address with scheme, e.g.
	// "http://127.0.0.1:8080" (no trailing slash needed).
	Base   string
	Client *http.Client
}

// NewHTTPTransport returns a transport for the given host:port or URL.
func NewHTTPTransport(addr string) *HTTPTransport {
	if !bytes.Contains([]byte(addr), []byte("://")) {
		addr = "http://" + addr
	}
	for len(addr) > 0 && addr[len(addr)-1] == '/' {
		addr = addr[:len(addr)-1]
	}
	return &HTTPTransport{Base: addr, Client: &http.Client{Timeout: 30 * time.Second}}
}

func (t *HTTPTransport) FetchSpec() (*Spec, error) {
	res, err := t.Client.Get(t.Base + "/sweep/spec")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, statusError("GET /sweep/spec", res)
	}
	var sr SpecResponse
	if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("decode /sweep/spec: %w", err)
	}
	if sr.Schema != ProtoSchema {
		return nil, fmt.Errorf("/sweep/spec: schema %q (want %q) — is that a sweep coordinator?",
			sr.Schema, ProtoSchema)
	}
	if sr.Spec == nil {
		return nil, fmt.Errorf("/sweep/spec: empty spec")
	}
	if err := sr.Spec.normalize(); err != nil {
		return nil, err
	}
	if got := sr.Spec.Hash(); got != sr.Hash {
		return nil, fmt.Errorf("/sweep/spec: hash mismatch (%s vs %s)", got, sr.Hash)
	}
	return sr.Spec, nil
}

func (t *HTTPTransport) Lease(worker string, max int64) (LeaseResponse, error) {
	var resp LeaseResponse
	err := t.post("/sweep/lease", LeaseRequest{Worker: worker, Max: max}, &resp)
	if err == nil && resp.Schema != ProtoSchema {
		return resp, fmt.Errorf("/sweep/lease: schema %q (want %q)", resp.Schema, ProtoSchema)
	}
	return resp, err
}

func (t *HTTPTransport) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := t.post("/sweep/heartbeat", req, &resp)
	return resp, err
}

func (t *HTTPTransport) Complete(req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := t.post("/sweep/complete", req, &resp)
	return resp, err
}

func (t *HTTPTransport) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	res, err := t.Client.Post(t.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return statusError("POST "+path, res)
	}
	return json.NewDecoder(res.Body).Decode(resp)
}

// maxErrorBody caps how much of a refusal's body an error quotes.
const maxErrorBody = 512

// statusError describes a non-200 answer with the reason the coordinator
// wrote in its body, so a remote worker sees the refusal an in-process one
// would get as an error.
func statusError(op string, res *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(res.Body, maxErrorBody)) // a short read still names the status
	if msg := strings.TrimSpace(string(body)); msg != "" {
		return fmt.Errorf("%s: %s: %s", op, res.Status, msg)
	}
	return fmt.Errorf("%s: %s", op, res.Status)
}
