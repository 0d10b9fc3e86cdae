package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"time"

	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// maxBatchBytes caps the POST /v1/batch body; larger bodies are
// refused with 413 before any request is admitted.
const maxBatchBytes = 8 << 20

// WireRequest is one request on the wire. Seq, when positive, is the
// client's per-object sequence number (start at 1, increment per
// request): a resend of an already-serviced sequence — a retry after a
// lost ack or a server restart — is answered idempotently at zero cost
// (WireResult.Duplicate) instead of being billed twice, which is what
// makes blind client retries crash-safe.
type WireRequest struct {
	Object    string `json:"object"`
	Op        string `json:"op"` // "r" or "w"
	Processor int    `json:"processor"`
	Seq       uint64 `json:"seq,omitempty"`
}

// WireResult is one serviced request's outcome on the wire.
type WireResult struct {
	Object      string  `json:"object"`
	Op          string  `json:"op"`
	Processor   int     `json:"processor"`
	Cost        float64 `json:"cost"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	Retransmits int     `json:"retransmits,omitempty"`
	Duplicate   bool    `json:"duplicate,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []WireRequest `json:"requests"`
}

// BatchResponse is the reply: the first Done requests were accepted and
// serviced in order; the rest were refused (overload or drain) and
// should be resubmitted — resubmitting the tail preserves each object's
// request order, which is what the determinism contract needs.
type BatchResponse struct {
	Done         int          `json:"done"`
	Results      []WireResult `json:"results"`
	RetryAfterMS int64        `json:"retry_after_ms,omitempty"`
	Draining     bool         `json:"draining,omitempty"`
	// Unavailable reports the refusal came from a fail-stopped shard
	// (persistent durability failure): unlike an overload it will not
	// clear until the process is restarted, so clients should fail over
	// rather than retry-loop. RetryAfterMS then carries the probe
	// interval.
	Unavailable bool `json:"unavailable,omitempty"`
}

// StatsResponse is the body of GET /v1/stats: the typed operational
// snapshot plus the ops registry — counters and histogram snapshots
// (bucket bounds and counts), so operators get the latency and queue
// shape here without scraping the Prometheus exposition.
type StatsResponse struct {
	Stats Stats        `json:"stats"`
	Ops   obs.Snapshot `json:"ops"`
	// Runtime is read when the scrape is answered; nothing on the
	// request path maintains it.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is the Go runtime's account of the daemon's memory, for a
// scraper that wants to read resident size at a stated point of the heap's
// life (after so many GC cycles, or so many bytes allocated) rather than
// at a wall-clock time. NumGC and TotalAllocBytes never decrease.
type RuntimeStats struct {
	NumGC           uint64 `json:"num_gc"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	Goroutines      uint64 `json:"goroutines"`
}

// readRuntimeStats reads the counters through runtime/metrics, which,
// unlike runtime.ReadMemStats, does not stop the world.
func readRuntimeStats() RuntimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if v := samples[i].Value; v.Kind() == metrics.KindUint64 {
			return v.Uint64()
		}
		return 0 // KindBad: a runtime without the metric
	}
	// MemStats.HeapInuse is the spans in use: live and unswept objects
	// plus the free slots inside those spans.
	return RuntimeStats{NumGC: u(0), TotalAllocBytes: u(1), HeapInuseBytes: u(2) + u(3), Goroutines: u(4)}
}

func parseOp(s string) (model.Request, bool) {
	switch s {
	case "r", "read":
		return model.R(0), true
	case "w", "write":
		return model.W(0), true
	default:
		return model.Request{}, false
	}
}

// Handler returns the service's HTTP API:
//
//	POST /v1/batch   — service a batch of requests in order; an optional
//	                   traceparent header ties the batch's spans to the
//	                   caller's trace; a malformed request anywhere in
//	                   the batch refuses all of it with 400
//	GET  /v1/stats   — operational snapshot (Stats + ops counters and
//	                   histogram snapshots)
//	GET  /v1/metrics — Prometheus text exposition of the ops registry
//	                   (and, once drained, the deterministic accounting),
//	                   with a slow-request exemplar trace ID when tracing
//	                   is on
//	GET  /v1/healthz — liveness plus per-shard supervision state
//	                   (healthy | degraded | recovering | failed,
//	                   restart counts); 200 while accepting, 503 while
//	                   draining or once every shard has fail-stopped
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var parent tracing.SpanContext
	if h := r.Header.Get("traceparent"); h != "" {
		var err error
		if parent, err = tracing.ParseTraceparent(h); err != nil {
			http.Error(w, fmt.Sprintf("bad traceparent: %v", err), http.StatusBadRequest)
			return
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.buf, err = readAll(sc.buf, http.MaxBytesReader(w, r.Body, maxBatchBytes)); err == nil {
		err = decodeBatchRequest(sc.buf, &sc.body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	// Validate the whole batch before consuming any of it: a malformed
	// request at index k must not leave 0..k-1 serviced, billed and
	// journaled with their results thrown away.
	wire := sc.body.Requests
	for i := range wire {
		q, err := validate(&s.cfg, wire[i].Object, wire[i].Op, wire[i].Processor)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request %d: %v", i, err), http.StatusBadRequest)
			return
		}
		sc.reqs = append(sc.reqs, q)
	}
	resp := &sc.resp
	if resp.Results == nil {
		resp.Results = make([]WireResult, 0, len(wire)) // an empty reply says [], not null
	}
	for i := range wire {
		wr := &wire[i]
		res, err := s.submit(wr.Object, sc.reqs[i], parent, wr.Seq)
		if err != nil {
			if ov, isOverload := err.(*Overloaded); isOverload {
				resp.RetryAfterMS = ov.RetryAfter.Milliseconds()
				break
			}
			if un, isUnavailable := err.(*Unavailable); isUnavailable {
				resp.RetryAfterMS = un.RetryAfter.Milliseconds()
				resp.Unavailable = true
				break
			}
			if err == ErrDraining {
				resp.Draining = true
				break
			}
			// A service error: the request was accepted and consumed.
			res.Err = err
		}
		errStr := ""
		if res.Err != nil {
			errStr = res.Err.Error()
		}
		resp.Results = append(resp.Results, WireResult{
			Object: wr.Object, Op: wr.Op, Processor: wr.Processor,
			Cost: res.Cost, Coalesced: res.Coalesced, Retransmits: res.Retransmits,
			Duplicate: res.Duplicate, Err: errStr,
		})
		resp.Done++
	}
	status := http.StatusOK
	if resp.Done == 0 && len(wire) > 0 {
		if resp.Draining || resp.Unavailable {
			status = http.StatusServiceUnavailable
		} else {
			status = http.StatusTooManyRequests
		}
	}
	// The body was copied out by the decoder, so the reply is built in
	// the same buffer and leaves in one write with its length declared
	// (net/http would chunk anything over 2 KiB otherwise).
	if sc.buf, err = appendBatchResponse(sc.buf[:0], resp); err != nil {
		http.Error(w, fmt.Sprintf("encoding reply: %v", err), http.StatusInternalServerError)
		return
	}
	sc.buf = append(sc.buf, '\n')
	if resp.RetryAfterMS > 0 {
		// The header is in whole seconds (RFC 9110); the body's
		// retry_after_ms keeps the precise hint. Round up so a short
		// hint never becomes "retry immediately".
		w.Header().Set("Retry-After", strconv.FormatInt((resp.RetryAfterMS+999)/1000, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.buf)))
	w.WriteHeader(status)
	w.Write(sc.buf) // a failed write means the client is gone; its resend is deduplicated by seq
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// A stats scrape opts the hot path into latency measurement, so the
	// request-latency histogram fills from the first scrape onward.
	s.measure.Store(true)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(StatsResponse{Stats: s.Stats(), Ops: s.Ops(), Runtime: readRuntimeStats()})
}

// handleMetrics is the Prometheus text exposition: the ops registry
// (queue depths, batch sizes, request latency) plus the deterministic
// accounting counters, read live from the shards' books on every scrape
// under the names the drain gives Config.Obs. When tracing is on, the
// slowest sampled request's trace ID is attached to the request-latency
// histogram as an exemplar.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.measure.Store(true)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var exemplars map[string]obs.Exemplar
	if trace, durNS := s.cfg.Trace.Slowest(); durNS > 0 {
		exemplars = map[string]obs.Exemplar{
			"server.request_latency_us": {
				Labels: [][2]string{{"trace_id", trace}},
				Value:  float64(durNS) / 1e3,
			},
		}
	}
	s.Ops().Prometheus(w, "objalloc", exemplars)
	obs.Snapshot{Counters: accounting(s.Stats())}.Prometheus(w, "objalloc", nil)
}

// HealthShard is one shard's supervision state in the healthz body.
type HealthShard struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // healthy | degraded | recovering | failed
	Restarts uint64 `json:"restarts,omitempty"`
}

// HealthResponse is the body of GET /v1/healthz.
type HealthResponse struct {
	Status   string        `json:"status"` // ok | degraded | failed | draining
	Draining bool          `json:"draining,omitempty"`
	Shards   []HealthShard `json:"shards"`
}

// handleHealthz reports liveness plus per-shard supervision state: 503
// while draining or once every shard has fail-stopped; a degraded,
// recovering or partially failed fleet keeps the endpoint 200 (the
// service still makes progress) but flips the top-level status to
// "degraded" or "failed" for probes that inspect the body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", Draining: s.Draining()}
	failed := 0
	for _, sh := range s.shards {
		hs := HealthShard{Shard: sh.id, State: shardStateName(sh.state.Load()), Restarts: sh.restarts.Load()}
		if hs.State == "failed" {
			failed++
			resp.Status = "failed"
		} else if hs.State != "healthy" && resp.Status == "ok" {
			resp.Status = "degraded"
		}
		resp.Shards = append(resp.Shards, hs)
	}
	status := http.StatusOK
	if failed == len(s.shards) && failed > 0 {
		status = http.StatusServiceUnavailable
	}
	if resp.Draining {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// Client is a minimal client for the HTTP API, used by the load
// generator and tests.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Seed seeds BatchAllCtx's retry jitter, so a fleet of load
	// generators with distinct seeds doesn't retry in lockstep.
	Seed int64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Batch posts one batch and decodes the reply. An HTTP 429/503 with a
// decodable body is returned as a normal BatchResponse (Done 0), not an
// error — the caller inspects RetryAfterMS/Draining.
func (c *Client) Batch(reqs []WireRequest) (BatchResponse, error) {
	return c.BatchTraced(tracing.SpanContext{}, reqs)
}

// BatchTraced posts one batch under the given trace context, sent as a
// traceparent header so the server's spans parent to the caller's
// trace. A zero context sends no header. A 4xx other than 429 is a
// *Refused. A reply whose done count is negative, exceeds the batch or
// disagrees with its results is a decode error, so callers may slice
// reqs[resp.Done:] unchecked.
func (c *Client) BatchTraced(sc tracing.SpanContext, reqs []WireRequest) (BatchResponse, error) {
	// The body is built fresh per call: the transport may still be
	// reading it when an early reply (a 413) comes back.
	body := appendBatchRequest(make([]byte, 0, 16+64*len(reqs)), &BatchRequest{Requests: reqs})
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return BatchResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return BatchResponse{}, err
	}
	defer httpResp.Body.Close()
	scratch := getScratch()
	defer putScratch(scratch)
	var resp BatchResponse
	scratch.buf, err = readAll(scratch.buf, httpResp.Body)
	if code := httpResp.StatusCode; err == nil && code/100 == 4 && code != http.StatusTooManyRequests {
		return BatchResponse{}, &Refused{Status: code, Message: string(bytes.TrimSpace(scratch.buf))}
	}
	if err == nil {
		err = decodeBatchResponse(scratch.buf, &resp)
	}
	if err == nil && (resp.Done < 0 || resp.Done > len(reqs) || len(resp.Results) != resp.Done) {
		// Callers slice their batch at Done; a count the request cannot
		// have produced is a malformed reply, not an index.
		err = fmt.Errorf("done = %d with %d results for %d requests", resp.Done, len(resp.Results), len(reqs))
	}
	if err != nil {
		return BatchResponse{}, fmt.Errorf("server: batch reply (HTTP %d): %w", httpResp.StatusCode, err)
	}
	return resp, nil
}

// Retry pacing for BatchAllCtx's transport-error loop.
const (
	retryBackoffBase = 10 * time.Millisecond
	retryBackoffCap  = 500 * time.Millisecond
)

// BatchAllCtx submits reqs end to end, honoring the server's admission
// hints until ctx's deadline: after a partial batch it resubmits the
// unserviced tail (preserving per-object order), sleeping out each
// Overloaded reply's RetryAfter hint. It is built to survive a server
// restart window: transport errors (connection refused or reset while
// the daemon is down) are retried with capped exponential backoff, and
// both sleeps carry seeded jitter (Client.Seed) so concurrent clients
// desynchronize. Combined with per-object sequence numbers on the
// requests, a retried batch is billed exactly once: the restarted
// server answers already-serviced sequences idempotently. The loop
// stops at ctx's deadline, when the server reports draining or a
// fail-stopped shard or refuses the batch as sent (*Refused), or when
// every request has been serviced; the returned results cover the
// requests actually serviced.
func (c *Client) BatchAllCtx(ctx context.Context, sc tracing.SpanContext, reqs []WireRequest) ([]WireResult, error) {
	state := splitmix(uint64(c.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	state.next()
	jitter := func(d time.Duration) time.Duration {
		if d <= 0 {
			return time.Duration(state.next() % uint64(retryBackoffBase))
		}
		return d + time.Duration(state.next()%uint64(d/4+1))
	}
	var out []WireResult
	backoff := retryBackoffBase
	for len(reqs) > 0 {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("server: %d requests unserviced: %w", len(reqs), err)
		}
		resp, err := c.BatchTraced(sc, reqs)
		if err != nil {
			var refused *Refused
			if errors.As(err, &refused) {
				return out, fmt.Errorf("server: %d requests unserviced: %w", len(reqs), err)
			}
			// Transport error: the daemon may be restarting. Per-object
			// order is preserved because the whole tail is resent.
			if serr := sleepCtx(ctx, jitter(backoff)); serr != nil {
				return out, fmt.Errorf("server: %d requests unserviced: %w", len(reqs), serr)
			}
			if backoff *= 2; backoff > retryBackoffCap {
				backoff = retryBackoffCap
			}
			continue
		}
		backoff = retryBackoffBase
		out = append(out, resp.Results...)
		reqs = reqs[resp.Done:]
		if len(reqs) == 0 || resp.Draining {
			break
		}
		if resp.Unavailable {
			// Terminal until the process restarts; hand the tail back so
			// the caller can fail over instead of burning the deadline.
			return out, fmt.Errorf("server: shard unavailable (persistent durability failure), %d requests unserviced", len(reqs))
		}
		if resp.Done == 0 || resp.RetryAfterMS > 0 {
			d := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if err := sleepCtx(ctx, jitter(d)); err != nil {
				return out, fmt.Errorf("server: %d requests unserviced: %w", len(reqs), err)
			}
		}
	}
	return out, nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats fetches the operational snapshot.
func (c *Client) Stats() (Stats, error) {
	full, err := c.StatsFull()
	return full.Stats, err
}

// StatsFull fetches the operational snapshot together with the ops
// registry (counters plus histogram bucket bounds and counts).
func (c *Client) StatsFull() (StatsResponse, error) {
	httpResp, err := c.httpClient().Get(c.Base + "/v1/stats")
	if err != nil {
		return StatsResponse{}, err
	}
	defer httpResp.Body.Close()
	var resp StatsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return StatsResponse{}, err
	}
	return resp, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	httpResp, err := c.httpClient().Get(c.Base + "/v1/metrics")
	if err != nil {
		return "", err
	}
	defer httpResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}
