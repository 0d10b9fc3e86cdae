package objalloc

import (
	"io"
	"net/http"

	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// ---- Sharded allocation service ----
//
// The server package turns the multi-object directory into a
// long-running service: objects are hashed to independent shards, each
// shard runs its own allocation engine (SA, DA, or the online adaptive
// SA/DA controller — ServerEngineAdaptive, configured via
// ServerConfig.Adaptive) behind a batched mailbox with admission control, and a graceful drain
// completes every accepted request before shutdown. The objallocd daemon
// (cmd/objallocd) serves this over HTTP; loadgen (cmd/loadgen) replays
// workload streams against it.

// ServerConfig describes the sharded allocation service.
type ServerConfig = server.Config

// Server is the running service.
type Server = server.Server

// ServerResult is one serviced request's outcome.
type ServerResult = server.Result

// ServerStats is the service's operational snapshot.
type ServerStats = server.Stats

// ServerShardStats is one shard's operational snapshot.
type ServerShardStats = server.ShardStats

// ServerEngine selects the per-shard engine.
type ServerEngine = server.Engine

// Server engines.
const (
	ServerEngineDA       = server.EngineDA
	ServerEngineSA       = server.EngineSA
	ServerEngineAdaptive = server.EngineAdaptive
)

// CoalesceMode controls the service's read coalescing.
type CoalesceMode = server.CoalesceMode

// Coalesce modes.
const (
	CoalesceAuto = server.CoalesceAuto
	CoalesceOn   = server.CoalesceOn
	CoalesceOff  = server.CoalesceOff
)

// Overloaded is the admission-control rejection: the target shard's
// mailbox is full; retry after its RetryAfter hint.
type Overloaded = server.Overloaded

// ErrServerDraining is returned by Server.Do once the graceful drain has
// begun.
var ErrServerDraining = server.ErrDraining

// NewServer starts the sharded allocation service. With
// ServerConfig.Journal set, each shard group-commits a request journal
// (fsynced once per service round, checkpointed every CheckpointEvery
// records); ServerConfig.Recover replays those journals on startup, so
// a crashed server restarted over the same directory continues with the
// exact state and accounting the last committed round left. Shard loops
// run under a supervisor that recovers panics by rebuilding from the
// journal (state surfaced per shard via /v1/healthz and Stats).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ServerReplayDir reconstructs a drained or crashed run's deterministic
// stats offline by replaying its journal directory under the same
// config — the reconciliation behind cmd/journalcheck.
func ServerReplayDir(cfg ServerConfig) (ServerStats, error) { return server.ReplayDir(cfg) }

// ParseServerEngine parses an engine name: "da", "sa", "ha" or
// "adaptive".
func ParseServerEngine(s string) (ServerEngine, error) { return server.ParseEngine(s) }

// ServerHandler returns the service's HTTP API (POST /v1/batch,
// GET /v1/stats, GET /v1/metrics, GET /v1/healthz).
func ServerHandler(s *Server) http.Handler { return s.Handler() }

// ServerClient is a minimal client for the HTTP API.
type ServerClient = server.Client

// WireRequest and WireResult are the HTTP API's request/response items;
// BatchRequest and BatchResponse frame them; StatsResponse is the
// GET /v1/stats body (typed stats plus the ops registry's counters and
// histogram snapshots).
type (
	WireRequest   = server.WireRequest
	WireResult    = server.WireResult
	BatchRequest  = server.BatchRequest
	BatchResponse = server.BatchResponse
	StatsResponse = server.StatsResponse
)

// ---- Request tracing ----
//
// A Tracer attached to ServerConfig.Trace records one small span tree
// per request — admission wait, mailbox queue wait, engine service, and
// one span per billed protocol transition — tied to the caller's trace
// context when one is propagated (Server.DoTraced in process, or the
// traceparent header on POST /v1/batch). Deterministic mode zeroes the
// wall-clock fields so same-seed trace files are byte-identical at any
// shard count and client parallelism. cmd/traceview analyzes the
// resulting JSONL: critical-path decomposition, per-shard queue-wait
// shares, and exact cost reconciliation from spans alone.

// Tracer collects request spans and writes the canonical trace JSONL.
type Tracer = tracing.Tracer

// TraceConfig configures a Tracer (deterministic mode, tail-sampling
// rate, span-buffer bound, and optional incremental span streaming via
// Stream).
type TraceConfig = tracing.Config

// TraceSpan is one record of a trace file.
type TraceSpan = tracing.Span

// TraceSummary is the trace file's final line: the engine's
// authoritative totals at drain.
type TraceSummary = tracing.Summary

// SpanContext identifies one position in one trace.
type SpanContext = tracing.SpanContext

// TraceAnalysis is a parsed trace file: spans, folded per-request
// views, and the summary.
type TraceAnalysis = tracing.Analysis

// TraceRequestView is one request folded out of its span tree.
type TraceRequestView = tracing.RequestView

// NewTracer creates a Tracer.
func NewTracer(cfg TraceConfig) *Tracer { return tracing.New(cfg) }

// ParseTraceparent parses a traceparent-style header into a
// SpanContext.
func ParseTraceparent(h string) (SpanContext, error) { return tracing.ParseTraceparent(h) }

// ParseTrace parses a trace JSONL stream into a TraceAnalysis.
func ParseTrace(r io.Reader) (*TraceAnalysis, error) { return tracing.Parse(r) }
