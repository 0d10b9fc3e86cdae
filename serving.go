package objalloc

import (
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// ---- Sharded allocation service ----
//
// The server package turns the multi-object directory into a
// long-running service: objects are hashed to independent shards, each
// shard runs its own allocation engine (SA, DA, or the online adaptive
// SA/DA controller — ServerEngineAdaptive, configured via
// ServerConfig.Adaptive) behind a batched mailbox with admission control,
// and a graceful drain completes every accepted request before shutdown.
// The facade covers embedding the service in process (NewServer,
// Server.Do, Server.Drain). Its HTTP API, client, journal replay and
// request-trace analysis are used through the binaries that own them:
// cmd/objallocd serves, cmd/loadgen drives, cmd/journalcheck reconciles
// and cmd/traceview reads traces.

// ServerConfig describes the sharded allocation service.
type ServerConfig = server.Config

// Server is the running service.
type Server = server.Server

// ServerEngine selects the per-shard engine.
type ServerEngine = server.Engine

// ServerEngineAdaptive runs the adaptive SA/DA controller per object;
// the zero ServerEngine is DA.
const ServerEngineAdaptive = server.EngineAdaptive

// ErrServerDraining is returned by Server.Do once the graceful drain has
// begun.
var ErrServerDraining = server.ErrDraining

// NewServer starts the sharded allocation service. With
// ServerConfig.Journal set, each shard group-commits a request journal
// (fsynced once per service round, checkpointed every CheckpointEvery
// records) and replays whatever journals the directory holds on startup,
// so a server restarted over the same directory continues with the exact
// state and accounting the last committed round left; a fresh service
// takes a fresh directory. Repeat reads coalesce at zero cost exactly
// when the engine would bill them nothing (DA under the mobile model).
// Shard loops run under a supervisor that recovers panics by rebuilding
// from the journal (state surfaced per shard via /v1/healthz and Stats).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ParseServerEngine parses an engine name: "da", "sa" or "adaptive".
func ParseServerEngine(s string) (ServerEngine, error) { return server.ParseEngine(s) }

// Tracer is the request-span collector a ServerConfig.Trace field holds:
// one small span tree per request (admission wait, mailbox queue wait,
// engine service, one span per billed protocol transition), written as
// the trace JSONL cmd/traceview analyzes.
type Tracer = tracing.Tracer
