// Package server is the long-running sharded allocation service: a
// multi-object distributed-database directory partitioned over N
// independent shards, each running its own allocation engine (SA, DA or
// the adaptive controller that switches between them) behind a batched
// request pipeline with admission control, a write-ahead journal and a
// graceful drain.
//
// The package is three layers around one state machine. State: a
// shardState (state.go) is everything a request's outcome depends on —
// the engine directory, fault streams, freshness table, dedup horizons,
// counters — and its step method is the only code that services a
// request. Scheduling: the shard loop (shard.go) feeds step from a
// mailbox, journals outcomes and releases acks only after the round's
// commit; the supervisor (supervisor.go) restarts a loop stopped by a
// journal fault or a panic on a state replayed from the journal.
// Verification: replay (recovery.go) runs journal records through the
// same step and checks each outcome against the record. Every serving
// engine honours every guarantee below — determinism, checkpoint/recover,
// fault streams, coalescing where it is free; the executed HA clusters,
// which could honour none of them, are exercised by internal/ha,
// internal/chaos and cmd/chaos instead.
//
// Objects are hashed to shards, so each object's requests are serviced by
// exactly one shard goroutine in arrival order — which is what keeps the
// accounting deterministic: per-object cost, per-object fault streams and
// per-object coalescing state never depend on the shard count or on how
// requests from *different* objects interleave. The deterministic
// accounting (per-object stats, totals, the Config.Obs events and
// counters) is therefore byte-identical for any Shards/parallelism
// setting under a fixed seed, while the scheduling-dependent operational
// metrics (queue depths, batch sizes, service rounds) live in a separate
// internal registry exposed via Stats and the HTTP /v1/stats endpoint.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"errors"

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/diskfault"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// Config describes the service. The zero value of most fields resolves
// to a sensible default in Normalize.
type Config struct {
	// Shards is the number of independent shards; fewer than 1 means 1.
	Shards int
	// Queue is each shard's mailbox capacity; fewer than 1 means 256.
	// A full mailbox rejects with Overloaded (admission control).
	Queue int
	// Batch caps the number of requests coalesced into one service
	// round; fewer than 1 means 64.
	Batch int
	// Engine selects the per-shard engine: EngineDA (default), EngineSA
	// or EngineAdaptive.
	Engine Engine
	// Adaptive configures the EngineAdaptive controller (window,
	// hysteresis, decay, start protocol, region test). The zero value
	// selects the adaptive defaults; ignored by the other engines.
	Adaptive adaptive.Spec
	// N is the number of processors; fewer than 1 means 4.
	N int
	// T is the availability threshold; fewer than 1 means 2.
	T int
	// Model prices the accounting; the zero model means cost.SC(0.25, 1).
	Model cost.Model
	// Seed perturbs every per-object fault stream; fixed seed + fixed
	// per-object request order = identical fault outcomes at any Shards.
	Seed int64
	// Faults, when non-nil, injects deterministic message faults into
	// every shard: loss, duplication and delay are drawn from per-object
	// streams. Link flaps are refused: the service has no links.
	Faults *netsim.FaultPlan
	// Retry is the retransmission discipline applied to lost messages.
	Retry netsim.RetryPolicy
	// Journal, when non-empty, is a directory receiving one JSONL
	// journal per shard. Records are group-committed (one write + fsync
	// per service round) and replies are only sent after the commit, so
	// an acked request is always durable; checkpoint records every
	// CheckpointEvery entries keep replay O(tail). See recovery.go for
	// the record format. The directory is the service's state: New
	// replays whatever journals it holds, so a restart over the same
	// directory continues where the last commit left it, and one written
	// under another shard count or other model settings is refused. A
	// fresh service takes a fresh directory.
	Journal string
	// CheckpointEvery is the number of journal records between
	// checkpoints; fewer than 1 means 1024.
	CheckpointEvery int
	// DiskFaults, when non-nil and active, interposes a seeded
	// deterministic failpoint layer between each shard's journalWriter
	// and the disk: write errors, short (torn) writes, fsync failures
	// with fsyncgate semantics, ENOSPC streaks and bounded stalls, a
	// pure function of (Seed, shard, op index). Transient faults heal
	// through supervisor rebuilds; persistent ones fail-stop the shard.
	// Requires Journal.
	DiskFaults *diskfault.Plan
	// PanicAfter, when positive, makes each shard panic once after
	// servicing that many requests — deterministic chaos for exercising
	// the supervisor's recovery path.
	PanicAfter int64
	// Obs receives the deterministic accounting at drain time: sorted
	// per-object events plus total counters and cost histograms. Nil
	// disables it.
	Obs *obs.Obs
	// Trace receives request-scoped spans: admission, mailbox queueing,
	// engine service, and billed protocol transitions, tied to the
	// caller's trace context when one is propagated (DoTraced or the
	// traceparent header on POST /v1/batch). Nil disables tracing; the
	// hot path then pays only nil checks. A deterministic tracer zeroes
	// every wall-clock field so same-seed trace files are byte-identical
	// at any Shards/parallelism — see package tracing.
	Trace *tracing.Tracer

	// Resolved by Normalize: the engine's DOM factory, and whether a
	// repeat read by a processor that has read the object since its last
	// write is served from the freshness table at cost zero — exactly
	// when that is what the engine bills: the DA engine under the mobile
	// model (CIO = 0), where the first read installed a local copy.
	// Every object starts at {0..T-1}.
	coalesce bool
	factory  dom.Factory

	// testBeforeRound, when non-nil, runs at the top of every service
	// round; tests use it to stall a shard and force overload.
	testBeforeRound func(shard int)
}

// Normalize validates the config and resolves its defaults in place. New
// calls it first; callers validating flags may call it themselves.
func (cfg *Config) Normalize() error {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Queue < 1 {
		cfg.Queue = 256
	}
	if cfg.Batch < 1 {
		cfg.Batch = 64
	}
	if cfg.N < 1 {
		cfg.N = 4
	}
	if cfg.T < 1 {
		cfg.T = 2
	}
	if cfg.T > cfg.N {
		return fmt.Errorf("server: T = %d exceeds N = %d", cfg.T, cfg.N)
	}
	if cfg.N > 64 {
		return fmt.Errorf("server: N = %d exceeds the 64-processor set limit", cfg.N)
	}
	if (cfg.Model == cost.Model{}) {
		cfg.Model = cost.SC(0.25, 1)
	}
	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
		if cfg.Faults.Flap > 0 || cfg.Faults.FlapLen > 0 {
			return fmt.Errorf("server: Faults (-faults) sets flap/flaplen: link flaps are per-link; the service draws faults from per-object streams")
		}
	}
	if cfg.DiskFaults != nil {
		if err := cfg.DiskFaults.Validate(); err != nil {
			return err
		}
		if cfg.DiskFaults.Active() && cfg.Journal == "" {
			return fmt.Errorf("server: DiskFaults requires a Journal directory (there is no other disk path to inject)")
		}
	}
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 1024
	}
	cfg.coalesce = cfg.Model.IsMobile() && cfg.Engine == EngineDA
	if err := cfg.Adaptive.Normalize(); err != nil {
		return err
	}
	switch cfg.Engine {
	case EngineAdaptive:
		cfg.factory = adaptive.Factory(cfg.Model, cfg.Adaptive)
	case EngineSA:
		cfg.factory = dom.StaticFactory
	default:
		cfg.factory = dom.DynamicFactory
	}
	return nil
}

// journalPath names one shard's journal file.
func (cfg *Config) journalPath(shard int) string {
	return filepath.Join(cfg.Journal, fmt.Sprintf("shard-%d.jsonl", shard))
}

// Result is one serviced request's outcome.
type Result struct {
	// Object names the object serviced.
	Object string
	// Cost is the request's priced cost, including retransmission
	// billing (Model.CC per lost attempt).
	Cost float64
	// Coalesced reports the request was served from the shard's
	// freshness table without touching the engine.
	Coalesced bool
	// Retransmits counts lost attempts retried under the retry policy.
	Retransmits int
	// Err is the service error, e.g. netsim.Unreachable after the retry
	// budget is exhausted. An errored request still consumed its slot in
	// the object's schedule.
	Err error
	// Duplicate reports the request carried a client sequence number at
	// or below the object's already-serviced horizon (a retry of a
	// request whose ack was lost): it was answered idempotently at zero
	// cost without touching the engine.
	Duplicate bool
}

// Server is the running service.
type Server struct {
	cfg    Config
	shards []*shard
	ops    *obs.Registry // scheduling-dependent operational metrics

	// latHist is the end-to-end request-latency histogram (microseconds)
	// in the ops registry. It is populated only while measure is set —
	// tracing with wall clocks on, or a /v1/metrics or /v1/stats scrape
	// seen — so an unobserved hot path never reads the wall clock.
	latHist   *obs.Histogram
	measure   atomic.Bool
	rejectSeq atomic.Uint64 // trace sequence for admission-rejected requests

	mu       sync.RWMutex // admission guard: RLock to enqueue, Lock to drain
	draining bool
	drained  chan struct{}
	isFinal  atomic.Bool
	wg       sync.WaitGroup

	drainMu   sync.Mutex // guards drainErrs (supervisor goroutines write)
	drainErrs []error
}

// recordDrainErr collects a durability loss or a books mismatch.
func (s *Server) recordDrainErr(err error) {
	s.drainMu.Lock()
	s.drainErrs = append(s.drainErrs, err)
	s.drainMu.Unlock()
}

// DrainErr reports every durability loss the shards observed — a failed
// final commit or close at drain, or a shard fail-stopped by a persistent
// disk failure — and every shard whose books did not balance, joined, or
// nil. Meaningful after Drain; callers exiting 0 on a clean drain must
// check it.
func (s *Server) DrainErr() error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return errors.Join(s.drainErrs...)
}

// New starts the service: Shards shard goroutines, each with its own
// engine, mailbox and (when configured) journal.
func New(cfg Config) (*Server, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ops: obs.NewRegistry(), drained: make(chan struct{})}
	s.latHist = s.ops.Histogram("server.request_latency_us",
		50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 500000)
	if cfg.Trace.Enabled() && !cfg.Trace.Deterministic() {
		s.measure.Store(true)
	}
	if cfg.Journal != "" {
		if err := os.MkdirAll(cfg.Journal, 0o755); err != nil {
			return nil, fmt.Errorf("server: journal dir: %w", err)
		}
		// Objects are partitioned by hash over Shards; replaying under a
		// different shard count would scatter each journal's objects
		// across the wrong shards.
		matches, err := filepath.Glob(filepath.Join(cfg.Journal, "shard-*.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("server: journal dir: %w", err)
		}
		if len(matches) > 0 && len(matches) != cfg.Shards {
			return nil, fmt.Errorf("server: journal dir has %d shard journals but Shards = %d; a journal directory replays only under the shard count that wrote it", len(matches), cfg.Shards)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(s, i)
		if err != nil {
			for _, prev := range s.shards {
				close(prev.mail)
			}
			s.wg.Wait()
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go sh.supervise()
	}
	return s, nil
}

func newShard(s *Server, id int) (*shard, error) {
	cfg := &s.cfg
	sh := &shard{
		id:   id,
		srv:  s,
		mail: make(chan *task, cfg.Queue),
		inj:  cfg.DiskFaults.Injector(id),

		depthHist: s.ops.Histogram(fmt.Sprintf("shard%d.queue_depth", id), 0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
		batchHist: s.ops.Histogram(fmt.Sprintf("shard%d.batch_size", id), 1, 2, 4, 8, 16, 32, 64, 128),
		svcHist:   s.ops.Histogram(fmt.Sprintf("shard%d.service_rounds", id), 1, 2, 4, 8, 16, 32),
	}
	if cfg.Journal == "" {
		st, err := newShardState(cfg)
		if err != nil {
			return nil, err
		}
		sh.st.Store(st)
		return sh, nil
	}
	// A journaled shard comes up the way it comes back from a fault,
	// with the whole file as the durable prefix. Everything in it was
	// acked (or about to be — the client retries unacked requests and is
	// answered idempotently), so admission restarts equal to completed.
	size := int64(0)
	if fi, err := os.Stat(cfg.journalPath(id)); err == nil {
		size = fi.Size()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	if err := sh.rebuild(size); err != nil {
		return nil, err
	}
	sh.accepted.Store(sh.st.Load().ctr.completed.Load())
	return sh, nil
}

// shardOf maps an object to its shard by FNV-1a hash — stable across
// runs, so replays land objects on the same shards.
func (s *Server) shardOf(object string) *shard {
	return s.shards[int(fnv64a(object)%uint64(len(s.shards)))]
}

// Do submits one request and blocks until it is serviced. Admission
// failures return before the request enters any schedule: *Overloaded
// when the target shard's mailbox is full, ErrDraining after Drain
// begins. A non-nil service error (e.g. netsim.Unreachable) means the
// request WAS accepted and consumed — its Result carries the billed
// retransmission cost.
//
// Determinism contract: callers must keep each object's requests on one
// sequential path (issue the next request for an object only after the
// previous one returned). Requests for different objects may be issued
// from any number of goroutines.
func (s *Server) Do(object string, q model.Request) (Result, error) {
	return s.DoTraced(object, q, tracing.SpanContext{})
}

// DoTraced is Do with a propagated trace context: the request's spans
// (admission, queue, service, transitions) are recorded under the
// parent's trace, matching what the HTTP layer does with a traceparent
// header. A zero parent starts a fresh trace whose ID is derived
// deterministically from (Config.Seed, object, per-object sequence).
// Without a configured Config.Trace the parent is ignored.
func (s *Server) DoTraced(object string, q model.Request, parent tracing.SpanContext) (Result, error) {
	return s.do(object, q, parent, 0)
}

// do is DoTraced with an optional client sequence number (seq > 0): a
// request whose seq is below the object's serviced horizon is a retry
// of an already-serviced request and is answered idempotently
// (Result.Duplicate) — the crash-safe contract behind the HTTP wire's
// "seq" field.
func (s *Server) do(object string, q model.Request, parent tracing.SpanContext, seq uint64) (Result, error) {
	q, err := validate(&s.cfg, object, q.Op.String(), int(q.Processor))
	if err != nil {
		return Result{}, err
	}
	return s.submit(object, q, parent, seq)
}

// submit admits one validated request to its shard and awaits the
// outcome. Callers validate first, so a malformed request is refused
// before it can enter — or half-consume — any schedule.
func (s *Server) submit(object string, q model.Request, parent tracing.SpanContext, seq uint64) (Result, error) {
	var t0 time.Time
	if s.measure.Load() {
		t0 = time.Now()
	}
	sh := s.shardOf(object)
	t := &task{object: object, req: q, seq: seq, done: make(chan Result, 1)}
	tc := s.cfg.Trace
	if tc.Enabled() {
		t.tr = &reqTrace{parent: parent, start: tc.Now()}
	}

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return Result{}, ErrDraining
	}
	if sh.state.Load() == shardFailed {
		// Fail-stopped: refuse before the request enters any schedule.
		s.mu.RUnlock()
		return Result{}, &Unavailable{Shard: sh.id, RetryAfter: failedRetryAfter, Cause: sh.failCause}
	}
	sh.accepted.Add(1)
	if t.tr != nil {
		// Stamped before the send: once the mailbox owns the task the
		// shard loop may touch t.tr concurrently.
		t.tr.enqueued = tc.Now()
		if !tc.Deterministic() {
			t.tr.queueLen = len(sh.mail)
		}
	}
	select {
	case sh.mail <- t:
		s.mu.RUnlock()
		sh.streak.Store(0)
	default:
		sh.accepted.Add(^uint64(0))
		s.mu.RUnlock()
		sh.rejected.Add(1)
		ov := &Overloaded{
			Shard:      sh.id,
			QueueLen:   len(sh.mail),
			QueueCap:   cap(sh.mail),
			RetryAfter: retryAfter(sh.streak.Add(1)),
		}
		if t.tr != nil {
			s.emitRejected(sh, t, ov)
		}
		return Result{}, ov
	}
	r := <-t.done
	if !t0.IsZero() {
		s.latHist.Observe(int64(time.Since(t0) / time.Microsecond))
	}
	return r, r.Err
}

// emitRejected records the span pair of an admission-rejected request.
// Rejections depend on scheduling, so traces containing them are not
// covered by the byte-identical guarantee; the tail sampler always
// keeps them (that is the point of sampling overloads).
func (s *Server) emitRejected(sh *shard, t *task, ov *Overloaded) {
	tc := s.cfg.Trace
	// Rejected requests never reach the shard's serial path, so they get
	// sequence numbers from a separate high range, after every serviced
	// request in the canonical sort.
	seq := uint64(1)<<62 + s.rejectSeq.Add(1)
	sc, parentID := s.spanRoot(t, seq)
	now := tc.Now()
	trace, root := sc.Trace.String(), sc.Span.String()
	queueLen := 0
	if !tc.Deterministic() {
		queueLen = ov.QueueLen
	}
	tc.Submit(true, tracing.Span{
		Trace: trace, Span: root, Parent: parentID, Name: tracing.NameRequest,
		Object: t.object, Op: t.req.Op.String(), Proc: int(t.req.Processor), Seq: seq, Shard: sh.id,
		Engine: s.cfg.Engine.String(), Outcome: "overloaded",
		StartNS: t.tr.start, DurNS: now - t.tr.start,
	}, tracing.Span{
		Trace: trace, Span: tracing.ChildID(sc, tracing.NameAdmission, 0).String(), Parent: root,
		Name: tracing.NameAdmission, Object: t.object, Seq: seq, Shard: sh.id,
		QueueLen: queueLen, Outcome: "overloaded",
		StartNS: t.tr.start, DurNS: now - t.tr.start,
	})
}

// spanRoot derives the root span of t's request numbered seq and the ID
// of the span it hangs under: a child of the caller's propagated
// context, or else a fresh trace derived from (Seed, object, seq).
func (s *Server) spanRoot(t *task, seq uint64) (sc tracing.SpanContext, parentID string) {
	if p := t.tr.parent; p.Valid() {
		return tracing.SpanContext{Trace: p.Trace, Span: tracing.ChildID(p, t.object, seq)}, p.Span.String()
	}
	return tracing.DeriveRequest(s.cfg.Seed, t.object, seq), ""
}

// Drain gracefully shuts the pipeline down: new requests are refused
// with ErrDraining, every accepted request completes, journals are
// flushed and fsynced, every shard's books are checked against its
// directory (a mismatch is joined into DrainErr), and the deterministic
// accounting is emitted into Config.Obs. Drain blocks until the drain is
// complete and is idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return
	}
	s.draining = true
	for _, sh := range s.shards {
		close(sh.mail)
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, sh := range s.shards {
		if err := sh.st.Load().checkBooks(); err != nil {
			s.recordDrainErr(fmt.Errorf("server: shard %d: %w", sh.id, err))
		}
	}
	s.finalize()
	s.isFinal.Store(true)
	close(s.drained)
}

// Close drains the pipeline. The engines hold no resources beyond
// memory, so it never fails; the error return is the io.Closer shape
// callers defer.
func (s *Server) Close() error {
	s.Drain()
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// finalize runs after every shard loop has exited; request states are
// goroutine-confined to their shard loops, so this is the first moment
// the server goroutine may touch them. It emits the deterministic
// accounting — totals as counters, per-object stats as events sorted by
// object name, identical streams for any Shards setting — and hands the
// tracer its authoritative summary (every obs hook below is nil-safe,
// so a trace-only run skips straight through them).
func (s *Server) finalize() {
	o := s.cfg.Obs
	if !o.Enabled() && !s.cfg.Trace.Enabled() {
		return
	}
	all := s.allStats()
	total := s.Stats()
	costMilli := o.Histogram("server.object_cost_milli", 0, 100, 300, 1000, 3000, 10000, 30000, 100000)
	var switches int64
	for _, st := range all {
		costMilli.Observe(milli(st.Cost))
		o.Emit(obs.Event{Name: "object", Attrs: []obs.Attr{
			obs.String("name", st.Name),
			obs.Int("requests", st.Requests),
			obs.Int64("cost_milli", milli(st.Cost)),
			obs.Uint64("scheme", uint64(st.Scheme)),
		}})
		// Adaptive-engine visibility: one policy_switch event per
		// protocol transition and one policy_window snapshot per still-
		// adapting object, in the same sorted object order. A pinned or
		// fixed-protocol object emits neither, so its event stream is
		// byte-identical to the pure protocol's.
		for _, tr := range st.Transitions {
			switches++
			o.Emit(obs.Event{Name: "policy_switch", Attrs: []obs.Attr{
				obs.String("object", st.Name),
				obs.Int("step", tr.Step),
				obs.String("from", tr.From),
				obs.String("to", tr.To),
				obs.Int64("cost_milli", milli(tr.Counts.Price(s.cfg.Model))),
			}})
		}
		if w := st.Window; w != nil && w.Adapting {
			o.Emit(obs.Event{Name: "policy_window", Attrs: []obs.Attr{
				obs.String("object", st.Name),
				obs.String("protocol", w.Protocol),
				obs.Float("reads", w.Reads),
				obs.Float("writes", w.Writes),
				obs.Int("switches", len(st.Transitions)),
			}})
		}
	}
	// The switch counter is registered only when a switch happened, so a
	// pinned adaptive run's registry snapshot matches the pure protocol's.
	if switches > 0 {
		o.Counter("server.policy_switches").Add(switches)
	}
	for _, c := range accounting(total) {
		o.Counter(c.Name).Add(c.Value)
	}
	s.cfg.Trace.SetSummary(tracing.Summary{
		Requests:  int64(total.Complete),
		Objects:   total.Objects,
		Engine:    s.cfg.Engine.String(),
		CostMilli: milli(total.Cost),
		Control:   total.Counts.Control,
		Data:      total.Counts.Data,
		IO:        total.Counts.IO,
	})
}

// allStats merges per-object stats across shards, sorted by name. Only
// callable once the shard loops have exited.
func (s *Server) allStats() []multiobject.Stats {
	var all []multiobject.Stats
	for _, sh := range s.shards {
		all = append(all, sh.st.Load().db.AllStats()...)
	}
	// Objects are partitioned by shard, so per-shard sorted slices merge
	// into a globally sorted one with a plain merge; a sort keeps it
	// simple and is O(n log n) once, at drain.
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// accounting is the deterministic accounting as counters, in name order:
// what finalize adds to Config.Obs at drain and what every /v1/metrics
// scrape renders live, under the same names and from the same books.
func accounting(st Stats) []obs.CounterPoint {
	return []obs.CounterPoint{
		{Name: "server.coalesced", Value: int64(st.Coalesce)},
		{Name: "server.duplicates", Value: int64(st.Dups)},
		{Name: "server.io", Value: int64(st.Counts.IO)},
		{Name: "server.msgs.control", Value: int64(st.Counts.Control)},
		{Name: "server.msgs.data", Value: int64(st.Counts.Data)},
		{Name: "server.objects", Value: int64(st.Objects)},
		{Name: "server.requests", Value: int64(st.Complete)},
		{Name: "server.retransmissions", Value: int64(st.Retrans)},
		{Name: "server.unreachable", Value: int64(st.Unreach)},
	}
}

// Stats is the service's snapshot, live at any time: every counter,
// the accounting totals (Objects, Counts, Cost) included, is a running
// per-shard value the shard loops advance with each request. Final only
// marks that the drain has completed.
type Stats struct {
	Engine   string       `json:"engine"`
	Shards   int          `json:"shards"`
	Draining bool         `json:"draining"`
	Final    bool         `json:"final"`
	Accepted uint64       `json:"accepted"`
	Complete uint64       `json:"completed"`
	Rejected uint64       `json:"rejected"`
	Reads    uint64       `json:"reads"`
	Writes   uint64       `json:"writes"`
	Coalesce uint64       `json:"coalesced"`
	Retrans  uint64       `json:"retransmissions"`
	Unreach  uint64       `json:"unreachable"`
	Dups     uint64       `json:"duplicates"`
	Deduped  uint64       `json:"deduped,omitempty"`
	Objects  int          `json:"objects,omitempty"`
	Counts   cost.Counts  `json:"counts,omitzero"`
	Cost     float64      `json:"cost,omitempty"`
	PerShard []ShardStats `json:"per_shard"`
}

// ShardStats is one shard's operational snapshot.
type ShardStats struct {
	Shard    int    `json:"shard"`
	Accepted uint64 `json:"accepted"`
	Complete uint64 `json:"completed"`
	Rejected uint64 `json:"rejected"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Rounds   uint64 `json:"rounds"`
	// State is the supervision state; omitted while healthy.
	State string `json:"state,omitempty"`
	// Restarts counts supervisor recoveries of this shard's loop.
	Restarts uint64 `json:"restarts,omitempty"`
}

// add folds one shard state's request accounting and running books into
// the snapshot and returns its completed count. It reads only atomics,
// so a live scrape may call it at any time.
func (st *Stats) add(ss *shardState) (completed uint64) {
	c := ss.ctr.load()
	st.Complete += c.Completed
	st.Reads += c.Reads
	st.Writes += c.Writes
	st.Coalesce += c.Coalesced
	st.Retrans += c.Retrans
	st.Unreach += c.Unreach
	st.Dups += c.Dups
	st.Deduped += c.Deduped
	k, objects := ss.ctr.books()
	st.Objects += objects
	st.Counts = st.Counts.Add(k)
	st.Cost = st.Counts.Price(ss.cfg.Model)
	return c.Completed
}

// Stats returns the snapshot. Safe to call at any time.
func (s *Server) Stats() Stats {
	st := Stats{
		Engine:   s.cfg.Engine.String(),
		Shards:   len(s.shards),
		Draining: s.Draining(),
		Final:    s.isFinal.Load(),
	}
	for _, sh := range s.shards {
		ss := ShardStats{
			Shard:    sh.id,
			Accepted: sh.accepted.Load(),
			Complete: st.add(sh.st.Load()),
			Rejected: sh.rejected.Load(),
			QueueLen: len(sh.mail),
			QueueCap: cap(sh.mail),
			Rounds:   sh.rounds.Load(),
			Restarts: sh.restarts.Load(),
		}
		if state := sh.state.Load(); state != shardHealthy {
			ss.State = shardStateName(state)
		}
		st.Accepted += ss.Accepted
		st.Rejected += ss.Rejected
		st.PerShard = append(st.PerShard, ss)
	}
	return st
}

// Ops returns the scheduling-dependent operational metrics (queue depth,
// batch size and service-round histograms per shard). These are NOT part
// of the deterministic accounting, which Stats reports live — two runs
// with different shard counts or timing produce different ops snapshots.
func (s *Server) Ops() obs.Snapshot { return s.ops.Snapshot() }

// ObjectStats returns the merged per-object stats, sorted by name. Only
// valid after Drain; before that it returns nil.
func (s *Server) ObjectStats() []multiobject.Stats {
	if !s.isFinal.Load() {
		return nil
	}
	return s.allStats()
}
