package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"

	"objalloc/internal/diskfault"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/tracing"
)

// task is one request in flight through a shard's pipeline.
type task struct {
	object string
	req    model.Request
	seq    uint64 // client sequence for idempotent retry; 0 = none
	done   chan Result
	tr     *reqTrace // tracing state; nil when tracing is off
	acked  bool      // reply sent; set by the shard goroutine only
	// reprocessed marks a task whose completion was already traced
	// before a panic discarded its uncommitted round: the retry
	// re-emits its spans tagged "reprocessed" so traceview can
	// reconcile panic runs exactly.
	reprocessed bool
	// refunded marks a task whose admission slot was already handed
	// back (dedup, refusal, abandonment). A panic can carry such a
	// task into reprocessing, which must not refund it again or
	// accepted drifts below completed at drain.
	refunded bool
}

// refundAdmission hands a task's admission slot back exactly once, so
// requests that complete without counting (dedups, refusals) keep
// accepted equal to completed at drain even when a recovered panic
// reprocesses them.
func (sh *shard) refundAdmission(t *task) {
	if t.refunded {
		return
	}
	t.refunded = true
	sh.accepted.Add(^uint64(0))
}

// reqTrace is the per-task trace state threaded from admission to
// finish: the caller's parent context plus the pipeline timestamps
// (tracer clock; all zero in deterministic mode).
type reqTrace struct {
	parent   tracing.SpanContext
	start    int64 // at submit
	enqueued int64 // after the mailbox accepted the task
	dequeued int64 // at the shard loop's first touch
	queueLen int   // mailbox depth at enqueue (left 0 in deterministic mode)
}

// pendingAck is a completed task whose reply is staged until the
// round's journal commit: acked implies durable.
type pendingAck struct {
	t *task
	r Result
}

// Shard supervision states, surfaced via /v1/healthz. failed is
// terminal: the supervisor fail-stopped the shard after a persistent
// durability failure (see supervisor.go); it refuses all work with
// typed Unavailable replies until the process is restarted against a
// repaired disk.
const (
	shardHealthy int32 = iota
	shardDegraded
	shardRecovering
	shardFailed
)

func shardStateName(v int32) string {
	switch v {
	case shardDegraded:
		return "degraded"
	case shardRecovering:
		return "recovering"
	case shardFailed:
		return "failed"
	default:
		return "healthy"
	}
}

// shard is one partition: a mailbox, a request state and a service loop
// that schedules requests through it. All non-atomic state below the
// marker is confined to the loop goroutine (the supervisor, which runs
// the loop, during recovery).
type shard struct {
	id   int
	srv  *Server
	mail chan *task
	inj  *diskfault.Injector // journal failpoints; nil = real disk

	// st is the request state (state.go). Only the loop goroutine stores
	// to it — once at construction, then a whole replayed state per
	// recovery — and only it touches anything but the counters; Stats
	// scrapes load the pointer and read the counters atomically, so a
	// swap under a live scrape is race-free.
	st atomic.Pointer[shardState]

	// loop-confined scheduling state.
	journal *journalWriter
	pending []pendingAck // acks staged until the round's commit

	// panic-recovery bookkeeping: the round's batch, kept until its
	// commit succeeds, and the cursor into it — the task being processed,
	// or len(curBatch) while the round commits — so the supervisor can
	// collect every in-flight task after a fault or a recovered panic.
	// Both are reset once the commit succeeds, or by collectInflight —
	// never by defer, which would run during the very unwinding the
	// supervisor needs them for.
	curBatch  []*task
	curIdx    int
	lastPanic *task
	panics    int

	// faultSpans is the ordinal for journal_fault trace IDs. failCause
	// is the fault that escalated the shard to failed: written by the
	// supervisor strictly before the shardFailed state.Store, read by
	// admission goroutines strictly after a state.Load observes
	// shardFailed, so the atomic orders the plain field.
	faultSpans uint64
	failCause  error

	// chaos injection (Config.PanicAfter): latched so one shard panics
	// at most once per process lifetime.
	chaosSeen  int64
	chaosFired bool

	// operational metrics (scheduling-dependent, ops registry).
	depthHist *obs.Histogram
	batchHist *obs.Histogram
	svcHist   *obs.Histogram

	// scheduling counters read concurrently by Stats (the request
	// accounting lives in st).
	accepted atomic.Uint64
	rejected atomic.Uint64
	rounds   atomic.Uint64
	streak   atomic.Uint32
	state    atomic.Int32 // shardHealthy/shardDegraded/shardRecovering/shardFailed
	restarts atomic.Uint64
}

// run is the shard's service loop: block for one task, fill the batch
// with what else the mailbox holds, service the round in arrival order,
// commit the round's journal records and only then send the round's
// replies — acked implies durable. It returns nil once the mailbox is
// closed and empty. carry, non-nil after a recovered fault or panic, is
// the in-flight backlog, serviced as one round before any new work. A
// journal fault ends the loop and is returned; panics propagate to the
// supervisor.
func (sh *shard) run(carry []*task) *journalFaultError {
	if len(carry) > 0 {
		sh.rounds.Add(1)
		if fault := sh.serviceRound(carry); fault != nil {
			return fault
		}
	}
	batch := make([]*task, 0, sh.srv.cfg.Batch)
	for {
		if hook := sh.srv.cfg.testBeforeRound; hook != nil {
			hook(sh.id)
		}
		t, ok := <-sh.mail
		if !ok {
			return nil
		}
		batch = append(batch[:0], t)
	fill:
		for len(batch) < cap(batch) {
			select {
			case t, ok := <-sh.mail:
				if !ok {
					break fill
				}
				batch = append(batch, t)
			default:
				break fill
			}
		}
		sh.rounds.Add(1)
		sh.depthHist.Observe(int64(len(sh.mail)))
		sh.batchHist.Observe(int64(len(batch)))
		if fault := sh.serviceRound(batch); fault != nil {
			return fault
		}
	}
}

// serviceRound processes one round's batch, commits the journal and
// flushes the round's staged replies.
func (sh *shard) serviceRound(batch []*task) *journalFaultError {
	sh.curBatch = batch
	for i, t := range batch {
		sh.curIdx = i
		sh.process(t)
	}
	sh.curIdx = len(batch)
	if fault := sh.commit(); fault != nil {
		return fault
	}
	sh.curBatch, sh.curIdx = nil, 0
	return nil
}

// commit durably appends the round's journal records (group commit:
// one write + fsync per round), then sends the staged replies, then
// tries the periodic checkpoint. A record-commit failure returns with
// the replies still staged: the supervisor rebuilds from the durable
// prefix and reprocesses the round, so no ack ever precedes durability.
// The checkpoint commit runs strictly after the acks went out, so a
// checkpoint fault returns with nothing staged — the round's records are
// already durable and reprocessing them would double-bill; replay
// rebuilds the identical state from the records alone.
func (sh *shard) commit() *journalFaultError {
	if sh.journal != nil {
		if err := sh.journal.commitRecords(); err != nil {
			return sh.journalFault("commit", err)
		}
	}
	for _, p := range sh.pending {
		p.t.acked = true
		p.t.done <- p.r
	}
	sh.pending = sh.pending[:0]
	if sh.journal != nil {
		if err := sh.journal.commitCheckpoint(sh.st.Load().export); err != nil {
			return sh.journalFault("checkpoint", err)
		}
	}
	return nil
}

// process services one task through the request state: wire-level
// duplicate detection, the chaos failpoint, then one step.
func (sh *shard) process(t *task) {
	if t.tr != nil && t.tr.dequeued == 0 {
		// First shard-loop touch (a reprocessed task keeps its first):
		// the queue span ends here.
		t.tr.dequeued = sh.srv.cfg.Trace.Now()
	}
	st := sh.st.Load()
	if t.seq != 0 && t.seq < st.next[t.object] {
		// A client retry of an already-serviced request (the ack was lost
		// in a crash or on the wire): answer idempotently — zero cost, no
		// journal record, no engine touch, and the admission slot is
		// handed back so accepted still equals completed at drain.
		st.ctr.deduped.Add(1)
		sh.refundAdmission(t)
		sh.pending = append(sh.pending, pendingAck{t: t, r: Result{Object: t.object, Duplicate: true}})
		return
	}
	if pa := sh.srv.cfg.PanicAfter; pa > 0 && !sh.chaosFired {
		sh.chaosSeen++
		if sh.chaosSeen >= pa {
			sh.chaosFired = true
			panic(fmt.Sprintf("shard %d: injected chaos panic after %d requests", sh.id, sh.chaosSeen))
		}
	}
	out := st.step(t.object, t.req, t.seq)
	sh.finish(t, out)
}

// finish completes a stepped task: journal, metrics, trace, and stage
// (or, unjournaled, send) the reply.
func (sh *shard) finish(t *task, out outcome) {
	sh.svcHist.Observe(int64(1 + out.holds))
	if sh.journal != nil {
		sh.journal.record(t, out.res)
	}
	if t.tr != nil {
		sh.emitTrace(t, out)
	}
	if sh.journal != nil {
		// Group commit: the reply goes out after the round's fsync.
		sh.pending = append(sh.pending, pendingAck{t: t, r: out.res})
	} else {
		t.acked = true
		t.done <- out.res
	}
}

// journalFaultError is a durability fault on a shard's journal: op
// ("commit" or "checkpoint") failed with err. It ends the service loop
// as a value, not a panic, so the supervisor can tell an expected
// ENOSPC from a bug: it rebuilds from the durable prefix either way,
// but only journal faults feed the fail-stop escalation.
type journalFaultError struct {
	op  string
	err error
}

func (e *journalFaultError) Error() string { return "journal " + e.op + ": " + e.err.Error() }

// journalFault records a durability fault — the ops counter and an
// always-sampled trace span — and returns it typed for the supervisor.
func (sh *shard) journalFault(op string, err error) *journalFaultError {
	sh.srv.ops.Counter("server.journal_faults").Add(1)
	sh.emitJournalFaultSpan(op, err)
	return &journalFaultError{op: op, err: err}
}

// milli converts a priced cost into integer milli-units, the span,
// journal and summary currency (rounded, so sums of per-request values
// reconcile exactly against the engine total for the paper's cost
// models).
func milli(c float64) int64 { return int64(math.Round(c * 1000)) }

// emitTrace builds and submits the finished task's span tree: the
// request root, its admission/queue/service children, and one
// transition span per protocol switch the request triggered. Shard-
// confined, so the per-object sequence numbers are deterministic.
func (sh *shard) emitTrace(t *task, out outcome) {
	tc := sh.srv.cfg.Trace
	r, a, seq := out.res, out.detail, out.traceSeq
	sc, parentID := sh.srv.spanRoot(t, seq)
	now := tc.Now()
	trace, root := sc.Trace.String(), sc.Span.String()
	tag := ""
	var unreach netsim.Unreachable
	switch {
	case errors.As(r.Err, &unreach):
		tag = "unreachable"
	case r.Err != nil:
		tag = "error"
	case r.Coalesced:
		tag = "coalesced"
	}
	if t.reprocessed && tag == "" {
		// The first attempt's spans already shipped before a panic threw
		// the round away; tag the replay so traceview reconciles exactly.
		tag = "reprocessed"
	}
	engine := sh.srv.cfg.Engine.String()
	spans := make([]tracing.Span, 0, 4+len(a.Transitions))
	spans = append(spans, tracing.Span{
		Trace: trace, Span: root, Parent: parentID, Name: tracing.NameRequest,
		Object: t.object, Op: t.req.Op.String(), Proc: int(t.req.Processor), Seq: seq, Shard: sh.id,
		Engine: engine, Protocol: a.Protocol, CostMilli: milli(r.Cost),
		Retransmits: r.Retransmits, Holds: out.holds, Outcome: tag,
		StartNS: t.tr.start, DurNS: now - t.tr.start,
	}, tracing.Span{
		Trace: trace, Span: tracing.ChildID(sc, tracing.NameAdmission, 0).String(), Parent: root,
		Name: tracing.NameAdmission, Object: t.object, Seq: seq, Shard: sh.id,
		StartNS: t.tr.start, DurNS: t.tr.enqueued - t.tr.start,
	}, tracing.Span{
		Trace: trace, Span: tracing.ChildID(sc, tracing.NameQueue, 0).String(), Parent: root,
		Name: tracing.NameQueue, Object: t.object, Seq: seq, Shard: sh.id,
		QueueLen: t.tr.queueLen,
		StartNS:  t.tr.enqueued, DurNS: t.tr.dequeued - t.tr.enqueued,
	})
	svcID := tracing.ChildID(sc, tracing.NameService, 0).String()
	spans = append(spans, tracing.Span{
		Trace: trace, Span: svcID, Parent: root,
		Name: tracing.NameService, Object: t.object, Seq: seq, Shard: sh.id,
		Engine: engine, Protocol: a.Protocol, CostMilli: milli(r.Cost),
		Control: a.Counts.Control + r.Retransmits, Data: a.Counts.Data, IO: a.Counts.IO,
		Retransmits: r.Retransmits, Holds: out.holds, Outcome: tag,
		StartNS: t.tr.dequeued, DurNS: now - t.tr.dequeued,
	})
	for i, dtr := range a.Transitions {
		spans = append(spans, tracing.Span{
			Trace: trace, Span: tracing.ChildID(sc, tracing.NameTransition, uint64(i)).String(), Parent: svcID,
			Name: tracing.NameTransition, Object: t.object, Seq: seq, Shard: sh.id,
			Engine: engine, From: dtr.From, To: dtr.To, Step: dtr.Step,
			CostMilli: milli(dtr.Counts.Price(sh.srv.cfg.Model)),
		})
	}
	flagged := r.Err != nil || r.Retransmits > 0 || len(a.Transitions) > 0 || t.reprocessed
	tc.Submit(flagged, spans...)
}

// journalFile is the seam between journalWriter and the disk: *os.File
// in production, *diskfault.File under an injection plan. Nothing else
// of os.File's surface is used, so the failpoint wrapper stays small.
type journalFile interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Close() error
}

// journalWriter group-commits one JSONL record per completed request:
// records accumulate in a memory buffer (never auto-flushed, so an
// unacked record can't leak to disk) and commit appends them with one
// write + fsync per service round. Every CheckpointEvery committed
// records it appends a checkpoint record so replay is O(tail).
type journalWriter struct {
	f       journalFile
	buf     []byte
	bufRecs int   // records in buf, folded into sinceCkpt on commit
	size    int64 // committed (write+fsync completed) bytes; the
	// recovery truncation point — anything beyond it was never acked
	every     int // checkpoint cadence; <1 disables
	sinceCkpt int
}

// openJournal opens a shard journal for appending after its size
// committed bytes, which the caller has just replayed. Writes use
// O_APPEND so a rebuild's truncation and subsequent appends compose
// correctly. inj, when non-nil, interposes the seeded disk-fault
// injector.
func openJournal(path string, size int64, every int, inj *diskfault.Injector) (*journalWriter, error) {
	const flags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
	var f journalFile
	if inj != nil {
		df, err := inj.Open(path, flags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("server: journal: %w", err)
		}
		f = df
	} else {
		of, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			return nil, fmt.Errorf("server: journal: %w", err)
		}
		f = of
	}
	return &journalWriter{f: f, size: size, every: every}, nil
}

// record appends one reqRecord line to the buffer: the bytes
// json.Marshal(reqRecord{...}) would produce, through the wire codec's
// helpers.
func (j *journalWriter) record(t *task, r Result) {
	b := appendString(append(j.buf, `{"object":`...), t.object)
	b = appendString(append(b, `,"op":`...), t.req.Op.String())
	b = strconv.AppendInt(append(b, `,"p":`...), int64(t.req.Processor), 10)
	if t.seq != 0 {
		b = strconv.AppendUint(append(b, `,"seq":`...), t.seq, 10)
	}
	b = strconv.AppendInt(append(b, `,"cost_milli":`...), milli(r.Cost), 10)
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if r.Retransmits != 0 {
		b = strconv.AppendInt(append(b, `,"retransmits":`...), int64(r.Retransmits), 10)
	}
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			b = appendString(append(b, `,"err":`...), msg)
		}
	}
	j.buf = append(b, '}', '\n')
	j.bufRecs++
}

// discard drops the uncommitted buffer; the supervisor calls it before
// rebuilding from the durable prefix.
func (j *journalWriter) discard() {
	j.buf = j.buf[:0]
	j.bufRecs = 0
}

// commitRecords appends the buffered records durably (one write + one
// fsync). The committed size advances only after the fsync returns, so
// j.size is always the recovery truncation point.
func (j *journalWriter) commitRecords() error {
	if len(j.buf) == 0 {
		return nil
	}
	if _, err := j.f.Write(j.buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size += int64(len(j.buf))
	j.sinceCkpt += j.bufRecs
	j.discard()
	return nil
}

// commitCheckpoint appends the checkpoint record ckpt exports durably
// when the cadence has elapsed.
func (j *journalWriter) commitCheckpoint(ckpt func() (*ckptRecord, error)) error {
	if j.every <= 0 || j.sinceCkpt < j.every {
		return nil
	}
	rec, err := ckpt()
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size += int64(len(b))
	j.sinceCkpt = 0
	return nil
}

// close commits anything still buffered (commitRecords syncs whatever
// it writes, so no separate Sync follows) and closes the file,
// returning the first error so drain can report a durability loss at
// shutdown.
func (j *journalWriter) close() error {
	err := j.commitRecords()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fnv64a is the 64-bit FNV-1a hash, used for the object→shard mapping
// and per-object fault-stream seeding.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
