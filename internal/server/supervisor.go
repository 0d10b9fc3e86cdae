// Shard supervision: each shard's service loop runs under a supervisor
// that takes the loop's journal faults (typed errors) and recovers its
// panics (bugs, or the -chaos-panic failpoint), rebuilds the shard's
// state from its durable journal, requeues the in-flight tasks in
// arrival order and restarts the loop with capped exponential
// backoff. A transient durability fault heals through that cycle; a
// persistent one — consecutive journal faults with no committed-byte
// progress — fail-stops the shard instead of rebuild-looping forever.
// The shard's state (healthy | degraded | recovering | failed) and
// restart count are surfaced via /v1/healthz and the
// server.shard_restarts / server.journal_faults /
// server.recovered_panics / server.shard_failed ops counters.
package server

import (
	"fmt"
	"os"
	"time"

	"objalloc/internal/tracing"
)

// maxRecoveryBackoff caps the supervisor's exponential restart backoff.
const maxRecoveryBackoff = 100 * time.Millisecond

// persistentFailureK is the escalation threshold: this many consecutive
// journal faults without the committed journal growing mark the
// durability failure persistent and fail-stop the shard. Within the
// capped backoff that bounds the rebuild churn to well under a second.
const persistentFailureK = 3

// supervise is the shard goroutine: it runs the service loop, and on a
// journal fault or a panic collects the in-flight tasks, rebuilds the
// shard from its journal and restarts the loop with the backlog carried
// in front of any new work. A task that panics the loop twice in a row
// is abandoned with an error reply so one poisoned request cannot wedge
// the shard.
func (sh *shard) supervise() {
	defer sh.srv.wg.Done()
	var carry []*task
	backoff := time.Millisecond
	lastSize := int64(-1) // committed journal bytes at the last journal fault
	durFails := 0         // consecutive journal faults without progress
	for {
		fault, finished := sh.runRecovered(carry)
		if finished {
			break
		}
		sh.state.Store(shardDegraded)
		if fault != nil {
			// Transient vs persistent: a fault is only making progress if
			// the committed prefix grew since the previous fault. K
			// consecutive no-progress faults ⇒ the disk is not coming
			// back; fail-stop instead of rebuild-looping.
			if sh.journal.size > lastSize {
				durFails = 0
			} else {
				durFails++
			}
			lastSize = sh.journal.size
			if durFails >= persistentFailureK {
				inflight := sh.collectInflight()
				// Roll the counters back to the durable prefix before
				// fail-stopping: the last attempt's steps counted work
				// whose records never committed, and the
				// refused backlog hands its admission slots back — both
				// sides must reflect durable truth or accepted and
				// completed disagree at drain. Replay reads the committed
				// bytes directly, so it works on a dead disk; if it fails
				// anyway the stale counters still force a nonzero exit.
				_ = sh.recoverState()
				sh.failStop(inflight, fault.err)
				return
			}
		} else {
			lastSize, durFails = -1, 0
		}
		// The task the loop stopped in, if any: a journal fault stops it
		// at the commit, with the cursor past the batch.
		var abandon *task
		if sh.curIdx < len(sh.curBatch) {
			cur := sh.curBatch[sh.curIdx]
			if cur == sh.lastPanic {
				sh.panics++
			} else {
				sh.lastPanic, sh.panics = cur, 1
			}
			if sh.panics >= 2 {
				abandon = cur
			}
		}
		carry = sh.collectInflight()
		if abandon != nil {
			kept := carry[:0]
			for _, t := range carry {
				if t != abandon {
					kept = append(kept, t)
				}
			}
			carry = kept
			sh.failTask(abandon, fmt.Errorf("server: shard %d: request abandoned after repeated panics", sh.id))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxRecoveryBackoff {
			backoff = maxRecoveryBackoff
		}
		sh.state.Store(shardRecovering)
		start := sh.srv.cfg.Trace.Now()
		if err := sh.recoverState(); err != nil {
			// The journal cannot be replayed (corrupt, or config drift):
			// nothing can be reprocessed safely. Fail the carried
			// requests and keep serving new work, visibly degraded.
			for _, t := range carry {
				sh.failTask(t, fmt.Errorf("server: shard %d recovery failed: %w", sh.id, err))
			}
			carry = nil
			sh.state.Store(shardDegraded)
			continue
		}
		sh.restarts.Add(1)
		sh.srv.ops.Counter("server.shard_restarts").Add(1)
		sh.state.Store(shardHealthy)
		backoff = time.Millisecond
		sh.emitRecoverSpan(start, len(carry))
	}
	if sh.journal != nil {
		if err := sh.journal.close(); err != nil {
			// The final commit (or the close itself) lost data: surface it
			// so Drain can report the durability loss instead of exiting 0.
			sh.srv.ops.Counter("server.journal_faults").Add(1)
			sh.srv.recordDrainErr(fmt.Errorf("server: shard %d: journal close: %w", sh.id, err))
		}
	}
}

// failStop is the terminal transition for a persistently failing disk:
// mark the shard failed, close the dead journal handle without another
// sync attempt (fsyncgate: it could only lie), refuse the carried
// backlog with typed Unavailable replies, then keep draining the
// mailbox the same way until Drain closes it — fail-stop, not wedge.
func (sh *shard) failStop(carry []*task, cause error) {
	sh.failCause = cause // before the state store; see the field comment
	sh.state.Store(shardFailed)
	sh.srv.ops.Counter("server.shard_failed").Add(1)
	sh.srv.recordDrainErr(fmt.Errorf("server: shard %d failed: persistent durability failure: %w", sh.id, cause))
	if sh.journal != nil {
		_ = sh.journal.f.Close()
	}
	refusal := &Unavailable{Shard: sh.id, RetryAfter: failedRetryAfter, Cause: cause}
	for _, t := range carry {
		sh.failTask(t, refusal)
	}
	for t := range sh.mail {
		sh.failTask(t, refusal)
	}
}

// runRecovered runs the service loop. finished reports a normal end
// (drain complete); otherwise fault is the journal fault that stopped
// the loop, or nil after a recovered panic — a genuine bug or the
// -chaos-panic failpoint, which is all recovered_panics counts.
func (sh *shard) runRecovered(carry []*task) (fault *journalFaultError, finished bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.srv.ops.Counter("server.recovered_panics").Add(1)
		}
	}()
	fault = sh.run(carry)
	return fault, fault == nil
}

// failTask replies with an error for a task that will never be
// serviced, handing its admission slot back so accepted still equals
// completed at drain.
func (sh *shard) failTask(t *task, err error) {
	if t.acked {
		return
	}
	t.acked = true
	sh.refundAdmission(t)
	t.done <- Result{Object: t.object, Err: err}
}

// collectInflight returns the round's unacked tasks in batch order after
// a recovered fault or panic, and resets the loop-confined round state;
// recoverState rebuilds the rest of the shard's state from the journal.
// A task before the cursor was serviced and has emitted its spans; the
// retry re-emits them tagged "reprocessed".
func (sh *shard) collectInflight() []*task {
	var out []*task
	for i, t := range sh.curBatch {
		if t.acked {
			continue
		}
		if i < sh.curIdx {
			t.reprocessed = true
		}
		out = append(out, t)
	}
	sh.pending = sh.pending[:0]
	sh.curBatch, sh.curIdx = nil, 0
	return out
}

// recoverState rebuilds the shard from the durable journal prefix after
// a fault or panic: uncommitted records (buffered, or written but never
// fsync-acked) are discarded and the old file handle closed, then
// rebuild cuts the file to the committed size and replays it. Closing
// before truncating is the fsyncgate rule: after a failed fsync the
// kernel may have dropped the dirty pages and marked them clean, so the
// old descriptor's state is a lie — the only safe move is discard +
// reopen + rebuild from the durable prefix, never a retried fsync.
// Reprocessing the carried tasks then redraws the same fault-stream
// values the crashed loop drew, so the recovered shard is
// indistinguishable from one that never panicked. Without a journal
// there is nothing to rebuild from; the loop restarts over the
// surviving in-memory state, best-effort.
func (sh *shard) recoverState() error {
	if sh.journal == nil {
		return nil
	}
	sh.journal.discard()
	_ = sh.journal.f.Close() // possibly poisoned; close is always safe
	return sh.rebuild(sh.journal.size)
}

// rebuild brings a journaled shard up from disk, at startup and after a
// fault alike: cut the journal to size bytes (its durable prefix), replay
// it into a fresh request state, cut any torn final line replay found,
// install the state and reopen the journal for appending. One pointer
// store swaps the engine, every table and the counters; a concurrent
// Stats scrape sees the old state or the new, never a mix. The admission
// counter is the caller's: after a fault the carried tasks are still
// admitted and will complete (or be failed) by the restarted loop.
func (sh *shard) rebuild(size int64) error {
	cfg := &sh.srv.cfg
	path := cfg.journalPath(sh.id)
	if err := os.Truncate(path, size); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: journal %s: %w", path, err)
	}
	st, valid, err := replayJournal(path, cfg)
	if err != nil {
		return err
	}
	if valid < size {
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("server: journal %s: %w", path, err)
		}
	}
	j, err := openJournal(path, valid, cfg.CheckpointEvery, sh.inj)
	if err != nil {
		return err
	}
	sh.journal = j
	sh.st.Store(st)
	return nil
}

// emitJournalFaultSpan records one always-sampled journal_fault span
// per durability fault, emitted on the shard goroutine just before the
// fault ends the loop. The IDs derive from (seed, shard, fault ordinal),
// deterministic like every other ID in the trace.
func (sh *shard) emitJournalFaultSpan(op string, err error) {
	tc := sh.srv.cfg.Trace
	if !tc.Enabled() {
		return
	}
	n := sh.faultSpans
	sh.faultSpans++
	sc := tracing.DeriveRequest(sh.srv.cfg.Seed, fmt.Sprintf("shard-%d-journal", sh.id), n)
	tc.Submit(true, tracing.Span{
		Trace: sc.Trace.String(), Span: sc.Span.String(), Name: tracing.NameJournalFault,
		Shard: sh.id, Op: op, Outcome: "fault", Err: err.Error(),
		StartNS: tc.Now(),
	})
}

// emitRecoverSpan records one shard_recover span per successful
// recovery, flagged so the tail sampler always keeps it. The span's IDs
// are derived from (seed, shard, restart ordinal), deterministic like
// every other ID in the trace.
func (sh *shard) emitRecoverSpan(start int64, carried int) {
	tc := sh.srv.cfg.Trace
	if !tc.Enabled() {
		return
	}
	sc := tracing.DeriveRequest(sh.srv.cfg.Seed, fmt.Sprintf("shard-%d", sh.id), sh.restarts.Load())
	now := tc.Now()
	tc.Submit(true, tracing.Span{
		Trace: sc.Trace.String(), Span: sc.Span.String(), Name: tracing.NameRecover,
		Shard: sh.id, Outcome: "recovered", QueueLen: carried,
		StartNS: start, DurNS: now - start,
	})
}
