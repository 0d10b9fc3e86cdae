package sim

import (
	"cmp"
	"fmt"
	"slices"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/storage"
)

// outboxStatus is a node's answer to one outbox poll.
type outboxStatus struct {
	outstanding int                 // unacknowledged entries still being retried
	gaveUp      []model.ProcessorID // peers whose retry budget is exhausted
}

// outKey identifies one reliable transmission awaiting acknowledgement.
type outKey struct {
	to  model.ProcessorID
	typ netsim.Type
	seq uint64
}

// outEntry is the retransmission state of one unacknowledged message.
type outEntry struct {
	m        netsim.Message
	attempts int // retransmissions so far
	due      int // earliest quiescence round for the next retransmission
}

// node is the protocol state of one processor — what the driver's calls
// and the runtime's message deliveries act on: a local database and (for DA
// members of F) a join-list.
type node struct {
	c     *Cluster
	id    model.ProcessorID
	store storage.Store
	net   *netsim.Network

	// pending maps correlation id -> how a read still waiting for its reply
	// reports its outcome to the driver.
	pending map[uint64]func(netsim.Result)
	// maxSeen is the highest version sequence number this node has
	// witnessed (installed, invalidated away, or written); duplicated or
	// delayed pushes at or below it are acknowledged but not re-installed,
	// which keeps the handlers idempotent on a faulty network.
	maxSeen uint64
	// served records read correlation ids already answered, so duplicated
	// or retransmitted requests are re-answered as retransmissions
	// (billed to the reliability counters, not the paper's cost model).
	served map[uint64]bool
	// outbox holds unacknowledged pushes/invalidations for retransmission
	// (lossy mode with retries only).
	outbox map[outKey]*outEntry

	// DA state on members of F.
	inF      bool
	minF     bool
	joinList model.Set
	// extra is the one non-F member installed by the most recent write
	// (initially the designated processor p); tracked by the smallest
	// member of F, which owns its invalidation. -1 means none.
	extra model.ProcessorID
}

func newNode(c *Cluster, id model.ProcessorID, st storage.Store) *node {
	n := &node{
		c:       c,
		id:      id,
		store:   st,
		net:     c.Network(),
		pending: make(map[uint64]func(netsim.Result)),
		served:  make(map[uint64]bool),
		outbox:  make(map[outKey]*outEntry),
		extra:   -1,
	}
	if v, ok := st.Peek(); ok {
		n.maxSeen = v.Seq
	}
	if c.cfg.Protocol == DA {
		n.inF = c.core.Contains(id)
		if n.inF {
			n.minF = id == c.core.Min()
			if n.minF {
				n.extra = c.anchor
			}
		}
	}
	return n
}

// startRead begins servicing a read issued at this processor. Local copies
// are read directly; otherwise a read request goes to the serving replica
// and the reply handler reports the outcome through done. The correlation
// id is driver-generated so the driver can retransmit or abandon the read.
func (n *node) startRead(corr uint64, done func(netsim.Result)) {
	if n.hasValidCopy() {
		v, err := n.store.Get()
		done(netsim.Result{Version: v, Err: err})
		return
	}
	n.pending[corr] = done
	n.net.Send(netsim.Message{From: n.id, To: n.serverReplica(), Type: netsim.TReadReq, Seq: corr})
}

// retryRead retransmits a read request that is still unanswered.
func (n *node) retryRead(corr uint64, attempt int) {
	if _, ok := n.pending[corr]; !ok {
		return // answered (or nacked) in the meantime
	}
	n.c.cfg.Obs.Counter("sim.read.retries").Inc()
	n.net.Send(netsim.Message{From: n.id, To: n.serverReplica(), Type: netsim.TReadReq, Seq: corr, Attempt: attempt})
}

// failRead gives up on a still-pending read: the retry budget is spent.
func (n *node) failRead(corr uint64) {
	done, ok := n.pending[corr]
	if !ok {
		return
	}
	delete(n.pending, corr)
	n.c.cfg.Obs.Counter("sim.read.giveup").Inc()
	done(netsim.Result{Err: netsim.Unreachable{Peer: n.serverReplica()}})
}

// hasValidCopy reports whether the local database holds the latest version.
// Under the protocol's invariants any valid copy is the latest one (stale
// copies are invalidated synchronously with the write), so this is just the
// catalog check.
func (n *node) hasValidCopy() bool { return n.store.HasCopy() }

// serverReplica is the replica a remote read is sent to: a member of SA's Q
// or of DA's F. Both protocols use the smallest id, mirroring
// dom.MinPicker so the executed protocol matches the analytic algorithm
// decision for decision.
func (n *node) serverReplica() model.ProcessorID {
	if n.c.cfg.Protocol == SA {
		return n.c.cfg.Initial.Min()
	}
	return n.c.core.Min()
}

// doWrite services a write issued at this processor: output locally when
// the writer is in the execution set, propagate the version to the rest of
// the execution set, and — for DA members of F — carry out the invalidation
// duty for this node's join-list.
func (n *node) doWrite(v storage.Version) error {
	x := n.execSet(model.ProcessorID(v.Writer))
	if x.Contains(n.id) {
		if err := n.store.Put(v); err != nil {
			return fmt.Errorf("sim: write at %d: %w", n.id, err)
		}
	}
	if v.Seq > n.maxSeen {
		n.maxSeen = v.Seq
	}
	x.ForEach(func(q model.ProcessorID) {
		if q != n.id {
			n.sendReliable(netsim.Message{From: n.id, To: q, Type: netsim.TWritePush, Seq: v.Seq, Version: v})
		}
	})
	if n.inF {
		n.invalidationDuty(model.ProcessorID(v.Writer), v.Seq, x)
	}
	return nil
}

// sendReliable transmits a push or invalidation and, when the
// retransmission discipline is engaged, records it in the outbox until the
// destination acknowledges it.
func (n *node) sendReliable(m netsim.Message) {
	n.net.Send(m)
	if n.c.Retries() {
		n.outbox[outKey{to: m.To, typ: m.Type, seq: m.Seq}] = &outEntry{m: m, due: 1}
	}
}

// pollOutbox is one quiescence round of the retransmission discipline:
// entries whose backoff round has arrived are retransmitted; entries whose
// budget is spent are dropped and reported as given up. The outbox is
// walked in (to, type, seq) order, so what is retransmitted first — and
// which peer a failed write names — does not hang on Go's map order.
func (n *node) pollOutbox(round int) outboxStatus {
	var st outboxStatus
	maxAttempts := n.c.cfg.Retry.Attempts()
	keys := make([]outKey, 0, len(n.outbox))
	for k := range n.outbox {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b outKey) int {
		return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.typ, b.typ), cmp.Compare(a.seq, b.seq))
	})
	for _, k := range keys {
		e := n.outbox[k]
		if e.attempts >= maxAttempts {
			delete(n.outbox, k)
			st.gaveUp = append(st.gaveUp, k.to)
			continue
		}
		st.outstanding++
		if round >= e.due {
			e.attempts++
			m := e.m
			m.Attempt = e.attempts
			n.net.Send(m)
			e.due = round + n.c.cfg.Retry.Backoff(e.attempts)
		}
	}
	return st
}

// execSet is the execution set of a write issued by writer (§4.2.1/§4.2.2).
func (n *node) execSet(writer model.ProcessorID) model.Set {
	if n.c.cfg.Protocol == SA {
		return n.c.cfg.Initial
	}
	if n.c.core.Contains(writer) || writer == n.c.anchor {
		return n.c.core.Add(n.c.anchor)
	}
	return n.c.core.Add(writer)
}

// invalidationDuty sends 'invalidate' control messages to the processors
// whose copy the write with execution set x made obsolete, as far as this
// F-member is responsible for them: the joiners recorded on its join-list
// (except the writer and the members of x, which received the new version),
// and — on the smallest member of F — the non-F processor installed by the
// previous write. Summed over F, the messages sent are exactly the paper's
// |Y \ X| invalidations.
func (n *node) invalidationDuty(writer model.ProcessorID, seq uint64, x model.Set) {
	n.joinList.ForEach(func(joiner model.ProcessorID) {
		if joiner != writer && !x.Contains(joiner) {
			n.sendReliable(netsim.Message{From: n.id, To: joiner, Type: netsim.TInvalidate, Seq: seq})
		}
	})
	n.joinList = model.EmptySet
	if n.minF {
		if n.extra >= 0 && n.extra != writer && !x.Contains(n.extra) {
			n.sendReliable(netsim.Message{From: n.id, To: n.extra, Type: netsim.TInvalidate, Seq: seq})
		}
		n.extra = x.Diff(n.c.core).Min()
	}
}

func (n *node) HandleMessage(m netsim.Message) {
	switch m.Type {
	case netsim.TReadReq:
		n.serveRead(m)
	case netsim.TReadReply:
		n.finishRead(m)
	case netsim.TWritePush:
		n.applyPush(m)
	case netsim.TInvalidate:
		n.applyInvalidate(m)
	case netsim.TWriteAck:
		delete(n.outbox, outKey{to: m.From, typ: netsim.TWritePush, seq: m.Seq})
	case netsim.TInvalAck:
		delete(n.outbox, outKey{to: m.From, typ: netsim.TInvalidate, seq: m.Seq})
	case netsim.TNack:
		n.handleNack(m)
	}
}

// applyInvalidate discards the local copy named by an invalidation. The
// copy is kept when it is newer than the write that issued the
// invalidation (possible only when the network delays messages across
// writes); legacy invalidations with Seq 0 always apply. Invalidation is a
// catalog operation, no object I/O.
func (n *node) applyInvalidate(m netsim.Message) {
	if m.Seq > n.maxSeen {
		n.maxSeen = m.Seq
	}
	if v, ok := n.store.Peek(); !ok || m.Seq == 0 || v.Seq <= m.Seq {
		_ = n.store.Invalidate()
	}
	if n.c.Lossy() {
		n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TInvalAck, Seq: m.Seq})
	}
}

// handleNack reacts to the failure detector's bounce of a message this
// node sent to a crashed (or partitioned-away) processor.
func (n *node) handleNack(m netsim.Message) {
	switch m.Orig {
	case netsim.TReadReq:
		// The serving replica is down: fail the read immediately rather
		// than burning the retry budget.
		if done, ok := n.pending[m.Seq]; ok {
			delete(n.pending, m.Seq)
			done(netsim.Result{Err: netsim.Unreachable{Peer: m.From}})
		}
	case netsim.TWritePush, netsim.TInvalidate:
		// The destination is down; stop retrying. The paper's failure
		// story makes this safe: a crashed processor rejoins through
		// recovery (missing-writes catch-up in package ha), never by
		// consuming stale traffic.
		delete(n.outbox, outKey{to: m.From, typ: m.Orig, seq: m.Seq})
	}
}

// serveRead answers a remote read request: input the object from the local
// database and transfer it to the reader. A DA member of F also records the
// reader on its join-list — the reader is about to save the copy and join
// the allocation scheme (§4.2.2); the join information rides on the read
// request, costing no extra message.
func (n *node) serveRead(m netsim.Message) {
	// A duplicated or retransmitted request is re-answered (the reply may
	// have been lost), but the repeat reply is billed as a retransmission
	// so first-transmission accounting stays clean.
	attempt := m.Attempt
	if n.served[m.Seq] && attempt == 0 {
		attempt = 1
	}
	n.served[m.Seq] = true
	v, err := n.store.Get()
	if err != nil {
		// No valid copy (possible only under failures): reply with the
		// zero version; the reader surfaces the error.
		n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TReadReply, Seq: m.Seq, Attempt: attempt})
		return
	}
	if n.inF {
		n.joinList = n.joinList.Add(m.From)
	}
	n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TReadReply, Seq: m.Seq, Version: v, Attempt: attempt})
}

// finishRead completes a read this processor issued remotely. Under DA the
// copy is saved to the local database — the saving-read that joins the
// allocation scheme. Under SA the object only reaches main memory.
func (n *node) finishRead(m netsim.Message) {
	done, ok := n.pending[m.Seq]
	if !ok {
		return // stale reply after failover reset; drop
	}
	delete(n.pending, m.Seq)
	if m.Version.IsZero() {
		done(netsim.Result{Err: storage.ErrNoObject})
		return
	}
	if n.c.cfg.Protocol == DA && m.Version.Seq >= n.maxSeen {
		// The saving read that joins the allocation scheme. The save is
		// skipped for a version the node already knows to be obsolete
		// (a delayed reply overtaken by a newer invalidation).
		if err := n.store.Put(m.Version); err != nil {
			done(netsim.Result{Err: err})
			return
		}
		n.maxSeen = m.Version.Seq
	}
	done(netsim.Result{Version: m.Version})
}

// applyPush applies a propagated write. A DA member of F additionally
// carries out its invalidation duty. The handler is idempotent: a
// duplicated or retransmitted push at or below the node's high-water mark
// is acknowledged but neither re-installed nor re-propagated, so a stale
// delayed copy can never resurrect an invalidated version.
func (n *node) applyPush(m netsim.Message) {
	if m.Version.Seq <= n.maxSeen {
		n.ackPush(m)
		return
	}
	if err := n.store.Put(m.Version); err != nil {
		return
	}
	n.maxSeen = m.Version.Seq
	n.ackPush(m)
	if n.inF {
		n.invalidationDuty(model.ProcessorID(m.Version.Writer), m.Version.Seq, n.execSet(model.ProcessorID(m.Version.Writer)))
	}
}

// ackPush acknowledges a write push when the retransmission discipline is
// engaged; on a reliable network pushes are unacknowledged, keeping the
// executed message count identical to the paper's cost model.
func (n *node) ackPush(m netsim.Message) {
	if n.c.Lossy() {
		n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TWriteAck, Seq: m.Seq})
	}
}
