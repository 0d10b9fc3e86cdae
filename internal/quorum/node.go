package quorum

import (
	"fmt"
	"sort"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/storage"
)

// opKind says which of the two voting operations an op is.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

type opPhase int

const (
	phaseVotes opPhase = iota
	phaseFetch
	phaseAcks
)

// op is an in-flight quorum operation's state machine on its issuing node.
type op struct {
	kind      opKind
	done      func(netsim.Result)
	targets   model.Set
	awaiting  int
	phase     opPhase
	maxSeq    uint64
	maxHolder model.ProcessorID
	data      []byte
	// ver is the version being installed in phaseAcks, kept for
	// retransmission.
	ver storage.Version
	// got records the peers whose reply was already counted in the
	// current phase, so duplicated or retransmitted replies cannot
	// double-decrement awaiting. Reset at each phase transition.
	got model.Set
	// votes records each voter's version number when read-repair is on.
	votes map[model.ProcessorID]uint64
}

// node is the protocol state of one processor of the quorum cluster: what
// the driver's calls and the runtime's message deliveries act on.
type node struct {
	c     *Cluster
	id    model.ProcessorID
	store storage.Store
	net   *netsim.Network

	ops map[uint64]*op
}

// install is the missing-writes catch-up: the recovered version goes into
// the local database.
func (n *node) install(v storage.Version) error { return n.store.Put(v) }

// kick retransmits the outstanding requests of an operation's current
// phase: vote requests to voters that have not answered, the fetch to the
// max holder, or installs to quorum members that have not acknowledged.
// Receivers are stateless or seq-guarded, so re-answering is safe; the
// retransmissions are billed to the reliability counters.
func (n *node) kick(corr uint64, attempt int) {
	o, ok := n.ops[corr]
	if !ok {
		return // completed in the meantime
	}
	n.c.cfg.Obs.Counter("quorum.retries").Inc()
	switch o.phase {
	case phaseVotes:
		o.targets.ForEach(func(t model.ProcessorID) {
			if t != n.id && !o.got.Contains(t) {
				n.net.Send(netsim.Message{From: n.id, To: t, Type: netsim.TVoteReq, Seq: corr, Attempt: attempt})
			}
		})
	case phaseFetch:
		n.net.Send(netsim.Message{From: n.id, To: o.maxHolder, Type: netsim.TQuorumRead, Seq: corr, Attempt: attempt})
	case phaseAcks:
		o.targets.ForEach(func(t model.ProcessorID) {
			if t != n.id && !o.got.Contains(t) {
				n.net.Send(netsim.Message{From: n.id, To: t, Type: netsim.TQuorumWrite, Seq: corr, Version: o.ver, Attempt: attempt})
			}
		})
	}
}

// abort resolves a still-running operation with an unavailability error:
// the retry budget is exhausted without assembling the quorum's answers.
func (n *node) abort(corr uint64) {
	o, ok := n.ops[corr]
	if !ok {
		return
	}
	n.c.cfg.Obs.Counter("quorum.giveup").Inc()
	n.finish(corr, o, netsim.Result{Err: fmt.Errorf("%w: retry budget exhausted in phase %d", ErrUnavailable, o.phase)})
}

// beginVoting starts phase one of a read or write: collect version numbers
// from the quorum. The local vote is immediate (a catalog lookup); remote
// votes are control-message round trips.
func (n *node) beginVoting(kind opKind, corr uint64, targets model.Set, data []byte, done func(netsim.Result)) {
	o := &op{kind: kind, done: done, targets: targets, data: data, phase: phaseVotes, maxHolder: -1}
	if kind == opRead && n.c.cfg.ReadRepair {
		o.votes = make(map[model.ProcessorID]uint64, targets.Size())
	}
	n.ops[corr] = o
	if targets.Contains(n.id) {
		var seq uint64
		if v, ok := n.store.Peek(); ok {
			seq = v.Seq
			o.maxSeq, o.maxHolder = v.Seq, n.id
		}
		if o.votes != nil {
			o.votes[n.id] = seq
		}
	}
	targets.ForEach(func(t model.ProcessorID) {
		if t == n.id {
			return
		}
		o.awaiting++
		n.net.Send(netsim.Message{From: n.id, To: t, Type: netsim.TVoteReq, Seq: corr})
	})
	if o.awaiting == 0 {
		n.advance(corr, o)
	}
}

// advance moves an operation past the voting phase once every vote is in.
func (n *node) advance(corr uint64, o *op) {
	switch o.kind {
	case opRead:
		o.phase = phaseFetch
		switch {
		case o.maxHolder < 0:
			n.finish(corr, o, netsim.Result{Err: storage.ErrNoObject})
		case o.maxHolder == n.id:
			v, err := n.store.Get()
			if err == nil {
				n.maybeRepair(o, v)
			}
			n.finish(corr, o, netsim.Result{Version: v, Err: err})
		default:
			n.net.Send(netsim.Message{From: n.id, To: o.maxHolder, Type: netsim.TQuorumRead, Seq: corr})
		}
	case opWrite:
		o.phase = phaseAcks
		o.got = model.EmptySet // fresh dedup set for the ack phase
		v := storage.Version{Seq: o.maxSeq + 1, Writer: int(n.id), Data: o.data}
		if o.targets.Contains(n.id) {
			if err := n.store.Put(v); err != nil {
				n.finish(corr, o, netsim.Result{Err: err})
				return
			}
		}
		o.data = nil
		o.maxSeq = v.Seq
		o.ver = v
		o.targets.ForEach(func(t model.ProcessorID) {
			if t == n.id {
				return
			}
			o.awaiting++
			n.net.Send(netsim.Message{From: n.id, To: t, Type: netsim.TQuorumWrite, Seq: corr, Version: v})
		})
		if o.awaiting == 0 {
			n.finish(corr, o, netsim.Result{Version: v})
		}
	default:
		panic(fmt.Sprintf("quorum: advance on %v", o.kind))
	}
}

func (n *node) finish(corr uint64, o *op, res netsim.Result) {
	delete(n.ops, corr)
	o.done(res)
}

// maybeRepair pushes the freshly read version to every voter whose vote
// revealed a stale copy (anti-entropy read repair). Fire-and-forget: the
// pushes ride TWritePush data messages with no acknowledgement and never
// delay the read. The local copy is repaired directly.
func (n *node) maybeRepair(o *op, latest storage.Version) {
	if o.votes == nil || latest.IsZero() {
		return
	}
	// Map iteration order is randomized; push in voter-id order so the
	// global send sequence (and with it delayed-message release order on a
	// faulted network) stays deterministic.
	voters := make([]model.ProcessorID, 0, len(o.votes))
	for voter := range o.votes {
		voters = append(voters, voter)
	}
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	for _, voter := range voters {
		if o.votes[voter] >= latest.Seq {
			continue
		}
		if voter == n.id {
			_ = n.store.Put(latest)
			continue
		}
		n.net.Send(netsim.Message{From: n.id, To: voter, Type: netsim.TWritePush, Seq: latest.Seq, Version: latest})
	}
}

func (n *node) HandleMessage(m netsim.Message) {
	switch m.Type {
	case netsim.TVoteReq:
		// Version numbers are catalog metadata: answering costs one
		// control message, no object I/O. The handler is stateless, so a
		// duplicated or retransmitted request is simply re-answered; the
		// repeat reply inherits the request's attempt number and is
		// billed as reliability overhead.
		var seq uint64
		if v, ok := n.store.Peek(); ok {
			seq = v.Seq
		}
		n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TVoteReply, Seq: m.Seq, Version: storage.Version{Seq: seq}, Attempt: m.Attempt})

	case netsim.TVoteReply:
		o, ok := n.ops[m.Seq]
		if !ok || o.phase != phaseVotes || o.got.Contains(m.From) {
			return
		}
		o.got = o.got.Add(m.From)
		// Ties on the version number break toward the lowest processor id.
		// Every vote is awaited before the fetch target is chosen, so this
		// makes the choice a function of the vote set alone — reply arrival
		// order (which loss, delay and the runtime's delivery order decide)
		// cannot influence which link carries the fetch.
		if m.Version.Seq > 0 && (o.maxHolder < 0 || m.Version.Seq > o.maxSeq ||
			(m.Version.Seq == o.maxSeq && m.From < o.maxHolder)) {
			o.maxSeq, o.maxHolder = m.Version.Seq, m.From
		}
		if o.votes != nil {
			o.votes[m.From] = m.Version.Seq
		}
		o.awaiting--
		if o.awaiting == 0 {
			n.advance(m.Seq, o)
		}

	case netsim.TQuorumRead:
		v, err := n.store.Get()
		reply := netsim.Message{From: n.id, To: m.From, Type: netsim.TQuorumReadReply, Seq: m.Seq, Attempt: m.Attempt}
		if err == nil {
			reply.Version = v
		}
		n.net.Send(reply)

	case netsim.TQuorumReadReply:
		o, ok := n.ops[m.Seq]
		if !ok || o.phase != phaseFetch {
			return
		}
		if m.Version.IsZero() {
			n.finish(m.Seq, o, netsim.Result{Err: storage.ErrNoObject})
			return
		}
		n.maybeRepair(o, m.Version)
		n.finish(m.Seq, o, netsim.Result{Version: m.Version})

	case netsim.TWritePush:
		// Read-repair install: only move forward, never regress.
		if v, ok := n.store.Peek(); !ok || v.Seq < m.Version.Seq {
			_ = n.store.Put(m.Version)
		}

	case netsim.TQuorumWrite:
		// Guard against stale installs racing ahead of repairs — which
		// also makes duplicated or retransmitted installs idempotent.
		// The acknowledgement is always (re-)sent: it may have been the
		// lost half of the round trip.
		if v, ok := n.store.Peek(); !ok || v.Seq < m.Version.Seq {
			if err := n.store.Put(m.Version); err != nil {
				return
			}
		}
		n.net.Send(netsim.Message{From: n.id, To: m.From, Type: netsim.TQuorumAck, Seq: m.Seq, Attempt: m.Attempt})

	case netsim.TQuorumAck:
		o, ok := n.ops[m.Seq]
		if !ok || o.phase != phaseAcks || o.got.Contains(m.From) {
			return
		}
		o.got = o.got.Add(m.From)
		o.awaiting--
		if o.awaiting == 0 {
			n.finish(m.Seq, o, netsim.Result{Version: storage.Version{Seq: o.maxSeq, Writer: int(n.id)}})
		}

	case netsim.TNack:
		// The failure detector bounced one of this operation's requests:
		// the peer is down, so the quorum assembled at op start can no
		// longer answer. Abort with the peer attached; the caller (or the
		// failover layer) re-runs against a fresh quorum.
		switch m.Orig {
		case netsim.TVoteReq, netsim.TQuorumRead, netsim.TQuorumWrite:
			if o, ok := n.ops[m.Seq]; ok {
				n.finish(m.Seq, o, netsim.Result{Err: fmt.Errorf("%w: %w", ErrUnavailable, netsim.Unreachable{Peer: m.From})})
			}
		}
	}
}
