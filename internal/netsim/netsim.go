// Package netsim simulates the point-to-point communication network of
// Huang & Wolfson's model (§1.2, §3.2): a homogeneous system in which
// transmitting a control message between any two processors costs cc and
// transmitting a data message (one that carries the object) costs cd.
//
// The network bills every message at send time, classified as control or
// data, so a protocol executed on top of it can be audited against the
// analytic cost model message-for-message. It also supports fault
// injection: crashed processors and partitioned links for the failure
// experiments (§2's quorum fallback), and — through a seeded FaultPlan —
// probabilistic loss, duplication, bounded delay/reordering and link
// flaps, fully deterministic per link so chaos runs are replayable.
//
// Delivery is asynchronous and per-link FIFO (except where a FaultPlan
// deliberately reorders): each endpoint owns an unbounded mailbox, so
// senders never block and the protocols layered on top (package sim,
// package quorum) cannot deadlock on backpressure. Nothing blocks on a
// mailbox either: it is a plain queue, and whoever wants the next message
// takes it with TryRecv. A network has one owner at a time, as its Runtime
// does: nothing in it is safe for concurrent use.
//
// Runtime (runtime.go) is the one processor runtime those protocols run
// on: a single-threaded run-to-quiescence loop over the endpoints'
// mailboxes, the driver's retry loop, and the accounting reads. The
// protocols supply message handlers and nothing else.
//
// Reliability accounting is kept separate from the paper's cost model:
// first transmissions bill ControlSent/DataSent, retransmissions
// (Message.Attempt > 0) bill RetransControl/RetransData, and the
// reliability-layer acknowledgements (TWriteAck, TInvalAck) bill
// AckControl, so a chaos run's first-transmission cost remains comparable
// to the un-faulted baseline.
package netsim

import (
	"fmt"
	"sort"

	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// Kind classifies a message for billing: control messages carry only the
// object id and an operation tag; data messages also carry the object.
type Kind int

const (
	// Control is a short message billed at cc.
	Control Kind = iota
	// Data is an object-carrying message billed at cd.
	Data
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Control:
		return "control"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type identifies the protocol-level meaning of a message.
type Type int

// Protocol message types. The replication protocols (package sim) use the
// first group; quorum consensus (package quorum) uses the second; the
// third group is the reliability layer added for lossy networks.
const (
	// TReadReq asks a data processor to send back its copy (control).
	TReadReq Type = iota
	// TReadReply carries the object back to a reader (data).
	TReadReply
	// TWritePush propagates a newly written version to a replica (data).
	TWritePush
	// TInvalidate tells a processor its copy is obsolete (control).
	TInvalidate
	// TJoin informs an F-member that a reader saved a copy and must be
	// entered in the join-list. In the paper this information rides on
	// the read request itself, so TJoin is never sent as a separate
	// message; it exists for protocol variants.
	TJoin

	// TVoteReq asks a processor for its version number (control).
	TVoteReq
	// TVoteReply answers with the version number (control).
	TVoteReply
	// TQuorumRead asks a quorum member for its full copy (control).
	TQuorumRead
	// TQuorumReadReply carries the copy back (data).
	TQuorumReadReply
	// TQuorumWrite pushes a version to a quorum member (data).
	TQuorumWrite
	// TQuorumAck acknowledges a quorum write (control).
	TQuorumAck

	// TWriteAck acknowledges a TWritePush under the retransmission
	// discipline (control, billed as reliability overhead).
	TWriteAck
	// TInvalAck acknowledges a TInvalidate under the retransmission
	// discipline (control, billed as reliability overhead).
	TInvalAck
	// TNack is a synthetic failure-detector bounce: when a message is
	// dropped for a structural reason (crashed destination, partition,
	// unknown id), the network delivers a TNack to a live sender. It is
	// never billed — it models the fail-stop perfect failure detector
	// the quorum layer already assumes, not a transmission.
	TNack

	// NumTypes bounds the message-type space; per-type counters are
	// indexed by Type.
	NumTypes = int(TNack) + 1
)

// DefaultKind returns the billing class the paper assigns to each message
// type: object-carrying messages are data, everything else control.
func (t Type) DefaultKind() Kind {
	switch t {
	case TReadReply, TWritePush, TQuorumReadReply, TQuorumWrite:
		return Data
	default:
		return Control
	}
}

var typeNames = [NumTypes]string{
	TReadReq: "read-req", TReadReply: "read-reply", TWritePush: "write-push",
	TInvalidate: "invalidate", TJoin: "join",
	TVoteReq: "vote-req", TVoteReply: "vote-reply",
	TQuorumRead: "quorum-read", TQuorumReadReply: "quorum-read-reply",
	TQuorumWrite: "quorum-write", TQuorumAck: "quorum-ack",
	TWriteAck: "write-ack", TInvalAck: "inval-ack", TNack: "nack",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if t >= 0 && int(t) < NumTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Message is one transmission between two processors.
type Message struct {
	From, To model.ProcessorID
	Type     Type
	// Seq correlates replies with requests and carries version numbers
	// for vote messages.
	Seq uint64
	// Version is the object payload of data messages.
	Version storage.Version
	// Attempt is the retransmission count: 0 for a first transmission,
	// k > 0 for the k-th retransmission. Retransmissions are billed into
	// the retransmission counters, not the paper's cost counters.
	Attempt int
	// Orig, on a TNack, is the type of the message that bounced.
	Orig Type
}

// Kind returns the billing class of the message.
func (m Message) Kind() Kind { return m.Type.DefaultKind() }

// Stats are the cumulative network counters. ControlSent/DataSent are the
// quantities the cost model multiplies by cc and cd; messages to crashed or
// partitioned destinations are still billed (the sender transmitted them)
// but counted in Dropped as well. PerType breaks the same sends down by
// protocol message type, so the instrumentation layer can attribute each
// request's messages (read requests vs invalidations vs write pushes...)
// rather than only the control/data split the cost model prices.
//
// Reliability traffic is accounted separately so a chaos run's
// first-transmission cost stays comparable to the un-faulted baseline:
// retransmissions land in RetransControl/RetransData, acknowledgements of
// the retry layer in AckControl, and fault outcomes in DroppedLoss,
// DroppedFlap, Duplicated and Delayed. TNack bounces are synthetic and
// unbilled; Nacks merely counts them.
type Stats struct {
	ControlSent int
	DataSent    int
	Dropped     int

	RetransControl int
	RetransData    int
	AckControl     int
	DroppedLoss    int
	DroppedFlap    int
	Duplicated     int
	Delayed        int
	Nacks          int

	PerType [NumTypes]int
}

// NodeStats counts one processor's share of the first-transmission
// traffic (reliability overhead is excluded, as in Stats).
type NodeStats struct {
	ControlSent, DataSent         int
	ControlReceived, DataReceived int
}

// Network is the simulated interconnect. It is not safe for concurrent
// use; one owner at a time.
type Network struct {
	endpoints map[model.ProcessorID]*Endpoint
	crashed   map[model.ProcessorID]bool
	blocked   map[[2]model.ProcessorID]bool
	stats     Stats
	perNode   map[model.ProcessorID]*NodeStats
	closed    bool

	// plan and links implement the deterministic fault layer; holdSeq
	// totally orders held messages across links for stable release.
	plan    FaultPlan
	links   map[[2]model.ProcessorID]*link
	holdSeq uint64

	// o receives one structured event per drop/duplicate/delay and the
	// matching counters; nil disables fault observability.
	o *obs.Obs

	// trace, when non-nil, receives every message at the moment its
	// delivery is decided: delivered=true when it is enqueued into the
	// destination mailbox (including released held messages and
	// duplicate copies), delivered=false when it is dropped. Synthetic
	// TNack bounces are not traced. Used by the fault-layer tests.
	trace func(Message, bool)
}

// New creates a network with endpoints for processors 0..n-1.
func New(n int) *Network {
	nw := &Network{
		endpoints: make(map[model.ProcessorID]*Endpoint, n),
		crashed:   make(map[model.ProcessorID]bool),
		blocked:   make(map[[2]model.ProcessorID]bool),
		perNode:   make(map[model.ProcessorID]*NodeStats, n),
		links:     make(map[[2]model.ProcessorID]*link),
	}
	for i := 0; i < n; i++ {
		id := model.ProcessorID(i)
		nw.endpoints[id] = &Endpoint{id: id}
		nw.perNode[id] = &NodeStats{}
	}
	return nw
}

// InstallFaults activates a fault plan. Call before traffic flows; the
// per-link random streams start fresh from the plan's seed.
func (nw *Network) InstallFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	nw.plan = plan
	nw.links = make(map[[2]model.ProcessorID]*link)
	return nil
}

// Faults returns the installed fault plan (zero value when none).
func (nw *Network) Faults() FaultPlan { return nw.plan }

// SetObs attaches an instrumentation bundle: every dropped message emits
// one "net.drop" event (with its reason) and bumps the net.drop.*
// counters; duplications and delays are recorded likewise. Events are
// emitted in delivery-decision order, which under Runtime — one handler at
// a time, messages taken in a fixed order — is the same on every run.
func (nw *Network) SetObs(o *obs.Obs) { nw.o = o }

// Trace installs a callback invoked for every delivery decision; see the
// trace field for the exact contract.
func (nw *Network) Trace(fn func(m Message, delivered bool)) { nw.trace = fn }

// Endpoint returns the mailbox of the given processor.
func (nw *Network) Endpoint(id model.ProcessorID) (*Endpoint, error) {
	ep, ok := nw.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown processor %d", id)
	}
	return ep, nil
}

// Send transmits a message. The message is billed unconditionally; it is
// delivered unless the network is closed, the destination has crashed, the
// link is partitioned, the destination id is unknown, or the fault plan
// drops it. Send never blocks: what is delivered now is enqueued, what the
// plan delays is held on its link.
func (nw *Network) Send(m Message) {
	nw.bill(m)
	reason := nw.structural(m)
	var l *link
	if reason == DropNone && nw.plan.Active() {
		l = nw.linkOf(m.From, m.To)
		l.tick++
		switch {
		case l.tick <= l.downUntil:
			reason = DropFlap
		case nw.plan.Flap > 0 && l.rng.float01() < nw.plan.Flap:
			l.downUntil = l.tick + nw.plan.flapLen()
			reason = DropFlap
		case nw.plan.Loss > 0 && l.rng.float01() < nw.plan.Loss:
			reason = DropLoss
		}
	}
	if reason != DropNone {
		nw.drop(m, reason)
	} else {
		delayed := false
		if l != nil && nw.plan.Delay > 0 && l.rng.float01() < nw.plan.Delay {
			delayed = true
			nw.stats.Delayed++
			nw.holdSeq++
			due := l.tick + 1 + l.rng.next()%nw.plan.delayMax()
			l.held = append(l.held, heldMessage{due: due, seq: nw.holdSeq, m: m})
			nw.emitFault("net.delay", m, DropNone)
		}
		if !delayed {
			nw.deliver(m)
		}
		if l != nil && nw.plan.Dup > 0 && l.rng.float01() < nw.plan.Dup {
			nw.stats.Duplicated++
			nw.emitFault("net.dup", m, DropNone)
			nw.deliver(m)
		}
	}
	if l != nil {
		for _, h := range l.dueHeld(false) {
			nw.redeliver(h.m)
		}
	}
}

// ReleaseAll flushes every held (delayed) message network-wide, in hold
// order, re-checking crash/shutdown state at release time. It returns the
// number of messages released (delivered or dropped). The engines call it
// from their quiescence loops so bounded delay cannot outlive a settle.
func (nw *Network) ReleaseAll() int {
	var all []heldMessage
	for _, l := range nw.links {
		all = append(all, l.dueHeld(true)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, h := range all {
		nw.redeliver(h.m)
	}
	return len(all)
}

// structural returns the fail-stop drop reason for m, or DropNone.
func (nw *Network) structural(m Message) DropReason {
	switch {
	case nw.closed:
		return DropClosed
	case nw.endpoints[m.To] == nil:
		return DropUnknown
	case nw.crashed[m.From]:
		return DropCrashedSrc
	case nw.crashed[m.To]:
		return DropCrashedDest
	case nw.blocked[linkKey(m.From, m.To)]:
		return DropPartitioned
	default:
		return DropNone
	}
}

// redeliver finishes a held message's journey: structural state is
// re-checked (the destination may have crashed while the message was in
// flight), then the message is enqueued or dropped.
func (nw *Network) redeliver(m Message) {
	switch {
	case nw.closed:
		nw.drop(m, DropClosed)
	case nw.endpoints[m.To] == nil:
		nw.drop(m, DropUnknown)
	case nw.crashed[m.To]:
		nw.drop(m, DropCrashedDest)
	default:
		nw.deliver(m)
	}
}

// bill records the send in the accounting appropriate to its class:
// first transmissions in the paper's counters, retransmissions and
// reliability acks in the overhead counters. TNack is synthetic and free.
func (nw *Network) bill(m Message) {
	if m.Type == TNack {
		return
	}
	if int(m.Type) >= 0 && int(m.Type) < NumTypes {
		nw.stats.PerType[m.Type]++
	}
	control := m.Kind() == Control
	switch {
	case m.Attempt > 0:
		if control {
			nw.stats.RetransControl++
		} else {
			nw.stats.RetransData++
		}
		nw.o.Counter("net.retrans").Inc()
	case m.Type == TWriteAck || m.Type == TInvalAck:
		nw.stats.AckControl++
		nw.o.Counter("net.ack").Inc()
	case control:
		nw.stats.ControlSent++
		if ns := nw.perNode[m.From]; ns != nil {
			ns.ControlSent++
		}
		if ns := nw.perNode[m.To]; ns != nil {
			ns.ControlReceived++
		}
	default:
		nw.stats.DataSent++
		if ns := nw.perNode[m.From]; ns != nil {
			ns.DataSent++
		}
		if ns := nw.perNode[m.To]; ns != nil {
			ns.DataReceived++
		}
	}
}

// deliver records a successful delivery decision and puts the message
// in the destination's mailbox.
func (nw *Network) deliver(m Message) {
	ep := nw.endpoints[m.To]
	if ep == nil {
		return
	}
	if nw.trace != nil && m.Type != TNack {
		nw.trace(m, true)
	}
	ep.queue = append(ep.queue, m)
}

// drop records a drop, emits its event, and — for structural drops
// of real traffic — bounces a synthetic TNack to a live sender, modeling
// the fail-stop perfect failure detector.
func (nw *Network) drop(m Message, reason DropReason) {
	if m.Type == TNack {
		return // a bounce that cannot be delivered is simply gone
	}
	nw.stats.Dropped++
	switch reason {
	case DropLoss:
		nw.stats.DroppedLoss++
	case DropFlap:
		nw.stats.DroppedFlap++
	}
	if nw.trace != nil {
		nw.trace(m, false)
	}
	nw.emitFault("net.drop", m, reason)
	if reason.Structural() && !nw.closed && !nw.crashed[m.From] {
		if sep, ok := nw.endpoints[m.From]; ok {
			nw.stats.Nacks++
			sep.queue = append(sep.queue, Message{
				From: m.To, To: m.From, Type: TNack,
				Seq: m.Seq, Orig: m.Type, Attempt: m.Attempt,
			})
		}
	}
}

// emitFault emits one fault event and bumps its counters.
func (nw *Network) emitFault(name string, m Message, reason DropReason) {
	o := nw.o
	if o == nil {
		return
	}
	o.Counter(name).Inc()
	attrs := []obs.Attr{
		obs.Int("from", int(m.From)),
		obs.Int("to", int(m.To)),
		obs.String("type", m.Type.String()),
	}
	if reason != DropNone {
		o.Counter(name + "." + reason.String()).Inc()
		attrs = append(attrs, obs.String("reason", reason.String()))
	}
	if m.Attempt > 0 {
		attrs = append(attrs, obs.Int("attempt", m.Attempt))
	}
	o.Emit(obs.Event{Name: name, Attrs: attrs})
}

// Stats returns a snapshot of the counters.
func (nw *Network) Stats() Stats { return nw.stats }

// NodeStatsOf returns a snapshot of one processor's traffic counters.
func (nw *Network) NodeStatsOf(id model.ProcessorID) NodeStats {
	if ns := nw.perNode[id]; ns != nil {
		return *ns
	}
	return NodeStats{}
}

// ResetStats zeroes the counters (e.g. between experiment phases).
func (nw *Network) ResetStats() {
	nw.stats = Stats{}
	for _, ns := range nw.perNode {
		*ns = NodeStats{}
	}
}

// Crash makes the processor unreachable and stops it from sending; its
// queued messages are discarded. Crashing an unknown processor is an
// error (it used to silently register the id as crashed).
func (nw *Network) Crash(id model.ProcessorID) error {
	ep, ok := nw.endpoints[id]
	if !ok {
		return fmt.Errorf("netsim: crash of unknown processor %d", id)
	}
	nw.crashed[id] = true
	ep.queue = nil
	return nil
}

// Restart makes a crashed processor reachable again. Restarting an
// unknown processor is an error; restarting a live one is a no-op.
func (nw *Network) Restart(id model.ProcessorID) error {
	if _, ok := nw.endpoints[id]; !ok {
		return fmt.Errorf("netsim: restart of unknown processor %d", id)
	}
	delete(nw.crashed, id)
	return nil
}

// Crashed reports whether the processor is currently crashed.
func (nw *Network) Crashed(id model.ProcessorID) bool { return nw.crashed[id] }

// Partition blocks the (bidirectional) link between a and b. Both
// processors must exist.
func (nw *Network) Partition(a, b model.ProcessorID) error {
	if _, ok := nw.endpoints[a]; !ok {
		return fmt.Errorf("netsim: partition of unknown processor %d", a)
	}
	if _, ok := nw.endpoints[b]; !ok {
		return fmt.Errorf("netsim: partition of unknown processor %d", b)
	}
	nw.blocked[linkKey(a, b)] = true
	nw.blocked[linkKey(b, a)] = true
	return nil
}

// Heal unblocks the link between a and b. Both processors must exist.
func (nw *Network) Heal(a, b model.ProcessorID) error {
	if _, ok := nw.endpoints[a]; !ok {
		return fmt.Errorf("netsim: heal of unknown processor %d", a)
	}
	if _, ok := nw.endpoints[b]; !ok {
		return fmt.Errorf("netsim: heal of unknown processor %d", b)
	}
	delete(nw.blocked, linkKey(a, b))
	delete(nw.blocked, linkKey(b, a))
	return nil
}

func linkKey(a, b model.ProcessorID) [2]model.ProcessorID {
	return [2]model.ProcessorID{a, b}
}

// Close shuts the network down: queued and held (delayed) messages are
// discarded, and every later send is billed and dropped. Closing twice is
// harmless.
func (nw *Network) Close() {
	if nw.closed {
		return
	}
	nw.closed = true
	nw.links = make(map[[2]model.ProcessorID]*link)
	for _, ep := range nw.endpoints {
		ep.queue = nil
	}
}

// Endpoint is a processor's unbounded FIFO mailbox: its network appends to
// the queue while routing, and TryRecv takes from its head.
type Endpoint struct {
	id    model.ProcessorID
	queue []Message
}

// ID returns the processor this endpoint belongs to.
func (ep *Endpoint) ID() model.ProcessorID { return ep.id }

// TryRecv takes the next message, if there is one.
func (ep *Endpoint) TryRecv() (Message, bool) {
	if len(ep.queue) == 0 {
		return Message{}, false
	}
	m := ep.queue[0]
	ep.queue = ep.queue[1:]
	return m, true
}

// Len returns the number of queued messages.
func (ep *Endpoint) Len() int { return len(ep.queue) }
