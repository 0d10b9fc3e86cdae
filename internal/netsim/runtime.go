package netsim

import (
	"errors"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// Handler is the protocol half of one processor. The runtime calls it for
// every delivered message, and the driver reaches the same state through Do
// and Perform. The runtime has one owner, so there is one call at a time
// across the whole cluster and a handler's state needs no locking. It acts
// by sending on the network; it must not call back into the runtime.
type Handler interface {
	HandleMessage(m Message)
}

// Result is the outcome of one driver-issued operation, as the issuing
// processor reports it to the operation's done function.
type Result struct {
	Version storage.Version
	Err     error
}

// ErrClosed is returned by operations on a closed runtime.
var ErrClosed = errors.New("netsim: cluster closed")

// ErrStalled is returned for an operation whose reply has not arrived
// although nothing is left to deliver (and, under the retransmission
// discipline, the retry budget is spent): a message it waited for was lost
// and nobody will resend it.
var ErrStalled = errors.New("netsim: operation stalled: no reply and nothing left to deliver")

// Runtime is what the executed protocols (packages sim and quorum) run
// on: the billing network, one local database and one handler per
// processor, the run-to-quiescence loop that delivers their messages, the
// driver side of the retransmission discipline, and the accounting reads
// every caller of a cluster makes. A protocol supplies one Handler per
// processor and nothing else; it embeds the runtime to export the reads.
//
// It starts no goroutine, as the paper's model has no thread: a request
// costs the messages and I/Os it causes, and the only freedom is the order
// in which deliverable messages are handled. A driver call is a function
// run in the caller's goroutine (Do, an Op's Start and Retry) and Quiesce
// takes messages in one fixed order, so every count is a function of the
// inputs. Like its Network, a Runtime is not safe for concurrent use; one
// owner at a time — which operations run together is a PerformAll burst,
// not a race between callers.
type Runtime struct {
	net      *Network
	stores   []storage.Store
	handlers []Handler
	mailbox  []*Endpoint
	closed   bool

	// lossy is set when a fault plan is active; retries additionally
	// requires the retransmission discipline not to be disabled.
	lossy   bool
	retries bool
	retry   RetryPolicy
	corr    uint64
}

// NewRuntime builds the network (with the fault plan, when one is active)
// and the n local databases; newStore nil means in-memory stores. No
// processor has a handler until Start.
func NewRuntime(n int, newStore func(model.ProcessorID) (storage.Store, error), o *obs.Obs, faults *FaultPlan, retry RetryPolicy) (*Runtime, error) {
	rt := &Runtime{net: New(n), retry: retry}
	if faults != nil && faults.Active() {
		if err := rt.net.InstallFaults(*faults); err != nil {
			return nil, err
		}
		rt.lossy = true
		rt.retries = !retry.Disabled
	}
	rt.net.SetObs(o)
	if newStore == nil {
		newStore = func(model.ProcessorID) (storage.Store, error) { return storage.NewMem(), nil }
	}
	for i := 0; i < n; i++ {
		st, err := newStore(model.ProcessorID(i))
		if err != nil {
			return nil, fmt.Errorf("netsim: store for %d: %w", i, err)
		}
		rt.stores = append(rt.stores, st)
	}
	return rt, nil
}

// Start creates every processor's handler.
func (rt *Runtime) Start(handler func(id model.ProcessorID, st storage.Store) Handler) {
	for i, st := range rt.stores {
		id := model.ProcessorID(i)
		rt.handlers = append(rt.handlers, handler(id, st))
		rt.mailbox = append(rt.mailbox, rt.net.endpoints[id])
	}
}

// Do runs fn — a step of processor p's protocol — in the caller's
// goroutine. The messages it sends wait in their destinations' mailboxes for
// the next Quiesce. A crashed processor is not refused here: the
// retransmission discipline polls every processor's outbox, down or not.
func (rt *Runtime) Do(p model.ProcessorID, fn func()) error {
	if err := rt.admit(p); err != nil {
		return err
	}
	fn()
	return nil
}

// admit refuses a driver call on an unknown processor or a closed runtime.
func (rt *Runtime) admit(p model.ProcessorID) error {
	if int(p) < 0 || int(p) >= len(rt.handlers) {
		return fmt.Errorf("netsim: unknown processor %d", p)
	}
	if rt.closed {
		return ErrClosed
	}
	return nil
}

// NextCorr returns a fresh driver-side correlation id for an operation.
func (rt *Runtime) NextCorr() uint64 {
	rt.corr++
	return rt.corr
}

// Op is one driver-issued operation: Start begins it on processor P, whose
// protocol calls done once, with the outcome, when it has one. Retry is
// only called on a lossy network with retries enabled: Retry(attempt,
// false) makes the processor retransmit whatever the operation still waits
// for, and Retry(attempt, true), once the attempt budget is spent, must
// make it resolve the operation with an error unless a reply arrived first;
// an operation that answers from within Start is never retried.
type Op struct {
	P     model.ProcessorID
	Start func(done func(Result))
	Retry func(attempt int, giveUp bool)
}

// Perform is PerformAll for a single operation.
func (rt *Runtime) Perform(op Op) (storage.Version, error) {
	res := rt.PerformAll([]Op{op})[0]
	return res.Version, res.Err
}

// PerformAll runs a group of concurrent operations: every operation is
// started before any message is delivered — all are in flight at once, the
// concurrency of the paper's §3.1 — and the cluster then runs to
// quiescence. An operation at a crashed processor is refused with
// Unreachable{Peer: P} before it starts: the processor issues nothing, so
// nothing may be billed or numbered on its behalf. With retries engaged,
// each quiescence round whose capped exponential backoff has elapsed kicks
// the unanswered operations into retransmitting, and the one after the
// attempt budget makes them give up. Results come in the order of ops,
// ErrStalled for an operation still unanswered; the cluster is quiescent on
// return.
func (rt *Runtime) PerformAll(ops []Op) []Result {
	out := make([]Result, len(ops))
	answered := make([]bool, len(ops))
	pending := make([]int, 0, len(ops)) // operations started and not yet answered
	for i, op := range ops {
		if out[i].Err = rt.admit(op.P); out[i].Err == nil && rt.net.Crashed(op.P) {
			out[i].Err = Unreachable{Peer: op.P}
		}
		if out[i].Err == nil {
			pending = append(pending, i)
			op.Start(func(res Result) { out[i], answered[i] = res, true })
		}
	}
	// settled quiesces and reports whether every operation is answered.
	settled := func() bool {
		rt.Quiesce()
		rest := pending[:0]
		for _, i := range pending {
			if !answered[i] {
				rest = append(rest, i)
			}
		}
		pending = rest
		return len(pending) == 0
	}
	if rt.retries {
		maxAttempts := rt.retry.Attempts()
		for attempt, nextKick, round := 0, 1, 1; attempt <= maxAttempts; round++ {
			if settled() {
				return out
			}
			if round < nextKick {
				continue
			}
			attempt++
			for _, i := range pending {
				ops[i].Retry(attempt, attempt > maxAttempts)
			}
			nextKick = round + rt.retry.Backoff(attempt)
		}
	}
	settled()
	for _, i := range pending {
		out[i].Err = ErrStalled
	}
	return out
}

// Quiesce runs the cluster until it is fully settled: no mailbox holds a
// message and the network holds no delayed one. Deliverable messages are
// handled in sweeps over the processors, lowest id first, one message per
// processor per sweep; when a sweep finds nothing the held messages are
// released, which can make more deliverable, so the two alternate to a
// fixpoint. It is the one place the next message to handle is chosen.
func (rt *Runtime) Quiesce() {
	for {
		for handled := true; handled; {
			handled = false
			for p, ep := range rt.mailbox {
				if m, ok := ep.TryRecv(); ok {
					rt.handlers[p].HandleMessage(m)
					handled = true
				}
			}
		}
		if rt.net.ReleaseAll() == 0 {
			return
		}
	}
}

// Lossy reports whether a fault plan is active on the network.
func (rt *Runtime) Lossy() bool { return rt.lossy }

// Retries reports whether the retransmission discipline is engaged.
func (rt *Runtime) Retries() bool { return rt.retries }

// Network exposes the underlying network for accounting and fault
// injection by the failover layer, tests and experiments.
func (rt *Runtime) Network() *Network { return rt.net }

// Stores returns the local databases, indexed by processor id.
func (rt *Runtime) Stores() []storage.Store { return rt.stores }

// StoreOf exposes one processor's local database, for failover handover
// and test assertions; an unknown processor is an error.
func (rt *Runtime) StoreOf(id model.ProcessorID) (storage.Store, error) {
	if int(id) < 0 || int(id) >= len(rt.stores) {
		return nil, fmt.Errorf("netsim: unknown processor %d", id)
	}
	return rt.stores[id], nil
}

// Crash makes the processor unreachable: it stops answering and its
// messages are dropped. Its local database contents survive for a later
// Restart. Crashing an unknown processor is an error.
func (rt *Runtime) Crash(id model.ProcessorID) error { return rt.net.Crash(id) }

// Restart brings a crashed processor back with whatever its local
// database last held. Restarting an unknown processor is an error.
func (rt *Runtime) Restart(id model.ProcessorID) error { return rt.net.Restart(id) }

// HolderSeqs returns, per processor, the sequence number of the locally
// held copy (0 when none), after quiescing the cluster. The chaos
// runner's invariant checker uses it for t-availability and per-processor
// version monotonicity.
func (rt *Runtime) HolderSeqs() []uint64 {
	rt.Quiesce()
	out := make([]uint64, len(rt.stores))
	for i, st := range rt.stores {
		if v, ok := st.Peek(); ok {
			out[i] = v.Seq
		}
	}
	return out
}

// Counts returns the integer cost accounting accumulated so far: control
// and data messages from the network, I/Os summed over all local
// databases.
func (rt *Runtime) Counts() cost.Counts {
	t := rt.Traffic()
	return cost.Counts{Control: t.Control, Data: t.Data, IO: t.Inputs + t.Outputs}
}

// Cost prices the accumulated accounting under the model.
func (rt *Runtime) Cost(m cost.Model) float64 { return rt.Counts().Price(m) }

// ReliabilityOverhead returns the reliability-layer traffic so far — the
// traffic billed apart from the paper's cost model.
func (rt *Runtime) ReliabilityOverhead() Overhead { return rt.net.Stats().Overhead() }

// Close shuts the network down; every later operation reports ErrClosed.
// Closing twice is harmless.
func (rt *Runtime) Close() {
	rt.closed = true
	rt.net.Close()
}

// Overhead aggregates the reliability-layer traffic that is billed apart
// from the paper's cost model: retransmissions, acknowledgements, and
// dropped messages.
type Overhead struct {
	Retrans int // retransmitted control + data messages
	Acks    int // TWriteAck/TInvalAck reliability acknowledgements
	Dropped int // messages dropped for any reason
}

// Overhead extracts the reliability-layer counters.
func (st Stats) Overhead() Overhead {
	return Overhead{
		Retrans: st.RetransControl + st.RetransData,
		Acks:    st.AckControl,
		Dropped: st.Dropped,
	}
}

// Plus adds two overheads (the failover layer sums across engines).
func (o Overhead) Plus(p Overhead) Overhead {
	return Overhead{Retrans: o.Retrans + p.Retrans, Acks: o.Acks + p.Acks, Dropped: o.Dropped + p.Dropped}
}

// Traffic is the first-transmission message and I/O accounting of a
// runtime at one instant, or — as the difference of two instants — of the
// request executed between them, by billing class and by protocol type.
type Traffic struct {
	Control, Data   int
	Inputs, Outputs int
	PerType         [NumTypes]int
}

// Traffic returns the cumulative accounting.
func (rt *Runtime) Traffic() Traffic {
	st := rt.net.Stats()
	t := Traffic{Control: st.ControlSent, Data: st.DataSent, PerType: st.PerType}
	for _, s := range rt.stores {
		io := s.Stats()
		t.Inputs += io.Inputs
		t.Outputs += io.Outputs
	}
	return t
}

// Since returns the traffic between the earlier instant and t.
func (t Traffic) Since(before Traffic) Traffic {
	t.Control -= before.Control
	t.Data -= before.Data
	t.Inputs -= before.Inputs
	t.Outputs -= before.Outputs
	for i := range t.PerType {
		t.PerType[i] -= before.PerType[i]
	}
	return t
}

// Attrs renders the traffic as event attributes — ctl, data, io, then one
// m.<type> per message type sent — and adds it to the registry's
// <prefix>.msg.control, <prefix>.msg.data and <prefix>.msg.<type>
// counters.
func (t Traffic) Attrs(o *obs.Obs, prefix string) []obs.Attr {
	attrs := []obs.Attr{
		obs.Int("ctl", t.Control),
		obs.Int("data", t.Data),
		obs.Int("io", t.Inputs+t.Outputs),
	}
	for typ, d := range t.PerType {
		if d > 0 {
			attrs = append(attrs, obs.Int("m."+Type(typ).String(), d))
			o.Counter(prefix + ".msg." + Type(typ).String()).Add(int64(d))
		}
	}
	o.Counter(prefix + ".msg.control").Add(int64(t.Control))
	o.Counter(prefix + ".msg.data").Add(int64(t.Data))
	return attrs
}
