package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// Handler is the protocol half of one processor. The runtime's event loop
// calls it for every driver command and every delivered message, one call
// at a time, so a handler's state needs no locking.
type Handler[C any] interface {
	HandleCommand(cmd C)
	HandleMessage(m Message)
}

// Result is the outcome of one driver-issued operation, as the issuing
// processor's handler reports it on the operation's reply channel.
type Result struct {
	Version storage.Version
	Err     error
}

// ErrClosed is returned by operations on a closed runtime.
var ErrClosed = errors.New("netsim: cluster closed")

// Runtime is what the executed protocols (packages sim and quorum) run
// on: the billing network, one local database and one actor per
// processor, the quiescence tracker that lets a sequential driver wait
// for a message cascade to finish, the driver side of the retransmission
// discipline, and the accounting reads every caller of a cluster makes.
// A protocol supplies its command type C, one Handler per processor, and
// nothing else; it embeds the runtime to export the reads.
type Runtime[C any] struct {
	net    *Network
	stores []storage.Store
	procs  []*proc[C]
	track  tracker

	// lossy is set when a fault plan is active; retries additionally
	// requires the retransmission discipline not to be disabled.
	lossy   bool
	retries bool
	retry   RetryPolicy
	corr    atomic.Uint64

	closeOnce sync.Once
}

// NewRuntime builds the network (with the fault plan, when one is active)
// and the n local databases; newStore nil means in-memory stores. No
// processor runs until Start.
func NewRuntime[C any](n int, newStore func(model.ProcessorID) (storage.Store, error), o *obs.Obs, faults *FaultPlan, retry RetryPolicy) (*Runtime[C], error) {
	rt := &Runtime[C]{net: New(n), retry: retry}
	rt.track.cond = sync.NewCond(&rt.track.mu)
	if faults != nil && faults.Active() {
		if err := rt.net.InstallFaults(*faults); err != nil {
			return nil, err
		}
		rt.lossy = true
		rt.retries = !retry.Disabled
	}
	rt.net.SetObs(o)
	// Every delivered message is one unit of outstanding work until its
	// handler finishes.
	rt.net.Trace(func(_ Message, delivered bool) {
		if delivered {
			rt.track.add()
		}
	})
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

// Start creates every processor's handler, then sets all their event
// loops running.
func (rt *Runtime[C]) Start(handler func(id model.ProcessorID, st storage.Store) Handler[C]) {
	for i, st := range rt.stores {
		id := model.ProcessorID(i)
		rt.procs = append(rt.procs, &proc[C]{
			rt: rt,
			h:  handler(id, st),
			ep: rt.net.endpoints[id],
			// The buffers only let the pump and the driver run ahead of
			// the loop; the endpoint's mailbox is what is unbounded.
			cmds: make(chan C, 16),
			msgs: make(chan Message, 64),
			quit: make(chan struct{}),
		})
	}
	for _, p := range rt.procs {
		p.wg.Add(2)
		go p.pump()
		go p.loop()
	}
}

// proc is one processor's actor: a pump from the endpoint's mailbox and
// one event loop over driver commands and delivered messages.
type proc[C any] struct {
	rt *Runtime[C]
	h  Handler[C]
	ep *Endpoint

	cmds chan C
	msgs chan Message
	quit chan struct{}
	wg   sync.WaitGroup
}

func (p *proc[C]) pump() {
	defer p.wg.Done()
	for {
		m, ok := p.ep.Recv()
		if !ok {
			close(p.msgs)
			return
		}
		select {
		case p.msgs <- m:
		case <-p.quit:
			return
		}
	}
}

func (p *proc[C]) loop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case cmd := <-p.cmds:
			p.h.HandleCommand(cmd)
			p.rt.track.done()
		case m, ok := <-p.msgs:
			if !ok {
				return
			}
			p.h.HandleMessage(m)
			if m.Type != TNack {
				// TNack bounces are synthetic (untraced, untracked);
				// everything else was counted at delivery.
				p.rt.track.done()
			}
		}
	}
}

// Submit hands a command to processor p's event loop, accounting it as
// outstanding work until the handler finishes.
func (rt *Runtime[C]) Submit(p model.ProcessorID, cmd C) error {
	if int(p) < 0 || int(p) >= len(rt.procs) {
		return fmt.Errorf("netsim: unknown processor %d", p)
	}
	pr := rt.procs[p]
	select {
	case <-pr.quit:
		return ErrClosed
	default:
	}
	rt.track.add()
	select {
	case pr.cmds <- cmd:
		return nil
	case <-pr.quit:
		rt.track.done()
		return ErrClosed
	}
}

// NextCorr returns a fresh driver-side correlation id for an operation.
func (rt *Runtime[C]) NextCorr() uint64 { return rt.corr.Add(1) }

// Perform submits op to processor p and waits for the result its handler
// sends on reply. On a lossy network with retries enabled it drives the
// operation's retransmission discipline: after each quiescence round
// whose capped exponential backoff has elapsed it submits
// retry(attempt, false), which makes the handler retransmit whatever the
// operation still waits for, and once the attempt budget is spent
// retry(attempt, true), which must make the handler resolve the
// operation with an error unless a reply raced in first.
func (rt *Runtime[C]) Perform(p model.ProcessorID, op C, reply <-chan Result, retry func(attempt int, giveUp bool) C) (storage.Version, error) {
	if err := rt.Submit(p, op); err != nil {
		return storage.Version{}, err
	}
	if rt.retries {
		maxAttempts := rt.retry.Attempts()
		for attempt, nextKick, round := 0, 1, 1; attempt <= maxAttempts; round++ {
			rt.Quiesce()
			select {
			case res := <-reply:
				return res.Version, res.Err
			default:
			}
			if round < nextKick {
				continue
			}
			attempt++
			if err := rt.Submit(p, retry(attempt, attempt > maxAttempts)); err != nil {
				return storage.Version{}, err
			}
			nextKick = round + rt.retry.Backoff(attempt)
		}
	}
	res := <-reply
	return res.Version, res.Err
}

// Quiesce blocks until the cluster is fully settled: no outstanding
// tracked work and no held (delayed) message anywhere in the network.
// Releasing held messages can spawn new work, so the two alternate to a
// fixpoint.
func (rt *Runtime[C]) Quiesce() {
	for {
		rt.track.wait()
		if rt.net.ReleaseAll() == 0 {
			return
		}
	}
}

// AwaitHandlers blocks until every delivered message and submitted
// command has been handled; unlike Quiesce it leaves delayed messages
// held.
func (rt *Runtime[C]) AwaitHandlers() { rt.track.wait() }

// Lossy reports whether a fault plan is active on the network.
func (rt *Runtime[C]) Lossy() bool { return rt.lossy }

// Retries reports whether the retransmission discipline is engaged.
func (rt *Runtime[C]) Retries() bool { return rt.retries }

// Network exposes the underlying network for accounting and fault
// injection by the failover layer, tests and experiments.
func (rt *Runtime[C]) Network() *Network { return rt.net }

// Stores returns the local databases, indexed by processor id.
func (rt *Runtime[C]) Stores() []storage.Store { return rt.stores }

// StoreOf exposes one processor's local database, for failover handover
// and test assertions; an unknown processor is an error.
func (rt *Runtime[C]) StoreOf(id model.ProcessorID) (storage.Store, error) {
	if int(id) < 0 || int(id) >= len(rt.stores) {
		return nil, fmt.Errorf("netsim: unknown processor %d", id)
	}
	return rt.stores[id], nil
}

// Crash makes the processor unreachable: it stops answering and its
// messages are dropped. Its local database contents survive for a later
// Restart. Crashing an unknown processor is an error.
func (rt *Runtime[C]) Crash(id model.ProcessorID) error { return rt.net.Crash(id) }

// Restart brings a crashed processor back with whatever its local
// database last held. Restarting an unknown processor is an error.
func (rt *Runtime[C]) Restart(id model.ProcessorID) error { return rt.net.Restart(id) }

// HolderSeqs returns, per processor, the sequence number of the locally
// held copy (0 when none), after quiescing the cluster. The chaos
// runner's invariant checker uses it for t-availability and per-processor
// version monotonicity.
func (rt *Runtime[C]) HolderSeqs() []uint64 {
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
func (rt *Runtime[C]) Counts() cost.Counts {
	t := rt.Traffic()
	return cost.Counts{Control: t.Control, Data: t.Data, IO: t.Inputs + t.Outputs}
}

// Cost prices the accumulated accounting under the model.
func (rt *Runtime[C]) Cost(m cost.Model) float64 { return rt.Counts().Price(m) }

// ReliabilityOverhead returns the reliability-layer traffic so far — the
// traffic billed apart from the paper's cost model.
func (rt *Runtime[C]) ReliabilityOverhead() Overhead { return rt.net.Stats().Overhead() }

// Close stops all processors and the network; it returns once every
// actor goroutine has exited. Closing twice is harmless.
func (rt *Runtime[C]) Close() {
	rt.closeOnce.Do(func() {
		rt.net.Close()
		for _, p := range rt.procs {
			close(p.quit)
			p.wg.Wait()
		}
	})
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
func (rt *Runtime[C]) Traffic() Traffic {
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

// tracker counts outstanding work items (delivered-but-unprocessed
// messages and in-flight driver commands) so the driver can wait for the
// system to quiesce.
type tracker struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (t *tracker) add() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

func (t *tracker) done() {
	t.mu.Lock()
	t.n--
	if t.n == 0 {
		t.cond.Broadcast()
	}
	if t.n < 0 {
		panic("netsim: tracker underflow")
	}
	t.mu.Unlock()
}

func (t *tracker) wait() {
	t.mu.Lock()
	for t.n != 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}
