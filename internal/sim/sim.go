// Package sim executes the SA and DA algorithms as real message-passing
// protocols over the simulated network (package netsim) and per-processor
// local databases (package storage), rather than as the abstract
// execution-set bookkeeping of package dom.
//
// Each processor owns a local database and a mailbox and reacts to
// protocol messages: read requests, object transfers, write propagations,
// and invalidations. There are no threads in it, as there are none in the
// paper's model: netsim.Runtime delivers the messages one at a time in a
// fixed order, so an execution is a function of its inputs. DA's
// join-lists (§2, §4.2.2) are real per-processor state on the members of
// F; invalidation control messages really flow. Every message is billed by
// the network and every local database input/output is counted by the
// store, so an executed schedule yields an integer cost accounting
// (cost.Counts) that integration tests compare — exactly, not
// approximately — against the analytic cost model applied to the
// corresponding dom allocation schedule. That equality is experiment E15
// and is what justifies trusting the analytic experiments.
//
// The driver issues writes in a total order (the paper assumes a
// concurrency-control mechanism, §3.1); reads between consecutive writes
// may execute concurrently (RunConcurrent: every read of the burst is in
// flight before any reply is handled), and every read observes the version
// written by the most recent write — asserted by the linearizability
// tests.
package sim

import (
	"fmt"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// Protocol selects which DOM algorithm the cluster executes.
type Protocol int

const (
	// SA is read-one-write-all static allocation (§4.2.1).
	SA Protocol = iota
	// DA is the paper's dynamic allocation algorithm (§4.2.2).
	DA
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case SA:
		return "SA"
	case DA:
		return "DA"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config describes a cluster.
type Config struct {
	// N is the number of processors (ids 0..N-1).
	N int
	// T is the availability threshold.
	T int
	// Protocol selects SA or DA.
	Protocol Protocol
	// Initial is the initial allocation scheme: SA's fixed Q, or, for DA,
	// the union F ∪ {p} with F the T-1 smallest members and p the next —
	// the same convention as dom.NewDynamic, so the executed protocol and
	// the analytic algorithm make identical choices.
	Initial model.Set
	// NewStore builds the local database of one processor; nil means
	// in-memory stores.
	NewStore func(id model.ProcessorID) (storage.Store, error)
	// AdoptStores skips preloading and counter resets: the stores handed
	// in by NewStore already hold a consistent state (the failback path
	// from quorum mode uses this — members of the initial scheme must
	// hold the latest version, everyone else must hold none).
	AdoptStores bool
	// FirstSeq is the version number the initial scheme currently holds;
	// writes are numbered from FirstSeq+1. Zero means a fresh cluster
	// (initial version 1).
	FirstSeq uint64
	// Obs attaches the instrumentation layer: Run emits one structured
	// event per request (messages by type, I/Os, allocation-scheme
	// transition) and updates the registry's counters; the Observer, if
	// set, receives each request as a task for progress reporting. Nil
	// disables instrumentation — the hot path then pays one nil-check per
	// request.
	Obs *obs.Obs
	// Faults, when non-nil and active, installs a deterministic
	// fault plan on the network (loss, duplication, delay, flaps) and —
	// unless Retry disables it — engages the retransmission discipline:
	// driver-correlated reads with bounded retries, acknowledged write
	// pushes and invalidations with per-destination outboxes and capped
	// exponential backoff, and idempotent receivers.
	Faults *netsim.FaultPlan
	// Retry tunes the retransmission discipline; the zero value enables
	// it (with default caps) exactly when Faults is active.
	Retry netsim.RetryPolicy
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("sim: N = %d", c.N)
	}
	if c.T < 1 {
		return fmt.Errorf("sim: T = %d", c.T)
	}
	if c.Initial.Size() < c.T {
		return fmt.Errorf("sim: initial scheme %v smaller than T = %d", c.Initial, c.T)
	}
	if c.Protocol == DA && c.T < 2 {
		// DA's distributed protocol needs a non-empty core F = t-1
		// processors to serve remote reads; the paper assumes t >= 2.
		return fmt.Errorf("sim: DA requires T >= 2, got %d", c.T)
	}
	if !c.Initial.SubsetOf(model.FullSet(c.N)) {
		return fmt.Errorf("sim: initial scheme %v outside processors 0..%d", c.Initial, c.N-1)
	}
	return nil
}

// runtime is the processor runtime the protocol executes on; embedding it
// gives the cluster its network, delivery loop, quiescence and accounting
// (Counts, Cost, HolderSeqs, Network, Crash, Restart, Quiesce, Close, ...).
type runtime = netsim.Runtime

// Cluster is a running distributed system executing one protocol for one
// replicated object. It is not safe for concurrent use; one owner at a
// time. Concurrent reads are a RunConcurrent burst, not concurrent callers.
type Cluster struct {
	*runtime
	cfg     Config
	nodes   []*node           // protocol state, indexed by processor id
	core    model.Set         // DA's F (empty for SA)
	anchor  model.ProcessorID // DA's designated p (unused for SA)
	nextSeq uint64            // write sequencer (the concurrency-control total order)
}

// New builds and starts the cluster: stores are created, the initial
// allocation scheme is preloaded with version 1 of the object, counters are
// zeroed, and every processor has its protocol handler.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	firstSeq := cfg.FirstSeq
	if firstSeq == 0 {
		firstSeq = 1
	}
	rt, err := netsim.NewRuntime(cfg.N, cfg.NewStore, cfg.Obs, cfg.Faults, cfg.Retry)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c := &Cluster{runtime: rt, cfg: cfg, nextSeq: firstSeq}
	if cfg.Protocol == DA {
		for k := 0; k < cfg.T-1; k++ {
			c.core = c.core.Add(cfg.Initial.Member(k))
		}
		c.anchor = cfg.Initial.Member(cfg.T - 1)
	}
	if !cfg.AdoptStores {
		initialVersion := storage.Version{Seq: 1, Writer: -1, Data: []byte("initial")}
		for i, st := range rt.Stores() {
			if cfg.Initial.Contains(model.ProcessorID(i)) {
				if err := st.Put(initialVersion); err != nil {
					return nil, fmt.Errorf("sim: preload %d: %w", i, err)
				}
			}
			st.ResetStats()
		}
	}
	rt.Start(func(id model.ProcessorID, st storage.Store) netsim.Handler {
		n := newNode(c, id, st)
		c.nodes = append(c.nodes, n)
		return n
	})
	return c, nil
}

// Read executes a read request issued by processor p and returns the
// version it observed. On a lossy network with retries enabled the driver
// retransmits the read request under capped exponential backoff and gives
// up with netsim.Unreachable once the retry budget is exhausted; a crashed
// server fails the read immediately via the failure detector's bounce; and
// a read whose request or reply was lost with retries disabled reports
// netsim.ErrStalled. A read issued at a crashed processor is refused with
// netsim.Unreachable{Peer: p}.
func (c *Cluster) Read(p model.ProcessorID) (storage.Version, error) {
	return c.Perform(c.readOp(p))
}

// readOp is the runtime operation of one read issued by processor p. The
// runtime calls Start and Retry only once it has admitted p.
func (c *Cluster) readOp(p model.ProcessorID) netsim.Op {
	corr := c.NextCorr()
	return netsim.Op{
		P:     p,
		Start: func(done func(netsim.Result)) { c.nodes[p].startRead(corr, done) },
		Retry: func(attempt int, giveUp bool) {
			if giveUp {
				// Have the node resolve the pending read with an Unreachable
				// error (unless a reply or nack got there first, which wins).
				c.nodes[p].failRead(corr)
			} else {
				c.nodes[p].retryRead(corr, attempt)
			}
		},
	}
}

// Write executes a write request issued by processor p, assigning it the
// next position in the write total order. It returns the version written.
// Write returns only when the whole propagation-and-invalidation cascade
// has quiesced, so a subsequent request observes the new allocation scheme
// — the sequential semantics of the paper's schedules. A write issued at a
// crashed processor is refused with netsim.Unreachable{Peer: p}.
func (c *Cluster) Write(p model.ProcessorID, data []byte) (storage.Version, error) {
	v, err := c.Perform(netsim.Op{P: p, Start: func(done func(netsim.Result)) {
		// The place in the write order is taken here, once the runtime has
		// admitted p: an unknown or crashed processor must not take one —
		// a write it "issued" would reach nobody and be acknowledged.
		c.nextSeq++
		v := storage.Version{Seq: c.nextSeq, Writer: int(p), Data: data}
		done(netsim.Result{Version: v, Err: c.nodes[p].doWrite(v)})
	}})
	if err == nil && c.Retries() {
		err = c.flushOutboxes()
	}
	if err != nil {
		return storage.Version{}, err
	}
	return v, nil
}

// flushOutboxes drives the retransmission discipline of a write cascade:
// after each quiescence round it polls every node's outbox, retransmitting
// entries whose backoff has elapsed, until all pushes and invalidations
// are acknowledged. An entry that exhausts its retry budget surfaces as a
// netsim.Unreachable error.
func (c *Cluster) flushOutboxes() error {
	for round := 1; ; round++ {
		c.Quiesce()
		outstanding := 0
		var gaveUp []model.ProcessorID
		for p, n := range c.nodes {
			var st outboxStatus
			if err := c.Do(model.ProcessorID(p), func() { st = n.pollOutbox(round) }); err != nil {
				return err
			}
			outstanding += st.outstanding
			gaveUp = append(gaveUp, st.gaveUp...)
		}
		if len(gaveUp) > 0 {
			c.cfg.Obs.Counter("sim.outbox.giveup").Add(int64(len(gaveUp)))
			return fmt.Errorf("sim: write propagation gave up: %w", netsim.Unreachable{Peer: gaveUp[0]})
		}
		if outstanding == 0 {
			return nil
		}
	}
}

// Run executes a schedule sequentially and returns the per-request observed
// versions for reads (writes contribute their created version). On an
// observed cluster (Config.Obs) every request emits one "request" event
// with its message/I/O deltas and scheme transition, and the Observer sees
// each request as one task.
func (c *Cluster) Run(sched model.Schedule) ([]storage.Version, error) {
	return c.run(sched, false)
}

// RunConcurrent executes the schedule with the paper's §3.1 concurrency:
// writes are totally ordered, but each maximal run of consecutive reads is
// one burst — every read of it is in flight before any reply is handled —
// that settles before the next write. Returned versions appear in schedule
// order; an observed cluster emits one "readburst" event per burst.
func (c *Cluster) RunConcurrent(sched model.Schedule) ([]storage.Version, error) {
	return c.run(sched, true)
}

func (c *Cluster) run(sched model.Schedule, bursts bool) ([]storage.Version, error) {
	out := make([]storage.Version, len(sched))
	o := c.cfg.Obs
	var prevScheme model.Set
	var hook obs.Observer
	if o.Enabled() {
		prevScheme = c.Scheme()
		if hook = o.Hook(); hook != nil {
			hook.RunStart(len(sched))
			defer hook.RunDone()
		}
	}
	// done reports request k's outcome to the observer and wraps its error.
	done := func(k int, err error) error {
		if hook != nil {
			hook.TaskDone(k, err)
		}
		if err != nil {
			err = fmt.Errorf("sim: request %d (%v): %w", k, sched[k], err)
		}
		return err
	}
	for i := 0; i < len(sched); {
		var before netsim.Traffic
		if o.Enabled() {
			before = c.Traffic()
		}
		if hook != nil {
			hook.TaskStart(i)
		}
		q := sched[i]
		if q.IsWrite() || !bursts {
			var err error
			if q.IsRead() {
				out[i], err = c.Read(q.Processor)
			} else {
				out[i], err = c.Write(q.Processor, []byte(fmt.Sprintf("w%d@%d", q.Processor, i)))
			}
			if err = done(i, err); err != nil {
				return nil, err
			}
			if o.Enabled() {
				prevScheme = c.emitRequest(o, i, q, c.Traffic().Since(before), prevScheme)
			}
			i++
			continue
		}
		burst := []netsim.Op{c.readOp(q.Processor)}
		for j := i + 1; j < len(sched) && sched[j].IsRead(); j++ {
			if hook != nil {
				hook.TaskStart(j)
			}
			burst = append(burst, c.readOp(sched[j].Processor))
		}
		// The saving-read joins have settled when the burst returns.
		var firstErr error
		for k, res := range c.PerformAll(burst) {
			out[i+k] = res.Version
			if err := done(i+k, res.Err); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		if o.Enabled() {
			// One event per burst: its reads share their messages' fate (who
			// is served before whose copy is saved), so the burst, not the
			// read, is the unit the traffic belongs to.
			prevScheme = c.emitReadBurst(o, i, len(burst), c.Traffic().Since(before), prevScheme)
		}
		i += len(burst)
	}
	return out, nil
}

// ResetCounts zeroes the message and I/O counters (e.g. between phases).
func (c *Cluster) ResetCounts() {
	c.Network().ResetStats()
	for _, st := range c.Stores() {
		st.ResetStats()
	}
}

// Scheme returns the current allocation scheme: the processors whose local
// database holds the latest version. It quiesces first so in-flight
// invalidations settle.
func (c *Cluster) Scheme() model.Set {
	var s model.Set
	for i, seq := range c.HolderSeqs() {
		if seq == c.nextSeq {
			s = s.Add(model.ProcessorID(i))
		}
	}
	return s
}

// NodeLoad is one processor's share of the work.
type NodeLoad struct {
	ID model.ProcessorID
	// IO counts the processor's local-database inputs and outputs.
	IO storage.IOStats
	// Net counts the processor's sent/received messages.
	Net netsim.NodeStats
}

// Loads returns per-processor accounting — who actually carried the
// traffic and the I/O. Useful for load-balance analysis of the "arbitrary
// processor of Q" policy.
func (c *Cluster) Loads() []NodeLoad {
	out := make([]NodeLoad, c.cfg.N)
	for i, st := range c.Stores() {
		id := model.ProcessorID(i)
		out[i] = NodeLoad{ID: id, IO: st.Stats(), Net: c.Network().NodeStatsOf(id)}
	}
	return out
}
