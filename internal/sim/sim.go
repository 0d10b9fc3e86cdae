// Package sim executes the SA and DA algorithms as real message-passing
// protocols over the simulated network (package netsim) and per-processor
// local databases (package storage), rather than as the abstract
// execution-set bookkeeping of package dom.
//
// Each processor is a goroutine that owns a local database and a mailbox
// and reacts to protocol messages: read requests, object transfers, write
// propagations, and invalidations. DA's join-lists (§2, §4.2.2) are real
// per-processor state on the members of F; invalidation control messages
// really flow. Every message is billed by the network and every local
// database input/output is counted by the store, so an executed schedule
// yields an integer cost accounting (cost.Counts) that integration tests
// compare — exactly, not approximately — against the analytic cost model
// applied to the corresponding dom allocation schedule. That equality is
// experiment E15 and is what justifies trusting the analytic experiments.
//
// The driver issues writes in a total order (the paper assumes a
// concurrency-control mechanism, §3.1); reads between consecutive writes
// may execute concurrently (RunConcurrent), and every read observes the
// version written by the most recent write — asserted by the
// linearizability tests.
package sim

import (
	"fmt"
	"sync"

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
// gives the cluster its network, actors, quiescence and accounting
// (Counts, Cost, HolderSeqs, Network, Crash, Restart, Quiesce, Close, ...).
type runtime = netsim.Runtime[command]

// Cluster is a running distributed system executing one protocol for one
// replicated object.
type Cluster struct {
	*runtime
	cfg    Config
	core   model.Set         // DA's F (empty for SA)
	anchor model.ProcessorID // DA's designated p (unused for SA)

	mu      sync.Mutex
	nextSeq uint64 // write sequencer (the concurrency-control total order)
}

// New builds and starts the cluster: stores are created, the initial
// allocation scheme is preloaded with version 1 of the object, counters are
// zeroed, and every processor's event loop is running.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	firstSeq := cfg.FirstSeq
	if firstSeq == 0 {
		firstSeq = 1
	}
	rt, err := netsim.NewRuntime[command](cfg.N, cfg.NewStore, cfg.Obs, cfg.Faults, cfg.Retry)
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
	rt.Start(func(id model.ProcessorID, st storage.Store) netsim.Handler[command] {
		return newNode(c, id, st)
	})
	return c, nil
}

// Read executes a read request issued by processor p and returns the
// version it observed. Reads may be issued concurrently. On a lossy
// network with retries enabled the driver retransmits the read request
// under capped exponential backoff and gives up with netsim.Unreachable
// once the retry budget is exhausted; a crashed server fails the read
// immediately via the failure detector's bounce.
func (c *Cluster) Read(p model.ProcessorID) (storage.Version, error) {
	corr := c.NextCorr()
	reply := make(chan netsim.Result, 1)
	return c.Perform(p, command{kind: cmdRead, corr: corr, reply: reply}, reply, func(attempt int, giveUp bool) command {
		kind := cmdRetryRead
		if giveUp {
			// Have the node resolve the pending read with an Unreachable
			// error (unless a reply or nack races in first, which wins).
			kind = cmdFailRead
		}
		return command{kind: kind, corr: corr, attempt: attempt}
	})
}

// Write executes a write request issued by processor p, assigning it the
// next position in the write total order. It returns the version written.
// Write blocks until the whole propagation-and-invalidation cascade has
// quiesced, so a subsequent request observes the new allocation scheme —
// the sequential semantics of the paper's schedules.
func (c *Cluster) Write(p model.ProcessorID, data []byte) (storage.Version, error) {
	// An unknown processor must not take a place in the write order.
	if _, err := c.StoreOf(p); err != nil {
		return storage.Version{}, err
	}
	c.mu.Lock()
	c.nextSeq++
	v := storage.Version{Seq: c.nextSeq, Writer: int(p), Data: data}
	c.mu.Unlock()
	done := make(chan error, 1)
	if err := c.Submit(p, command{kind: cmdWrite, version: v, writeDone: done}); err != nil {
		return storage.Version{}, err
	}
	if err := <-done; err != nil {
		return storage.Version{}, err
	}
	if c.Retries() {
		if err := c.flushOutboxes(); err != nil {
			return storage.Version{}, err
		}
	}
	c.Quiesce()
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
		for p := model.ProcessorID(0); int(p) < c.cfg.N; p++ {
			reply := make(chan outboxStatus, 1)
			if err := c.Submit(p, command{kind: cmdOutbox, round: round, outboxReply: reply}); err != nil {
				return err
			}
			st := <-reply
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
	for i, q := range sched {
		var before netsim.Traffic
		if o.Enabled() {
			before = c.Traffic()
		}
		if hook != nil {
			hook.TaskStart(i)
		}
		var err error
		if q.IsRead() {
			out[i], err = c.Read(q.Processor)
		} else {
			out[i], err = c.Write(q.Processor, []byte(fmt.Sprintf("w%d@%d", q.Processor, i)))
		}
		if hook != nil {
			hook.TaskDone(i, err)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: request %d (%v): %w", i, q, err)
		}
		if o.Enabled() {
			prevScheme = c.emitRequest(o, i, q, c.Traffic().Since(before), prevScheme)
		}
	}
	return out, nil
}

// RunConcurrent executes the schedule with the paper's §3.1 concurrency:
// writes are totally ordered, but each maximal run of consecutive reads is
// issued concurrently (one goroutine per read) and joined before the next
// write. Returned versions appear in schedule order.
func (c *Cluster) RunConcurrent(sched model.Schedule) ([]storage.Version, error) {
	out := make([]storage.Version, len(sched))
	errs := make([]error, len(sched))
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
	i := 0
	for i < len(sched) {
		var before netsim.Traffic
		if o.Enabled() {
			before = c.Traffic()
		}
		if sched[i].IsWrite() {
			if hook != nil {
				hook.TaskStart(i)
			}
			v, err := c.Write(sched[i].Processor, []byte(fmt.Sprintf("w%d@%d", sched[i].Processor, i)))
			if hook != nil {
				hook.TaskDone(i, err)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: request %d (%v): %w", i, sched[i], err)
			}
			out[i] = v
			if o.Enabled() {
				prevScheme = c.emitRequest(o, i, sched[i], c.Traffic().Since(before), prevScheme)
			}
			i++
			continue
		}
		j := i
		for j < len(sched) && sched[j].IsRead() {
			j++
		}
		var wg sync.WaitGroup
		for k := i; k < j; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if hook != nil {
					hook.TaskStart(k)
				}
				out[k], errs[k] = c.Read(sched[k].Processor)
				if hook != nil {
					hook.TaskDone(k, errs[k])
				}
			}(k)
		}
		wg.Wait()
		for k := i; k < j; k++ {
			if errs[k] != nil {
				return nil, fmt.Errorf("sim: request %d (%v): %w", k, sched[k], errs[k])
			}
		}
		// Quiesce so saving-read joins settle before the next write.
		c.Quiesce()
		if o.Enabled() {
			// Reads of one burst interleave freely; the aggregate deltas
			// after quiescence are deterministic even though per-read
			// attribution is not.
			prevScheme = c.emitReadBurst(o, i, j-i, c.Traffic().Since(before), prevScheme)
		}
		i = j
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
	seqs := c.HolderSeqs()
	c.mu.Lock()
	latest := c.nextSeq
	c.mu.Unlock()
	var s model.Set
	for i, seq := range seqs {
		if seq == latest {
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
