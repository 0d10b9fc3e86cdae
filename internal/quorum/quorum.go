// Package quorum implements quorum consensus for replicated data in the
// style of Thomas's majority voting and Gifford's weighted voting — the
// mechanism the paper designates as DA's failure fallback (§2: "the DA
// algorithm handles failures by resorting to quorum consensus with static
// allocation when a processor of the set F fails").
//
// Every processor holds a (possibly stale) copy tagged with a version
// number. A write first collects version numbers from a write quorum,
// assigns the successor of the maximum, and installs the new version on the
// write quorum. A read collects version numbers from a read quorum and
// fetches the object from a holder of the maximum. With
// ReadQuorum + WriteQuorum > N and 2·WriteQuorum > N, any read quorum
// intersects any write quorum and any two write quorums intersect, so reads
// always observe the latest committed version and version numbers never
// collide — despite any minority of crashed processors.
//
// The implementation reuses the billing network (package netsim) and local
// databases (package storage): vote requests/replies and acknowledgements
// are control messages, object transfers are data messages, and every
// database input/output is counted, so the failure-mode experiments can
// price quorum operation in the paper's cost model.
//
// Failure detection is fail-stop with a perfect detector: the driver marks
// processors crashed/restarted (Crash, Restart), and clients select quorums
// from live processors only. This matches the paper's normal-mode/failure-
// mode dichotomy; partial synchrony is out of scope.
package quorum

import (
	"errors"
	"fmt"

	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/storage"
)

// ErrUnavailable is returned when fewer live processors remain than the
// operation's quorum requires.
var ErrUnavailable = errors.New("quorum: not enough live processors for a quorum")

// Config describes a quorum cluster.
type Config struct {
	// N is the number of processors.
	N int
	// ReadQuorum and WriteQuorum are the quorum sizes; zero means
	// majority (⌊N/2⌋ + 1). They must satisfy ReadQuorum+WriteQuorum > N
	// and 2·WriteQuorum > N.
	ReadQuorum, WriteQuorum int
	// Weights optionally assigns voting weights per processor (Gifford's
	// weighted voting); nil means one vote each. With weights, quorum
	// sizes are vote totals rather than processor counts.
	Weights []int
	// NewStore builds the local database of one processor; nil means
	// in-memory stores. Stores may come preloaded (the failover path
	// hands over the surviving DA replicas).
	NewStore func(id model.ProcessorID) (storage.Store, error)
	// Preload, when true, installs version 1 of the object on every
	// processor whose store is empty, modeling a fresh statically
	// replicated system.
	Preload bool
	// ReadRepair, when true, makes reads push the latest version to any
	// stale voter discovered in the read quorum — the classic anti-
	// entropy refinement. Repairs are billed (one data message and one
	// output per stale voter) but do not delay the read's reply.
	ReadRepair bool
	// Obs attaches the instrumentation layer: each Read/Write/Recover
	// emits one structured event with its message/I/O deltas and bumps the
	// registry. The deltas are obtained by quiescing around the operation,
	// so they are meaningful under a sequential driver (which is how the
	// failover layer and the experiments drive quorum mode). Nil disables
	// instrumentation.
	Obs *obs.Obs
	// Faults, when non-nil and active, installs a deterministic fault
	// plan on the network and — unless Retry disables it — engages the
	// retransmission discipline: vote/fetch/install rounds are
	// retransmitted under capped exponential backoff with duplicate
	// replies deduplicated, and an operation whose budget is exhausted
	// aborts with an ErrUnavailable-wrapped netsim.Unreachable.
	Faults *netsim.FaultPlan
	// Retry tunes the retransmission discipline; the zero value enables
	// it (with default caps) exactly when Faults is active.
	Retry netsim.RetryPolicy
}

func (c *Config) normalize() error {
	if c.N < 1 {
		return fmt.Errorf("quorum: N = %d", c.N)
	}
	totalVotes := c.N
	if c.Weights != nil {
		if len(c.Weights) != c.N {
			return fmt.Errorf("quorum: %d weights for %d processors", len(c.Weights), c.N)
		}
		totalVotes = 0
		for i, w := range c.Weights {
			if w < 0 {
				return fmt.Errorf("quorum: negative weight for processor %d", i)
			}
			totalVotes += w
		}
		if totalVotes == 0 {
			return fmt.Errorf("quorum: all weights zero")
		}
	}
	if c.ReadQuorum < 0 || c.WriteQuorum < 0 {
		return fmt.Errorf("quorum: negative quorum R=%d W=%d", c.ReadQuorum, c.WriteQuorum)
	}
	if c.ReadQuorum == 0 {
		c.ReadQuorum = totalVotes/2 + 1
	}
	if c.WriteQuorum == 0 {
		c.WriteQuorum = totalVotes/2 + 1
	}
	if c.ReadQuorum+c.WriteQuorum <= totalVotes {
		return fmt.Errorf("quorum: R (%d) + W (%d) must exceed total votes (%d)", c.ReadQuorum, c.WriteQuorum, totalVotes)
	}
	if 2*c.WriteQuorum <= totalVotes {
		return fmt.Errorf("quorum: 2W (%d) must exceed total votes (%d)", 2*c.WriteQuorum, totalVotes)
	}
	return nil
}

func (c Config) weight(id model.ProcessorID) int {
	if c.Weights == nil {
		return 1
	}
	return c.Weights[id]
}

type runtime = netsim.Runtime

// Cluster is a running quorum-replicated system. The embedded processor
// runtime supplies the network, message delivery, quiescence and the
// accounting reads (Counts, Cost, HolderSeqs, StoreOf, Network, Quiesce,
// Close, ...). It is not safe for concurrent use; one owner at a time.
type Cluster struct {
	*runtime
	cfg     Config
	nodes   []*node // protocol state, indexed by processor id
	alive   model.Set
	seqHint uint64 // highest version number the driver has observed
}

// New builds and starts the cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rt, err := netsim.NewRuntime(cfg.N, cfg.NewStore, cfg.Obs, cfg.Faults, cfg.Retry)
	if err != nil {
		return nil, fmt.Errorf("quorum: %w", err)
	}
	c := &Cluster{runtime: rt, cfg: cfg, alive: model.FullSet(cfg.N)}
	for _, st := range rt.Stores() {
		if cfg.Preload && !st.HasCopy() {
			if err := st.Put(storage.Version{Seq: 1, Writer: -1, Data: []byte("initial")}); err != nil {
				return nil, err
			}
			st.ResetStats()
		}
		if v, ok := st.Peek(); ok && v.Seq > c.seqHint {
			c.seqHint = v.Seq
		}
	}
	rt.Start(func(id model.ProcessorID, st storage.Store) netsim.Handler {
		n := &node{c: c, id: id, store: st, net: rt.Network(), ops: make(map[uint64]*op)}
		c.nodes = append(c.nodes, n)
		return n
	})
	return c, nil
}

// Crash marks a processor failed: it stops answering and its messages are
// dropped. Its local database contents survive for a later Restart.
// Crashing an unknown processor is an error.
func (c *Cluster) Crash(id model.ProcessorID) error {
	if err := c.runtime.Crash(id); err != nil {
		return err
	}
	c.alive = c.alive.Remove(id)
	return nil
}

// Restart brings a crashed processor back with whatever its local database
// last held. Use Recover to bring its copy up to date. Restarting an
// unknown processor is an error.
func (c *Cluster) Restart(id model.ProcessorID) error {
	if err := c.runtime.Restart(id); err != nil {
		return err
	}
	c.alive = c.alive.Add(id)
	return nil
}

// Alive returns the set of live processors.
func (c *Cluster) Alive() model.Set { return c.alive }

// quorumOf selects live processors, preferring self, until the required
// votes are gathered. It returns an error if the live votes cannot reach
// the threshold.
func (c *Cluster) quorumOf(self model.ProcessorID, votes int) (model.Set, error) {
	var q model.Set
	got := 0
	take := func(id model.ProcessorID) {
		if got < votes && c.alive.Contains(id) && !q.Contains(id) && c.cfg.weight(id) > 0 {
			q = q.Add(id)
			got += c.cfg.weight(id)
		}
	}
	take(self)
	c.alive.ForEach(take)
	if got < votes {
		return model.EmptySet, ErrUnavailable
	}
	return q, nil
}

// Read executes a quorum read issued by processor p: version numbers are
// collected from a read quorum and the object is fetched from a holder of
// the maximum.
func (c *Cluster) Read(p model.ProcessorID) (storage.Version, error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.read(p)
	}
	var v storage.Version
	err := c.observed(o, "read", p, func() (obs.Attr, error) {
		var err error
		v, err = c.read(p)
		return obs.Uint64("seq", v.Seq), err
	})
	return v, err
}

func (c *Cluster) read(p model.ProcessorID) (storage.Version, error) {
	op, err := c.voteOp(p, opRead, nil)
	if err != nil {
		return storage.Version{}, err
	}
	return c.Perform(op)
}

// voteOp is the runtime operation of one read or write issued by processor
// p, over a quorum chosen now among the processors alive now. Under the
// retransmission discipline the driver kicks the node into retransmitting
// the current phase's outstanding requests, and when the attempt budget is
// exhausted aborts the operation with an ErrUnavailable-wrapped
// Unreachable. An operation whose issuing processor is crashed never
// starts: the runtime refuses it with Unreachable{Peer: p} before a vote
// request is billed.
func (c *Cluster) voteOp(p model.ProcessorID, kind opKind, data []byte) (netsim.Op, error) {
	if _, err := c.StoreOf(p); err != nil {
		return netsim.Op{}, err
	}
	votes := c.cfg.ReadQuorum
	if kind == opWrite {
		votes = c.cfg.WriteQuorum
	}
	targets, err := c.quorumOf(p, votes)
	if err != nil {
		return netsim.Op{}, err
	}
	corr := c.NextCorr()
	return netsim.Op{
		P:     p,
		Start: func(done func(netsim.Result)) { c.nodes[p].beginVoting(kind, corr, targets, data, done) },
		Retry: func(attempt int, giveUp bool) {
			if giveUp {
				c.nodes[p].abort(corr)
			} else {
				c.nodes[p].kick(corr, attempt)
			}
		},
	}, nil
}

// Write executes a quorum write issued by processor p: version numbers are
// collected from a write quorum, the new version gets the successor of the
// maximum, and it is installed on the quorum. It blocks until the quorum
// has acknowledged.
func (c *Cluster) Write(p model.ProcessorID, data []byte) (storage.Version, error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.write(p, data)
	}
	var v storage.Version
	err := c.observed(o, "write", p, func() (obs.Attr, error) {
		var err error
		v, err = c.write(p, data)
		return obs.Uint64("seq", v.Seq), err
	})
	return v, err
}

func (c *Cluster) write(p model.ProcessorID, data []byte) (storage.Version, error) {
	op, err := c.voteOp(p, opWrite, data)
	if err != nil {
		return storage.Version{}, err
	}
	v, err := c.Perform(op)
	if err == nil && v.Seq > c.seqHint {
		c.seqHint = v.Seq
	}
	return v, err
}

// Recover brings a restarted processor's copy up to date by reading from a
// quorum and installing the latest version locally — the effect of the
// missing-writes algorithm's catch-up. It returns the number of writes the
// processor had missed.
func (c *Cluster) Recover(id model.ProcessorID) (missed uint64, err error) {
	o := c.cfg.Obs
	if !o.Enabled() {
		return c.recover(id)
	}
	err = c.observed(o, "recover", id, func() (obs.Attr, error) {
		var err error
		missed, err = c.recover(id)
		return obs.Uint64("missed", missed), err
	})
	return missed, err
}

func (c *Cluster) recover(id model.ProcessorID) (missed uint64, err error) {
	st, err := c.StoreOf(id)
	if err != nil {
		return 0, err
	}
	before := uint64(0)
	if v, ok := st.Peek(); ok {
		before = v.Seq
	}
	latest, err := c.read(id)
	if err != nil {
		return 0, fmt.Errorf("quorum: recover %d: %w", id, err)
	}
	if latest.Seq > before {
		var ierr error
		if err := c.Do(id, func() { ierr = c.nodes[id].install(latest) }); err != nil {
			return 0, err
		}
		if ierr != nil {
			return 0, ierr
		}
		return latest.Seq - before, nil
	}
	return 0, nil
}

// LatestSeq returns the highest committed version number the driver has
// observed (for test assertions).
func (c *Cluster) LatestSeq() uint64 { return c.seqHint }
