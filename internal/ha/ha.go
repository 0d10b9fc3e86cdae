// Package ha implements the failure-handling story of §2: the system runs
// the DA algorithm in normal mode, and "handles failures by resorting to
// quorum consensus with static allocation when a processor of the set F
// fails. The transition occurs using the missing writes algorithm."
//
// Cluster owns the processors' local databases and runs one protocol
// engine at a time over them:
//
//   - normal mode: a sim.Cluster executing DA (join-lists, invalidations);
//   - degraded mode: a quorum.Cluster executing majority voting over the
//     same local databases, entered when a member of F ∪ {p} crashes.
//
// On failover the surviving replicas are handed to the quorum engine as-is;
// the quorum intersection property guarantees reads keep returning the
// latest version even though some replicas are stale or missing. On
// failback (every member of F ∪ {p} alive again) the missing-writes
// catch-up runs: each member of F ∪ {p} recovers the latest version through
// a quorum read, stragglers outside the scheme drop their stale copies, and
// the DA engine resumes with the restored allocation scheme F ∪ {p}.
//
// Message and I/O accounting is continuous across mode switches, so the
// failover experiment (E13) can price an entire crash-recover lifetime in
// the paper's cost model.
package ha

import (
	"errors"
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// Mode is the protocol currently serving requests.
type Mode int

const (
	// ModeDA is normal operation under dynamic allocation.
	ModeDA Mode = iota
	// ModeQuorum is degraded operation under majority quorum consensus.
	ModeQuorum
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDA:
		return "DA"
	case ModeQuorum:
		return "quorum"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a highly-available cluster.
type Config struct {
	// N is the number of processors, T the availability threshold.
	N, T int
	// Initial is the initial allocation scheme (F = T-1 smallest members,
	// p the next), as in sim.Config.
	Initial model.Set
	// NewStore optionally overrides the per-processor local database.
	NewStore func(id model.ProcessorID) (storage.Store, error)
	// Obs attaches the instrumentation layer. In failure mode every
	// quorum Read/Write/Recover emits a per-operation event; in normal
	// (DA) mode the simulator emits per-request events only when driven
	// through Run, which this per-request facade does not use — so an
	// observed failover run shows exactly the failure-mode phase in its
	// event stream. Nil disables instrumentation.
	Obs *obs.Obs
	// Faults, when non-nil and active, is installed on every engine's
	// network (each mode switch builds a fresh network seeded from the
	// same plan) and engages both engines' retransmission disciplines
	// unless Retry disables them.
	Faults *netsim.FaultPlan
	// Retry tunes the engines' retransmission disciplines.
	Retry netsim.RetryPolicy
}

// engine is the surface of the protocol in charge that the mode switch
// drives; sim.Cluster and quorum.Cluster both get all of it but Read and
// Write from the processor runtime they share (netsim.Runtime).
type engine interface {
	Read(p model.ProcessorID) (storage.Version, error)
	Write(p model.ProcessorID, data []byte) (storage.Version, error)
	Crash(id model.ProcessorID) error
	Restart(id model.ProcessorID) error
	Counts() cost.Counts
	ReliabilityOverhead() Overhead
	HolderSeqs() []uint64
	Network() *netsim.Network
	Quiesce()
	Close()
}

// Cluster is the mode-switching engine. It is not safe for concurrent use;
// one owner at a time.
type Cluster struct {
	cfg    Config
	core   model.Set
	anchor model.ProcessorID
	stores []storage.Store

	// eng is the engine in charge; q is the same engine while it is the
	// quorum one (degraded mode) and nil in normal mode.
	eng       engine
	q         *quorum.Cluster
	crashed   model.Set
	latestSeq uint64
	// baseNet accumulates message counts from engines that have been torn
	// down at mode switches; baseOverhead does the same for the
	// reliability-layer counters, so accounting is continuous across every
	// mode switch even on a lossy network.
	baseNet      cost.Counts
	baseOverhead Overhead

	closed bool
}

// Overhead aggregates the reliability-layer traffic that is billed apart
// from the paper's cost model: retransmissions, acknowledgements, and
// dropped messages.
type Overhead = netsim.Overhead

// New builds the cluster in DA mode.
func New(cfg Config) (*Cluster, error) {
	if cfg.T < 2 {
		return nil, fmt.Errorf("ha: T must be at least 2, got %d", cfg.T)
	}
	if cfg.Initial.Size() < cfg.T || !cfg.Initial.SubsetOf(model.FullSet(cfg.N)) {
		return nil, fmt.Errorf("ha: bad initial scheme %v for N=%d, T=%d", cfg.Initial, cfg.N, cfg.T)
	}
	newStore := cfg.NewStore
	if newStore == nil {
		newStore = func(model.ProcessorID) (storage.Store, error) { return storage.NewMem(), nil }
	}
	h := &Cluster{cfg: cfg, latestSeq: 1}
	for k := 0; k < cfg.T-1; k++ {
		h.core = h.core.Add(cfg.Initial.Member(k))
	}
	h.anchor = cfg.Initial.Member(cfg.T - 1)
	for i := 0; i < cfg.N; i++ {
		st, err := newStore(model.ProcessorID(i))
		if err != nil {
			return nil, fmt.Errorf("ha: store for %d: %w", i, err)
		}
		h.stores = append(h.stores, st)
	}
	da, err := sim.New(sim.Config{
		N: cfg.N, T: cfg.T, Protocol: sim.DA, Initial: cfg.Initial,
		NewStore: h.adopt, Obs: cfg.Obs, Faults: cfg.Faults, Retry: cfg.Retry,
	})
	if err != nil {
		return nil, err
	}
	h.eng = da
	return h, nil
}

func (h *Cluster) adopt(id model.ProcessorID) (storage.Store, error) {
	return h.stores[id], nil
}

// Mode returns the protocol currently in charge.
func (h *Cluster) Mode() Mode {
	if h.q != nil {
		return ModeQuorum
	}
	return ModeDA
}

// Crashed returns the set of processors currently down.
func (h *Cluster) Crashed() model.Set { return h.crashed }

// errNodeDown is returned when a request is issued at a crashed processor.
var errNodeDown = errors.New("ha: issuing processor is down")

// Read services a read request issued at processor p under the current
// mode. If DA's retransmission discipline gives up on an essential peer
// that the failure detector confirms crashed, the cluster fails over to
// quorum consensus and the read is retried there.
func (h *Cluster) Read(p model.ProcessorID) (storage.Version, error) {
	return h.do(p, func(e engine) (storage.Version, error) { return e.Read(p) })
}

// Write services a write request issued at processor p under the current
// mode, with the same give-up → failover → retry path as Read.
func (h *Cluster) Write(p model.ProcessorID, data []byte) (storage.Version, error) {
	v, err := h.do(p, func(e engine) (storage.Version, error) { return e.Write(p, data) })
	if err == nil && v.Seq > h.latestSeq {
		h.latestSeq = v.Seq
	}
	return v, err
}

// do runs one request issued at processor p on the engine in charge. A
// DA-mode request that fails on a peer reactUnreachable confirms down runs
// once more, on the engine then in charge.
func (h *Cluster) do(p model.ProcessorID, op func(engine) (storage.Version, error)) (storage.Version, error) {
	if h.closed {
		return storage.Version{}, fmt.Errorf("ha: %w", netsim.ErrClosed)
	}
	if h.crashed.Contains(p) {
		return storage.Version{}, errNodeDown
	}
	da := h.Mode() == ModeDA
	v, err := op(h.eng)
	if err != nil && da && h.reactUnreachable(err) {
		if h.crashed.Contains(p) {
			return storage.Version{}, errNodeDown
		}
		return op(h.eng)
	}
	return v, err
}

// reactUnreachable inspects an error from a DA-mode operation. When the
// retransmission discipline gave up on a peer that the network's failure
// detector confirms crashed (a real membership change — not a string of
// unlucky losses), the cluster reacts as if Crash had been called: the
// peer is marked down and, if it was essential, the cluster fails over to
// quorum consensus. It reports whether the caller should retry the
// operation under the (possibly new) mode.
func (h *Cluster) reactUnreachable(err error) bool {
	var u netsim.Unreachable
	if !errors.As(err, &u) {
		return false
	}
	if h.closed || h.q != nil || h.crashed.Contains(u.Peer) {
		return false
	}
	if !h.eng.Network().Crashed(u.Peer) {
		// The peer is up as far as the failure detector knows: the retry
		// budget drowned in losses. Surface the error; failing over on a
		// phantom would be a mode transition without a membership change.
		return false
	}
	h.crashed = h.crashed.Add(u.Peer)
	if h.core.Contains(u.Peer) || u.Peer == h.anchor {
		return h.failover() == nil
	}
	return true
}

// Crash takes processor id down. If the processor is essential to DA (a
// member of F ∪ {p}) and the cluster is in DA mode, the cluster fails over
// to quorum consensus over the surviving replicas.
func (h *Cluster) Crash(id model.ProcessorID) error {
	if int(id) < 0 || int(id) >= h.cfg.N {
		return fmt.Errorf("ha: crash of unknown processor %d", id)
	}
	if h.crashed.Contains(id) {
		return nil
	}
	h.crashed = h.crashed.Add(id)
	if h.q == nil && (h.core.Contains(id) || id == h.anchor) {
		return h.failover()
	}
	// DA tolerates non-essential crashes: the node simply stops answering;
	// invalidations to it are dropped by the network.
	return h.eng.Crash(id)
}

// failover tears the DA engine down and starts the quorum engine over
// the same local databases, then runs the transition step of the
// missing-writes algorithm: DA keeps as few as t copies, which is fewer
// than a majority, so the latest surviving version is replicated onto a
// full write quorum of live processors. Without this step a quorum read
// (or a write's version-number vote) could miss every holder and regress.
func (h *Cluster) failover() error {
	retired := h.eng.Network().Stats()
	h.eng.Close()
	q, err := quorum.New(quorum.Config{
		N: h.cfg.N, NewStore: h.adopt, Obs: h.cfg.Obs,
		Faults: h.cfg.Faults, Retry: h.cfg.Retry,
	})
	if err != nil {
		return fmt.Errorf("ha: failover: %w", err)
	}
	h.crashed.ForEach(func(id model.ProcessorID) { q.Crash(id) })

	// Locate the newest surviving copy among live processors.
	var latest storage.Version
	holder := model.ProcessorID(-1)
	live := model.FullSet(h.cfg.N).Diff(h.crashed)
	live.ForEach(func(id model.ProcessorID) {
		if v, ok := h.stores[id].Peek(); ok && v.Seq > latest.Seq {
			latest, holder = v, id
		}
	})
	if holder >= 0 {
		// Push it to live non-holders until a write quorum holds it. The
		// pushes ride billed data messages through the quorum engine's
		// install path.
		needed := h.cfg.N/2 + 1
		have := 0
		live.ForEach(func(id model.ProcessorID) {
			if v, ok := h.stores[id].Peek(); ok && v.Seq == latest.Seq {
				have++
			}
		})
		live.ForEach(func(id model.ProcessorID) {
			if have >= needed {
				return
			}
			if v, ok := h.stores[id].Peek(); ok && v.Seq == latest.Seq {
				return
			}
			q.Network().Send(netsim.Message{From: holder, To: id, Type: netsim.TWritePush, Seq: latest.Seq, Version: latest})
			have++
		})
		q.Quiesce()
	}

	h.install(q, q, retired)
	return nil
}

// Restart brings processor id back up. In quorum mode its replica is caught
// up with the missing-writes recovery; when every member of F ∪ {p} is
// alive again the cluster fails back to DA.
func (h *Cluster) Restart(id model.ProcessorID) error {
	if int(id) < 0 || int(id) >= h.cfg.N {
		return fmt.Errorf("ha: restart of unknown processor %d", id)
	}
	if !h.crashed.Contains(id) {
		return nil
	}
	h.crashed = h.crashed.Remove(id)
	if h.q == nil {
		// A recovering non-essential processor may hold a copy whose
		// invalidation was lost while it was down; it must not serve
		// local reads from it. Discard the copy — the node rejoins the
		// allocation scheme through a saving-read, as any non-data
		// processor does.
		if err := h.stores[id].Invalidate(); err != nil {
			return fmt.Errorf("ha: restart %d: %w", id, err)
		}
		return h.eng.Restart(id)
	}
	if err := h.q.Restart(id); err != nil {
		return err
	}
	if _, err := h.q.Recover(id); err != nil && !errors.Is(err, storage.ErrNoObject) {
		return fmt.Errorf("ha: recover %d: %w", id, err)
	}
	if !h.crashed.Intersects(h.core.Add(h.anchor)) {
		return h.failback()
	}
	return nil
}

// failback restores DA mode: every member of F ∪ {p} catches up to
// the latest version (missing-writes), every other replica is dropped (only
// scheme members may answer reads locally under DA), and a DA engine adopts
// the stores.
func (h *Cluster) failback() error {
	scheme := h.core.Add(h.anchor)
	for id := model.ProcessorID(0); int(id) < h.cfg.N; id++ {
		if scheme.Contains(id) {
			if _, err := h.q.Recover(id); err != nil && !errors.Is(err, storage.ErrNoObject) {
				return fmt.Errorf("ha: failback catch-up %d: %w", id, err)
			}
		}
	}
	latest := h.q.LatestSeq()
	retired := h.q.Network().Stats()
	h.q.Close()
	for id := model.ProcessorID(0); int(id) < h.cfg.N; id++ {
		if !scheme.Contains(id) {
			if err := h.stores[id].Invalidate(); err != nil {
				return fmt.Errorf("ha: failback invalidate %d: %w", id, err)
			}
		}
	}
	da, err := sim.New(sim.Config{
		N: h.cfg.N, T: h.cfg.T, Protocol: sim.DA, Initial: scheme,
		NewStore: h.adopt, AdoptStores: true, FirstSeq: latest, Obs: h.cfg.Obs,
		Faults: h.cfg.Faults, Retry: h.cfg.Retry,
	})
	if err != nil {
		return fmt.Errorf("ha: failback: %w", err)
	}
	// Non-essential processors still down stay down in the new engine.
	h.crashed.ForEach(func(id model.ProcessorID) { da.Crash(id) })
	h.install(da, nil, retired)
	if latest > h.latestSeq {
		h.latestSeq = latest
	}
	return nil
}

// install completes a mode switch: the network counters the torn-down
// engine had reached are folded into the running totals and next takes
// charge. A switch that fails before this leaves the closed engine in
// place, whose counters stay readable and whose operations report the
// closure.
func (h *Cluster) install(next engine, q *quorum.Cluster, retired netsim.Stats) {
	h.baseNet.Control += retired.ControlSent
	h.baseNet.Data += retired.DataSent
	h.baseOverhead = h.baseOverhead.Plus(retired.Overhead())
	h.eng, h.q = next, q
}

// Counts returns the cumulative message and I/O accounting across all
// modes since the cluster started. The local databases outlive the
// engines, so the engine in charge reports the whole lifetime's I/O.
func (h *Cluster) Counts() cost.Counts { return h.baseNet.Add(h.eng.Counts()) }

// Cost prices the cumulative accounting.
func (h *Cluster) Cost(m cost.Model) float64 { return h.Counts().Price(m) }

// ReliabilityOverhead returns the cumulative reliability-layer traffic
// (retransmissions, acks, drops) across all modes since the cluster
// started — the traffic billed apart from the paper's cost model.
func (h *Cluster) ReliabilityOverhead() Overhead {
	return h.baseOverhead.Plus(h.eng.ReliabilityOverhead())
}

// Quiesce runs the active engine until it is fully settled, including any
// artificially delayed messages. The chaos runner calls it between steps.
func (h *Cluster) Quiesce() { h.eng.Quiesce() }

// HolderSeqs returns, per processor, the sequence number of the locally
// held copy (0 when none), after quiescing the active engine. Invariant
// checkers use it for t-availability and per-processor monotonicity.
func (h *Cluster) HolderSeqs() []uint64 { return h.eng.HolderSeqs() }

// LatestSeq returns the highest committed version number.
func (h *Cluster) LatestSeq() uint64 { return h.latestSeq }

// Close tears down whichever engine is running.
func (h *Cluster) Close() {
	if h.closed {
		return
	}
	h.closed = true
	h.eng.Close()
	for _, s := range h.stores {
		s.Close()
	}
}
