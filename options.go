package objalloc

import (
	"objalloc/internal/ha"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
)

// ClusterOption configures a cluster built by NewCluster,
// NewQuorumCluster or NewHACluster. Options that do not apply to the
// cluster kind being built (WithProtocol on a quorum cluster, WithPreload
// on a plain one) are ignored, so option sets can be shared across kinds.
type ClusterOption func(*clusterOptions)

type clusterOptions struct {
	protocol   Protocol
	t          int
	initial    Set
	hasInitial bool
	newStore   func(id ProcessorID) (Store, error)
	faults     *FaultPlan
	seed       uint64
	hasSeed    bool
	preload    bool
}

func buildClusterOptions(opts []ClusterOption) clusterOptions {
	o := clusterOptions{protocol: ProtocolDA, t: 2}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// resolvedInitial is the initial allocation scheme: WithInitial's set, or
// {0..t-1}.
func (o *clusterOptions) resolvedInitial() Set {
	if o.hasInitial {
		return o.initial
	}
	return FullSet(o.t)
}

// resolvedFaults is the fault plan with any WithSeed override applied.
func (o *clusterOptions) resolvedFaults() *FaultPlan {
	if o.faults == nil {
		return nil
	}
	plan := *o.faults
	if o.hasSeed {
		plan.Seed = o.seed
	}
	return &plan
}

// WithProtocol selects SA or DA (plain clusters; default ProtocolDA).
func WithProtocol(p Protocol) ClusterOption {
	return func(o *clusterOptions) { o.protocol = p }
}

// WithAvailability sets the availability threshold t (default 2).
func WithAvailability(t int) ClusterOption {
	return func(o *clusterOptions) { o.t = t }
}

// WithInitial sets the initial allocation scheme; the default is
// {0..t-1}.
func WithInitial(s Set) ClusterOption {
	return func(o *clusterOptions) { o.initial = s; o.hasInitial = true }
}

// WithStores overrides the per-processor local database, e.g. disk-backed
// stores via OpenDiskStore; the default is in-memory stores.
func WithStores(newStore func(id ProcessorID) (Store, error)) ClusterOption {
	return func(o *clusterOptions) { o.newStore = newStore }
}

// WithFaults installs a deterministic fault plan on the cluster's network
// and engages the retransmission discipline.
func WithFaults(plan FaultPlan) ClusterOption {
	return func(o *clusterOptions) { o.faults = &plan }
}

// WithSeed overrides the fault plan's seed, giving a replayable variant
// of the same plan; it has no effect without WithFaults.
func WithSeed(seed uint64) ClusterOption {
	return func(o *clusterOptions) { o.seed = seed; o.hasSeed = true }
}

// WithPreload installs version 1 on every processor at start (quorum
// clusters), modeling a fresh statically replicated system.
func WithPreload(on bool) ClusterOption {
	return func(o *clusterOptions) { o.preload = on }
}

// NewCluster builds and starts a simulated distributed system of n
// processors: one protocol handler per processor, a billed message network,
// and per-processor local databases. By default it runs DA with t = 2 and
// initial scheme {0..t-1}; see the ClusterOption family.
func NewCluster(n int, opts ...ClusterOption) (*Cluster, error) {
	o := buildClusterOptions(opts)
	return sim.New(sim.Config{
		N:        n,
		T:        o.t,
		Protocol: o.protocol,
		Initial:  o.resolvedInitial(),
		NewStore: o.newStore,
		Faults:   o.resolvedFaults(),
	})
}

// NewQuorumCluster builds and starts a majority/weighted-voting
// replicated system of n processors.
func NewQuorumCluster(n int, opts ...ClusterOption) (*QuorumCluster, error) {
	o := buildClusterOptions(opts)
	return quorum.New(quorum.Config{
		N:        n,
		NewStore: o.newStore,
		Preload:  o.preload,
		Faults:   o.resolvedFaults(),
	})
}

// NewHACluster builds and starts a highly-available cluster of n
// processors: DA in normal mode, quorum-consensus failover when a member
// of F ∪ {p} crashes.
func NewHACluster(n int, opts ...ClusterOption) (*HACluster, error) {
	o := buildClusterOptions(opts)
	return ha.New(ha.Config{
		N:        n,
		T:        o.t,
		Initial:  o.resolvedInitial(),
		NewStore: o.newStore,
		Faults:   o.resolvedFaults(),
	})
}
