// Package feed implements the append-only distributed-database model of
// §6.2: a sequence of objects (the paper's example is satellite images,
// one per minute), each generated at some station, where every object must
// be stored at t or more stations for reliability and each station reads
// the latest object at arbitrary points in time.
//
// The paper observes its SA/DA results apply verbatim here:
//
//   - under PermanentOrders (SA), a fixed set of t stations holds a
//     permanent standing order for every new object; other stations issue
//     on-demand reads;
//   - under TemporaryOrders (DA), t−1 stations hold permanent standing
//     orders, and any other station that fetches the latest object takes a
//     temporary standing order — it keeps its copy until the next object
//     in the sequence invalidates it.
//
// Feed wraps the executed protocols of package sim, so every Publish and
// Latest really moves messages and disk I/O, and the accumulated
// accounting prices the two policies against each other.
package feed

import (
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// Policy selects the standing-order scheme of §6.2.
type Policy int

const (
	// PermanentOrders is the SA mapping: a fixed set of t stations with
	// permanent standing orders.
	PermanentOrders Policy = iota
	// TemporaryOrders is the DA mapping: t−1 permanent standing orders
	// plus temporary ones taken by readers.
	TemporaryOrders
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PermanentOrders:
		return "permanent-orders"
	case TemporaryOrders:
		return "temporary-orders"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes a feed deployment.
type Config struct {
	// Stations is the number of earth stations.
	Stations int
	// T is the reliability threshold: every object is stored at >= T
	// stations.
	T int
	// Policy selects permanent or temporary standing orders.
	Policy Policy
	// Core is the set of stations holding standing orders (size T for
	// PermanentOrders, whose semantics fix the whole scheme; for
	// TemporaryOrders the T-1 smallest members are the permanent core).
	// Empty means stations 0..T-1.
	Core model.Set
	// NewStore optionally overrides the per-station local database.
	NewStore func(id model.ProcessorID) (storage.Store, error)
}

// Feed is a running append-only object sequence. It is not safe for
// concurrent use; one owner at a time.
type Feed struct {
	cluster *sim.Cluster
	seq     int // objects published so far
}

// Open starts the feed.
func Open(cfg Config) (*Feed, error) {
	if cfg.Stations < cfg.T || cfg.T < 1 {
		return nil, fmt.Errorf("feed: need at least T = %d stations, have %d", cfg.T, cfg.Stations)
	}
	core := cfg.Core
	if core.IsEmpty() {
		core = model.FullSet(cfg.T)
	}
	if core.Size() < cfg.T {
		return nil, fmt.Errorf("feed: core %v smaller than T = %d", core, cfg.T)
	}
	protocol := sim.SA
	if cfg.Policy == TemporaryOrders {
		protocol = sim.DA
	}
	cluster, err := sim.New(sim.Config{
		N: cfg.Stations, T: cfg.T, Protocol: protocol, Initial: core,
		NewStore: cfg.NewStore,
	})
	if err != nil {
		return nil, err
	}
	return &Feed{cluster: cluster}, nil
}

// Publish appends the next object in the sequence, generated at the given
// station. It returns the object's sequence number in the feed (starting
// at 1). Publication replaces the previous object as "latest": temporary
// standing orders on the previous object are invalidated, exactly as §6.2
// prescribes.
func (f *Feed) Publish(station model.ProcessorID, object []byte) (int, error) {
	if _, err := f.cluster.Write(station, object); err != nil {
		return 0, err
	}
	f.seq++
	return f.seq, nil
}

// Latest reads the most recent object in the sequence at the given
// station. Under TemporaryOrders the station takes a temporary standing
// order: repeat calls before the next Publish are local.
func (f *Feed) Latest(station model.ProcessorID) ([]byte, int, error) {
	v, err := f.cluster.Read(station)
	if err != nil {
		return nil, 0, err
	}
	// The cluster's version numbers start at 1 for the preloaded initial
	// object; feed sequence numbers count publishes.
	return v.Data, int(v.Seq) - 1, nil
}

// Published returns the number of objects published so far.
func (f *Feed) Published() int { return f.seq }

// Holders returns the stations currently storing the latest object — the
// standing-order holders plus, under TemporaryOrders, the stations whose
// temporary orders are still valid.
func (f *Feed) Holders() model.Set { return f.cluster.Scheme() }

// Counts returns the accumulated message and I/O accounting.
func (f *Feed) Counts() cost.Counts { return f.cluster.Counts() }

// Cost prices the accounting under a cost model.
func (f *Feed) Cost(m cost.Model) float64 { return f.Counts().Price(m) }

// Close shuts the feed down.
func (f *Feed) Close() { f.cluster.Close() }
