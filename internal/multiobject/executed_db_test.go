package multiobject

import (
	"fmt"
	"sort"
	"sync"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// ExecutedDB is the executed counterpart of DB: every object is backed by
// a real protocol cluster (package sim) — message handlers, billed
// messages, local databases — rather than by analytic bookkeeping. Objects
// remain independent, as in the paper's model; each gets its own cluster on
// creation. The lock guards the directory only: a cluster has one owner at
// a time, so concurrent callers must work on different objects.
//
// ExecutedDB demonstrates, and its tests verify, that the analytic lift of
// DB is faithful: driving the same per-object request sequences through
// both yields identical integer accounting.
type ExecutedDB struct {
	mu       sync.Mutex
	cfg      ExecutedConfig
	clusters map[string]*sim.Cluster
	closed   bool
}

// ExecutedConfig describes the executed database.
type ExecutedConfig struct {
	// N is the number of processors, shared by all objects.
	N int
	// T is the availability threshold applied to every object.
	T int
	// Protocol selects SA or DA for every object.
	Protocol sim.Protocol
	// Placement returns the initial allocation scheme for a new object;
	// nil places every object at {0..T-1}.
	Placement func(name string) model.Set
	// NewStore optionally builds the local database for (object,
	// processor) pairs; nil means in-memory stores.
	NewStore func(object string, id model.ProcessorID) (storage.Store, error)
}

// OpenExecuted creates an empty executed database.
func OpenExecuted(cfg ExecutedConfig) (*ExecutedDB, error) {
	if cfg.N < 1 || cfg.T < 1 {
		return nil, fmt.Errorf("multiobject: N = %d, T = %d", cfg.N, cfg.T)
	}
	if cfg.Placement == nil {
		t := cfg.T
		cfg.Placement = func(string) model.Set { return model.FullSet(t) }
	}
	return &ExecutedDB{cfg: cfg, clusters: make(map[string]*sim.Cluster)}, nil
}

// clusterOf returns (creating on first touch) the cluster backing an
// object.
func (db *ExecutedDB) clusterOf(name string) (*sim.Cluster, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("multiobject: database closed")
	}
	if c, ok := db.clusters[name]; ok {
		return c, nil
	}
	var newStore func(model.ProcessorID) (storage.Store, error)
	if db.cfg.NewStore != nil {
		newStore = func(id model.ProcessorID) (storage.Store, error) {
			return db.cfg.NewStore(name, id)
		}
	}
	c, err := sim.New(sim.Config{
		N: db.cfg.N, T: db.cfg.T, Protocol: db.cfg.Protocol,
		Initial:  db.cfg.Placement(name),
		NewStore: newStore,
	})
	if err != nil {
		return nil, fmt.Errorf("multiobject: create %q: %w", name, err)
	}
	db.clusters[name] = c
	return c, nil
}

// Read services a read of the named object at processor p.
func (db *ExecutedDB) Read(name string, p model.ProcessorID) (storage.Version, error) {
	c, err := db.clusterOf(name)
	if err != nil {
		return storage.Version{}, err
	}
	return c.Read(p)
}

// Write services a write of the named object at processor p.
func (db *ExecutedDB) Write(name string, p model.ProcessorID, data []byte) (storage.Version, error) {
	c, err := db.clusterOf(name)
	if err != nil {
		return storage.Version{}, err
	}
	return c.Write(p, data)
}

// SchemeOf returns the object's current allocation scheme.
func (db *ExecutedDB) SchemeOf(name string) (model.Set, error) {
	c, err := db.clusterOf(name)
	if err != nil {
		return model.EmptySet, err
	}
	return c.Scheme(), nil
}

// Objects returns the object names, sorted.
func (db *ExecutedDB) Objects() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.clusters))
	for name := range db.clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TotalCounts sums the accounting across all objects.
func (db *ExecutedDB) TotalCounts() cost.Counts {
	db.mu.Lock()
	defer db.mu.Unlock()
	var total cost.Counts
	for _, c := range db.clusters {
		total = total.Add(c.Counts())
	}
	return total
}

// Close shuts every cluster down.
func (db *ExecutedDB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.closed = true
	for _, c := range db.clusters {
		c.Close()
	}
}
