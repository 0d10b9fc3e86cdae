// Package multiobject lifts the paper's single-object model (§3.1: "In this
// paper we address the allocation of a single object") to a database of
// many independent objects: a directory maps each object to its own DOM
// algorithm instance and its own allocation scheme, and costs are accounted
// per object and in total.
//
// Under the paper's model objects do not interact — each object's requests
// form their own schedule and its allocation scheme evolves independently —
// so the lift is exact: the database's total cost is the sum of the
// per-object costs the single-object analysis bounds.
package multiobject

import (
	"encoding/json"
	"fmt"
	"sort"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// Config describes the database.
type Config struct {
	// Factory builds the DOM algorithm used for each object (e.g.
	// dom.DynamicFactory).
	Factory dom.Factory
	// T is the availability threshold applied to every object.
	T int
	// Placement returns the initial allocation scheme for a newly created
	// object; nil places every object at {0..T-1}.
	Placement func(name string) model.Set
	// Model prices the accounting.
	Model cost.Model
}

// DB is a multi-object distributed database directory. It has one owner
// and is not safe for concurrent use: it takes no lock, so a caller that
// shares one orders the calls itself (a server shard's loop owns its
// directory, and the drain reads it only after the loop has exited).
type DB struct {
	cfg     Config
	objects map[string]*object
}

type object struct {
	alg       dom.Algorithm
	initial   model.Set
	counts    cost.Counts
	requests  int
	seenTrans int
}

// Stats summarizes one object's lifetime.
type Stats struct {
	Name     string
	Requests int
	Counts   cost.Counts
	Cost     float64
	Scheme   model.Set
	// Transitions lists the protocol switches an adaptive algorithm
	// performed for this object (nil for fixed protocols). Their counts
	// are already folded into Counts and Cost.
	Transitions []dom.Transition
	// Window is the live workload-mix estimate when the algorithm
	// reports one (dom.MixReporter), nil otherwise.
	Window *dom.WindowStat
}

// Open creates an empty database.
func Open(cfg Config) (*DB, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("multiobject: nil factory")
	}
	if cfg.T < 1 {
		return nil, fmt.Errorf("multiobject: T = %d", cfg.T)
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Placement == nil {
		t := cfg.T
		cfg.Placement = func(string) model.Set { return model.FullSet(t) }
	}
	return &DB{cfg: cfg, objects: make(map[string]*object)}, nil
}

// Detail is one request's itemized outcome: its billed cost, the
// message/I/O counts behind it, any protocol transitions the request
// triggered (already folded into Counts and Cost), the protocol in
// force after the request when the algorithm reports one, and whether
// the request created the object. The tracing layer turns this into
// per-request spans.
type Detail struct {
	Cost        float64
	Counts      cost.Counts
	Transitions []dom.Transition
	Protocol    string
	Created     bool
}

// Apply services one request against the named object, creating the object
// (at its placement) on first touch, and returns the request's cost.
func (db *DB) Apply(name string, q model.Request) (float64, error) {
	d, err := db.ApplyDetail(name, q)
	return d.Cost, err
}

// ApplyDetail services one request like Apply but returns the itemized
// outcome rather than just the priced cost.
func (db *DB) ApplyDetail(name string, q model.Request) (Detail, error) {
	o, ok := db.objects[name]
	if !ok {
		initial := db.cfg.Placement(name)
		alg, err := db.cfg.Factory(initial, db.cfg.T)
		if err != nil {
			return Detail{}, fmt.Errorf("multiobject: create %q: %w", name, err)
		}
		o = &object{alg: alg, initial: initial}
		db.objects[name] = o
	}
	scheme := o.alg.Scheme()
	step := o.alg.Step(q)
	c := cost.StepCounts(step, scheme)
	d := Detail{Created: !ok}
	// An adaptive algorithm may have switched protocols after servicing
	// the request; the switch's replica installs and invalidations are
	// billed with the request that triggered it.
	if tr, ok := o.alg.(dom.Transitioner); ok {
		ts := tr.Transitions()
		if o.seenTrans < len(ts) {
			d.Transitions = append(d.Transitions, ts[o.seenTrans:]...)
		}
		for ; o.seenTrans < len(ts); o.seenTrans++ {
			c = c.Add(ts[o.seenTrans].Counts)
		}
	}
	if mr, ok := o.alg.(dom.MixReporter); ok {
		d.Protocol = mr.WindowStat().Protocol
	}
	o.counts = o.counts.Add(c)
	o.requests++
	d.Counts = c
	d.Cost = c.Price(db.cfg.Model)
	return d, nil
}

// Read services a read of the named object issued by processor p.
func (db *DB) Read(name string, p model.ProcessorID) (float64, error) {
	return db.Apply(name, model.R(p))
}

// Write services a write of the named object issued by processor p.
func (db *DB) Write(name string, p model.ProcessorID) (float64, error) {
	return db.Apply(name, model.W(p))
}

// Objects returns the number of objects in the directory.
func (db *DB) Objects() int {
	return len(db.objects)
}

// TotalCounts returns the accounting summed over all objects.
func (db *DB) TotalCounts() cost.Counts {
	var total cost.Counts
	for _, o := range db.objects {
		total = total.Add(o.counts)
	}
	return total
}

// TotalCost prices the whole database's accounting.
func (db *DB) TotalCost() float64 { return db.TotalCounts().Price(db.cfg.Model) }

// StatsOf returns one object's stats, or false if it does not exist.
func (db *DB) StatsOf(name string) (Stats, bool) {
	o, ok := db.objects[name]
	if !ok {
		return Stats{}, false
	}
	return db.stats(name, o), true
}

// AllStats returns stats for every object, sorted by name.
func (db *DB) AllStats() []Stats {
	out := make([]Stats, 0, len(db.objects))
	for name, o := range db.objects {
		out = append(out, db.stats(name, o))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ObjectState is one object's complete serialized state: everything the
// directory needs to recreate the object exactly — name, the initial
// scheme it was placed at, its cumulative accounting, and the
// algorithm's own opaque state blob (dom.Restorer). The server's
// crash-recovery checkpoints embed these records.
type ObjectState struct {
	Name     string          `json:"name"`
	Initial  model.Set       `json:"initial"`
	Requests int             `json:"requests"`
	Counts   cost.Counts     `json:"counts"`
	Alg      json.RawMessage `json:"alg,omitempty"`
}

// Export serializes every object, sorted by name. It fails if any
// object's algorithm does not implement dom.Restorer — a directory
// running a custom factory without state support cannot checkpoint.
func (db *DB) Export() ([]ObjectState, error) {
	out := make([]ObjectState, 0, len(db.objects))
	for name, o := range db.objects {
		r, ok := o.alg.(dom.Restorer)
		if !ok {
			return nil, fmt.Errorf("multiobject: algorithm %s for %q is not restorable", o.alg.Name(), name)
		}
		blob, err := r.ExportState()
		if err != nil {
			return nil, fmt.Errorf("multiobject: export %q: %w", name, err)
		}
		out = append(out, ObjectState{
			Name: name, Initial: o.initial,
			Requests: o.requests, Counts: o.counts, Alg: blob,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Restore recreates objects from exported states: each object is built
// by the directory's factory at its recorded initial scheme, then the
// algorithm state is imported. Restore is meant for a freshly opened
// directory; restoring over an existing object replaces it.
func (db *DB) Restore(states []ObjectState) error {
	for _, st := range states {
		alg, err := db.cfg.Factory(st.Initial, db.cfg.T)
		if err != nil {
			return fmt.Errorf("multiobject: restore %q: %w", st.Name, err)
		}
		if len(st.Alg) > 0 {
			r, ok := alg.(dom.Restorer)
			if !ok {
				return fmt.Errorf("multiobject: algorithm %s for %q is not restorable", alg.Name(), st.Name)
			}
			if err := r.ImportState(st.Alg); err != nil {
				return fmt.Errorf("multiobject: restore %q: %w", st.Name, err)
			}
		}
		o := &object{alg: alg, initial: st.Initial, counts: st.Counts, requests: st.Requests}
		// The restored algorithm reports its full transition history;
		// those switches were billed before the export, so mark them
		// seen or ApplyDetail would bill them again.
		if tr, ok := alg.(dom.Transitioner); ok {
			o.seenTrans = len(tr.Transitions())
		}
		db.objects[st.Name] = o
	}
	return nil
}

func (db *DB) stats(name string, o *object) Stats {
	st := Stats{
		Name:     name,
		Requests: o.requests,
		Counts:   o.counts,
		Cost:     o.counts.Price(db.cfg.Model),
		Scheme:   o.alg.Scheme(),
	}
	if tr, ok := o.alg.(dom.Transitioner); ok {
		st.Transitions = tr.Transitions()
	}
	if mr, ok := o.alg.(dom.MixReporter); ok {
		w := mr.WindowStat()
		st.Window = &w
	}
	return st
}
