package dom

import (
	"encoding/json"
	"fmt"

	"objalloc/internal/model"
)

// Dynamic implements the paper's Dynamic Allocation algorithm (DA, §4.2.2).
//
// DA fixes a core set F of t−1 processors plus one designated processor
// p ∉ F; the initial allocation scheme is F ∪ {p}. The processors of F hold
// the latest version of the object at all times. The online step is:
//
//   - a read by a data processor (a member of the current allocation
//     scheme) executes locally ({i}) and does not save;
//   - a read by a non-data processor executes at one processor of F and is
//     converted into a saving-read — the reader stores the object in its
//     local database and joins the allocation scheme (the F member records
//     the joiner on its join-list; the list is realized as message traffic
//     in package sim, and as the scheme evolution here);
//   - a write by j ∈ F ∪ {p} executes at F ∪ {p};
//   - a write by j ∉ F ∪ {p} executes at F ∪ {j}.
//
// Every write replaces the allocation scheme with its execution set, which
// models the invalidation of all joined copies; the invalidation control
// messages are billed by the cost model's write formula.
type Dynamic struct {
	f      model.Set // the fixed core, |F| = t-1
	p      model.ProcessorID
	scheme model.Set
	pick   Picker
}

// NewDynamic creates a DA instance from the initial allocation scheme: the
// core F is the t−1 smallest members and p is the next member. Members of
// the initial scheme beyond F ∪ {p} are treated as already-joined readers
// (they hold a valid copy until the first write).
func NewDynamic(initial model.Set, t int) (Algorithm, error) {
	if err := checkInitial(initial, t); err != nil {
		return nil, err
	}
	var f model.Set
	for k := 0; k < t-1; k++ {
		f = f.Add(initial.Member(k))
	}
	p := initial.Member(t - 1)
	return &Dynamic{f: f, p: p, scheme: initial, pick: MinPicker}, nil
}

// NewDynamicWithCore creates a DA instance with an explicit core F and
// designated processor p. The initial allocation scheme is F ∪ {p}; the
// availability threshold is |F| + 1.
func NewDynamicWithCore(f model.Set, p model.ProcessorID) (*Dynamic, error) {
	if f.Contains(p) {
		return nil, fmt.Errorf("dom: designated processor %d must not be in core %v", p, f)
	}
	return &Dynamic{f: f, p: p, scheme: f.Add(p), pick: MinPicker}, nil
}

// DynamicFactory is the Factory for DA with the default core choice.
func DynamicFactory(initial model.Set, t int) (Algorithm, error) {
	return NewDynamic(initial, t)
}

// WithPicker replaces the policy that chooses which member of F serves a
// remote read, and returns the receiver for chaining.
func (d *Dynamic) WithPicker(p Picker) *Dynamic {
	d.pick = p
	return d
}

// Name implements Algorithm.
func (d *Dynamic) Name() string { return "DA" }

// Scheme implements Algorithm.
func (d *Dynamic) Scheme() model.Set { return d.scheme }

// Core returns the fixed set F.
func (d *Dynamic) Core() model.Set { return d.f }

// Designated returns the designated processor p.
func (d *Dynamic) Designated() model.ProcessorID { return d.p }

// dynamicState is the serialized form of a Dynamic instance. The core F
// and designated processor p are reconstructed from the initial scheme
// by the factory, so only the evolving allocation scheme travels.
type dynamicState struct {
	Scheme uint64 `json:"scheme"`
}

// ExportState implements Restorer.
func (d *Dynamic) ExportState() ([]byte, error) {
	return json.Marshal(dynamicState{Scheme: uint64(d.scheme)})
}

// ImportState implements Restorer. The restored scheme must still cover
// the core F — every reachable DA scheme does (writes move the scheme to
// F ∪ {j}, reads only add members), so a violation means the state blob
// belongs to a different object or configuration.
func (d *Dynamic) ImportState(data []byte) error {
	var st dynamicState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dom: dynamic state: %w", err)
	}
	scheme := model.Set(st.Scheme)
	if scheme.IsEmpty() {
		return fmt.Errorf("dom: dynamic state has empty scheme")
	}
	if !d.f.SubsetOf(scheme) {
		return fmt.Errorf("dom: dynamic state scheme %v does not cover core %v", scheme, d.f)
	}
	d.scheme = scheme
	return nil
}

// Step implements Algorithm per §4.2.2.
func (d *Dynamic) Step(q model.Request) model.Step {
	i := q.Processor
	if q.IsRead() {
		if d.scheme.Contains(i) {
			return model.Step{Request: q, Exec: model.NewSet(i)}
		}
		// Non-data processor: fetch from a member of F and save,
		// joining the allocation scheme.
		candidates := d.f
		if candidates.IsEmpty() {
			// t = 1 degenerate case: F is empty; serve from any data
			// processor. The paper assumes t >= 2, where F is never
			// empty; this keeps t = 1 well-defined.
			candidates = d.scheme
		}
		server := d.pick(i, candidates)
		d.scheme = d.scheme.Add(i)
		return model.Step{Request: q, Exec: model.NewSet(server), Saving: true}
	}
	// Write.
	var exec model.Set
	if d.f.Contains(i) || i == d.p {
		exec = d.f.Add(d.p)
	} else {
		exec = d.f.Add(i)
	}
	d.scheme = exec
	return model.Step{Request: q, Exec: exec}
}
