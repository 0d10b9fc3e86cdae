package dom

import (
	"encoding/json"
	"fmt"

	"objalloc/internal/model"
)

// Static implements the read-one-write-all Static Allocation algorithm
// (SA, §4.2.1). SA keeps a fixed allocation scheme Q of size t at all times:
//
//   - a read by a member of Q executes locally ({i});
//   - a read by a non-member executes at one arbitrary processor of Q and
//     is never a saving-read;
//   - every write executes at Q (read-one-write-all).
//
// The paper's SAOS (Static Allocation Online Step) leaves "some member of Q"
// unspecified; Static uses a deterministic reader-assignment policy that
// can be overridden for experiments (see WithPicker).
type Static struct {
	q    model.Set
	pick Picker
}

// Picker chooses which member of a non-empty candidate set serves a
// reader outside it; it is the policy behind "an arbitrary processor in
// Q". Deterministic pickers make runs reproducible.
type Picker func(reader model.ProcessorID, candidates model.Set) model.ProcessorID

// MinPicker always chooses the smallest processor id of the set.
func MinPicker(_ model.ProcessorID, s model.Set) model.ProcessorID { return s.Min() }

// RotatingPicker returns a Picker that cycles through the members of
// whatever set it is given, spreading load across them.
func RotatingPicker() Picker {
	i := 0
	return func(_ model.ProcessorID, s model.Set) model.ProcessorID {
		id := s.Member(i % s.Size())
		i++
		return id
	}
}

// NewStatic creates an SA instance whose fixed allocation scheme Q is the
// initial allocation scheme.
func NewStatic(initial model.Set, t int) (Algorithm, error) {
	if err := checkInitial(initial, t); err != nil {
		return nil, err
	}
	return &Static{q: initial, pick: MinPicker}, nil
}

// StaticFactory is the Factory for SA with the default picker.
func StaticFactory(initial model.Set, t int) (Algorithm, error) {
	return NewStatic(initial, t)
}

// WithPicker replaces the reader-assignment policy and returns the receiver
// for chaining.
func (s *Static) WithPicker(p Picker) *Static {
	s.pick = p
	return s
}

// Name implements Algorithm.
func (s *Static) Name() string { return "SA" }

// Scheme implements Algorithm; for SA the scheme is the constant Q.
func (s *Static) Scheme() model.Set { return s.q }

// staticState is the serialized form of a Static instance. SA's scheme
// is the constant Q, so the state is just Q itself; it is exported
// anyway (rather than assumed) so a corrupted or mismatched checkpoint
// is detected instead of silently accepted.
type staticState struct {
	Q uint64 `json:"q"`
}

// ExportState implements Restorer.
func (s *Static) ExportState() ([]byte, error) {
	return json.Marshal(staticState{Q: uint64(s.q)})
}

// ImportState implements Restorer.
func (s *Static) ImportState(data []byte) error {
	var st staticState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dom: static state: %w", err)
	}
	q := model.Set(st.Q)
	if q.IsEmpty() {
		return fmt.Errorf("dom: static state has empty scheme")
	}
	s.q = q
	return nil
}

// Step implements Algorithm per SAOS: reads execute at {i} if i ∈ Q, else
// at one member of Q; writes execute at Q.
func (s *Static) Step(q model.Request) model.Step {
	if q.IsWrite() {
		return model.Step{Request: q, Exec: s.q}
	}
	if s.q.Contains(q.Processor) {
		return model.Step{Request: q, Exec: model.NewSet(q.Processor)}
	}
	return model.Step{Request: q, Exec: model.NewSet(s.pick(q.Processor, s.q))}
}
