// Package hetero extends the paper's homogeneous cost model to
// heterogeneous systems — the direction §6.1 sketches under "extension to
// other models". In the homogeneous model (package cost) every
// control message costs cc, every data message cd, and every I/O one unit;
// here each ordered processor pair has its own control and data prices and
// each processor its own I/O price, so geographically clustered topologies
// (a campus LAN talking to a remote site, mobile cells with different
// tariffs) can be priced.
//
// Because per-pair prices make the cost of a step depend on *which*
// processor served it — not just how many — this package prices a concrete
// service plan: for each read, the serving replica; for each write, the
// writer's transfers and each invalidation's sender. The plan for SA and
// DA follows the protocols exactly (reads served by the picked member of
// Q/F, the writer ships its own write, each invalidation sent by the
// replica that tracks the invalidated copy), so homogeneous prices as a
// special case reproduce package cost to the cent — a property the tests
// assert.
//
// The package also provides cheapest-server pickers: with heterogeneous
// prices, "an arbitrary processor of Q" (§4.2.1) is better chosen as the
// cheapest one for each reader, a topology-aware refinement the paper's
// model leaves open.
package hetero

import (
	"fmt"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// Model prices a heterogeneous system of n processors.
type Model struct {
	// Control[i][j] and Data[i][j] price one control / data message from
	// processor i to processor j. The diagonal must be zero (local
	// delivery needs no message).
	Control, Data [][]float64
	// IO[i] prices one input or output of the object at processor i.
	IO []float64
}

// N returns the number of processors the model covers.
func (m Model) N() int { return len(m.IO) }

// Validate checks shape and the control-vs-data plausibility constraint
// per link (a data message carries strictly more than a control message).
func (m Model) Validate() error {
	n := m.N()
	if n == 0 {
		return fmt.Errorf("hetero: empty model")
	}
	if len(m.Control) != n || len(m.Data) != n {
		return fmt.Errorf("hetero: matrix size mismatch: %d IO prices, %dx control, %dx data", n, len(m.Control), len(m.Data))
	}
	for i := 0; i < n; i++ {
		if len(m.Control[i]) != n || len(m.Data[i]) != n {
			return fmt.Errorf("hetero: row %d has wrong width", i)
		}
		if m.IO[i] < 0 {
			return fmt.Errorf("hetero: negative IO price at %d", i)
		}
		for j := 0; j < n; j++ {
			if m.Control[i][j] < 0 || m.Data[i][j] < 0 {
				return fmt.Errorf("hetero: negative message price on link %d->%d", i, j)
			}
			if i == j && (m.Control[i][j] != 0 || m.Data[i][j] != 0) {
				return fmt.Errorf("hetero: non-zero local message price at %d", i)
			}
			if i != j && m.Control[i][j] > m.Data[i][j] {
				return fmt.Errorf("hetero: control (%g) costlier than data (%g) on link %d->%d: cannot be true",
					m.Control[i][j], m.Data[i][j], i, j)
			}
		}
	}
	return nil
}

// Uniform returns the heterogeneous embedding of the homogeneous model on
// n processors — used to check this package degenerates to package cost.
func Uniform(n int, hm cost.Model) Model {
	m := Model{
		Control: make([][]float64, n),
		Data:    make([][]float64, n),
		IO:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.Control[i] = make([]float64, n)
		m.Data[i] = make([]float64, n)
		m.IO[i] = hm.CIO
		for j := 0; j < n; j++ {
			if i != j {
				m.Control[i][j] = hm.CC
				m.Data[i][j] = hm.CD
			}
		}
	}
	return m
}

// Clustered returns a two-cluster topology: processors 0..split-1 form
// cluster A, the rest cluster B. Messages within a cluster cost the intra
// prices; messages between clusters cost the inter prices. I/O costs cio
// everywhere. It models the paper's geographically distributed setting —
// e.g. two sites connected by a WAN.
func Clustered(n, split int, intraCC, intraCD, interCC, interCD, cio float64) Model {
	m := Uniform(n, cost.Model{CIO: cio})
	cluster := func(i int) int {
		if i < split {
			return 0
		}
		return 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if cluster(i) == cluster(j) {
				m.Control[i][j], m.Data[i][j] = intraCC, intraCD
			} else {
				m.Control[i][j], m.Data[i][j] = interCC, interCD
			}
		}
	}
	return m
}

// StepCost prices one step of an allocation schedule under the
// heterogeneous model. The service plan mirrors the SA/DA protocols:
//
//   - read r^i with execution set X: for each server s in X other than i,
//     a request message i->s, an input at s, and a data message s->i; an
//     input at i itself when i ∈ X; one extra output at i for a
//     saving-read.
//   - write w^i with execution set X and scheme Y: a data message from the
//     writer to every member of X \ {i}, an output at every member of X,
//     and an invalidation message to every obsolete copy (Y \ X, minus the
//     writer when it is outside X), each sent from the replica that tracks
//     it: invalidate(s) is attributed to the cheapest member of X (the new
//     scheme), matching DA's join-list owners up to the picker.
func (m Model) StepCost(st model.Step, scheme model.Set) float64 {
	i := st.Request.Processor
	x := st.Exec
	var total float64
	if st.Request.IsRead() {
		x.ForEach(func(s model.ProcessorID) {
			total += m.IO[s] // input at each server
			if s != i {
				total += m.Control[i][s] + m.Data[s][i]
			}
		})
		if st.Saving {
			total += m.IO[i]
		}
		return total
	}
	// Write.
	x.ForEach(func(s model.ProcessorID) {
		total += m.IO[s]
		if s != i {
			total += m.Data[i][s]
		}
	})
	obsolete := scheme.Diff(x)
	if !x.Contains(i) {
		obsolete = obsolete.Remove(i)
	}
	obsolete.ForEach(func(victim model.ProcessorID) {
		total += m.cheapestControlFrom(x, victim)
	})
	return total
}

// cheapestControlFrom returns the cheapest control-message price from any
// member of senders to the victim.
func (m Model) cheapestControlFrom(senders model.Set, victim model.ProcessorID) float64 {
	best := -1.0
	senders.ForEach(func(s model.ProcessorID) {
		c := m.Control[s][victim]
		if best < 0 || c < best {
			best = c
		}
	})
	if best < 0 {
		return 0
	}
	return best
}

// ScheduleCost prices a whole allocation schedule.
func (m Model) ScheduleCost(a model.AllocSchedule, initial model.Set) float64 {
	var total float64
	scheme := initial
	for _, st := range a {
		total += m.StepCost(st, scheme)
		scheme = model.NextScheme(scheme, st)
	}
	return total
}

// ServerFor is the topology-aware dom.Picker: the member of the
// candidate set with the cheapest request+data round trip to the reader
// (the smallest id among equals).
func (m Model) ServerFor(reader model.ProcessorID, candidates model.Set) model.ProcessorID {
	best := candidates.Min()
	bestCost := m.Control[reader][best] + m.Data[best][reader]
	candidates.ForEach(func(s model.ProcessorID) {
		c := m.Control[reader][s] + m.Data[s][reader]
		if c < bestCost {
			best, bestCost = s, c
		}
	})
	return best
}

// EvaluateFactory runs a dom.Factory on a schedule and prices the result
// under the heterogeneous model. It returns the cost and the allocation
// schedule.
func (m Model) EvaluateFactory(f dom.Factory, initial model.Set, t int, sched model.Schedule) (float64, model.AllocSchedule, error) {
	las, err := dom.RunFactory(f, initial, t, sched)
	if err != nil {
		return 0, nil, err
	}
	if err := las.Validate(initial, t); err != nil {
		return 0, nil, err
	}
	return m.ScheduleCost(las, initial), las, nil
}

// AwareDynamic is DA (§4.2.2) with a topology-aware read policy:
// dom.Dynamic with ServerFor as its picker, in place of an arbitrary
// member of F. Under homogeneous prices it coincides with plain DA; under
// clustered topologies it keeps remote reads inside the reader's cluster
// whenever F spans clusters.
type AwareDynamic struct{ *dom.Dynamic }

// NewAwareDynamic builds the topology-aware DA: core F = the t-1 smallest
// members of initial, designated processor = the next member.
func NewAwareDynamic(m Model, initial model.Set, t int) (*AwareDynamic, error) {
	if t < 2 {
		return nil, fmt.Errorf("hetero: AwareDynamic requires t >= 2")
	}
	da, err := dom.NewDynamic(initial, t)
	if err != nil {
		return nil, err
	}
	return &AwareDynamic{da.(*dom.Dynamic).WithPicker(m.ServerFor)}, nil
}

// AwareDynamicFactory returns the dom.Factory form.
func AwareDynamicFactory(m Model) dom.Factory {
	return func(initial model.Set, t int) (dom.Algorithm, error) {
		return NewAwareDynamic(m, initial, t)
	}
}

// Name implements dom.Algorithm.
func (a *AwareDynamic) Name() string { return "DA-aware" }
