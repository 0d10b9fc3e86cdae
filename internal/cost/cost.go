// Package cost implements the cost model of Huang & Wolfson (ICDE 1994),
// §3.2 (stationary computing) and §3.3 (mobile computing).
//
// Servicing an access request incurs three kinds of primitive charges:
//
//   - control messages (request and invalidate messages), priced cc each;
//   - data messages (transmissions of the object), priced cd each;
//   - local-database I/Os (inputting or outputting the object), priced cio.
//
// The stationary-computing (SC) model normalizes cio = 1; the
// mobile-computing (MC) model sets cio = 0 because only wireless messages
// are billed. Both are instances of the same Model, so every formula in this
// package is written once against a general cio.
//
// The package deliberately computes costs in two stages: each request is
// first reduced to an integer Counts (how many control messages, data
// messages and I/Os servicing it takes — §3.2's accounting), and the Counts
// are then priced by a Model. The distributed simulator (package sim)
// produces the same Counts by actually sending messages, which lets
// integration tests assert exact, float-free equality between the analytic
// model and the executed protocol.
package cost

import (
	"fmt"
	"math"

	"objalloc/internal/model"
)

// Model holds the prices of the three primitive charges.
type Model struct {
	// CC is the cost of transmitting one control message between any two
	// processors. Control messages carry only the object id and an
	// operation tag, so CC <= CD always holds in meaningful models.
	CC float64
	// CD is the cost of transmitting one data message (a copy of the
	// object) between any two processors.
	CD float64
	// CIO is the cost of one input or output of the object at a local
	// database. 1 in the SC model, 0 in the MC model.
	CIO float64
}

// SC returns the stationary-computing model with the given message costs
// and the I/O cost normalized to 1 (§3.2).
func SC(cc, cd float64) Model { return Model{CC: cc, CD: cd, CIO: 1} }

// MC returns the mobile-computing model with the given message costs and
// zero I/O cost (§3.3).
func MC(cc, cd float64) Model { return Model{CC: cc, CD: cd, CIO: 0} }

// IsMobile reports whether the model charges nothing for I/O, i.e. whether
// it is an instance of the mobile-computing model.
func (m Model) IsMobile() bool { return m.CIO == 0 }

// Validate checks that the model is meaningful: all prices finite and
// non-negative, and a data message at least as expensive as a control
// message (the "cannot be true" region of figures 1 and 2 is cc > cd).
func (m Model) Validate() error {
	for _, p := range [...]struct {
		field string
		v     float64
	}{{"CC", m.CC}, {"CD", m.CD}, {"CIO", m.CIO}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("cost: non-finite price %s = %g in model %+v", p.field, p.v, m)
		}
	}
	if m.CC < 0 || m.CD < 0 || m.CIO < 0 {
		return fmt.Errorf("cost: negative price in model %+v", m)
	}
	if m.CC > m.CD {
		return fmt.Errorf("cost: control message (%g) costlier than data message (%g): cannot be true", m.CC, m.CD)
	}
	return nil
}

// String renders the model compactly, e.g. "SC(cc=0.25,cd=1.5)".
func (m Model) String() string {
	kind := "MC"
	if !m.IsMobile() {
		kind = "SC"
		if m.CIO != 1 {
			return fmt.Sprintf("cost(cc=%g,cd=%g,cio=%g)", m.CC, m.CD, m.CIO)
		}
	}
	return fmt.Sprintf("%s(cc=%g,cd=%g)", kind, m.CC, m.CD)
}

// Counts is the integer accounting of servicing one request (or a whole
// allocation schedule): the number of control messages, data messages, and
// local-database I/Os.
type Counts struct {
	Control int // request + invalidate messages
	Data    int // object transmissions
	IO      int // local database inputs/outputs
}

// Add returns the component-wise sum of two Counts.
func (c Counts) Add(d Counts) Counts {
	return Counts{Control: c.Control + d.Control, Data: c.Data + d.Data, IO: c.IO + d.IO}
}

// Price returns the cost of the counted charges under model m.
func (c Counts) Price(m Model) float64 {
	return float64(c.Control)*m.CC + float64(c.Data)*m.CD + float64(c.IO)*m.CIO
}

// String renders the counts, e.g. "3cc+2cd+4io".
func (c Counts) String() string {
	return fmt.Sprintf("%dcc+%dcd+%dio", c.Control, c.Data, c.IO)
}

// StepCounts returns the integer charge accounting of one step of an
// allocation schedule, given the allocation scheme at the step (§3.2, §3.3).
//
// For a read r^i with execution set X:
//
//	i ∈ X: (|X|−1) request messages, |X| inputs, (|X|−1) object
//	       transmissions (the copy at i itself needs no messages);
//	i ∉ X: |X| of each.
//
// A saving-read additionally outputs the object to i's local database:
// one extra I/O.
//
// For a write w^i with execution set X and allocation scheme Y at the
// write: an invalidate control message goes to every processor whose copy
// becomes obsolete — the processors of Y \ X, except i itself when i ∉ X
// (the writer needs no message to learn of its own write); the new version
// is transmitted to every member of X other than the writer and output to
// the local database at every member of X.
func StepCounts(st model.Step, scheme model.Set) Counts {
	i := st.Request.Processor
	x := st.Exec
	switch {
	case st.Request.IsRead():
		var c Counts
		if x.Contains(i) {
			c = Counts{Control: x.Size() - 1, Data: x.Size() - 1, IO: x.Size()}
		} else {
			c = Counts{Control: x.Size(), Data: x.Size(), IO: x.Size()}
		}
		if st.Saving {
			c.IO++
		}
		return c
	default: // write
		obsolete := scheme.Diff(x)
		if !x.Contains(i) {
			obsolete = obsolete.Remove(i)
		}
		c := Counts{Control: obsolete.Size(), IO: x.Size()}
		if x.Contains(i) {
			c.Data = x.Size() - 1
		} else {
			c.Data = x.Size()
		}
		return c
	}
}

// StepCost prices one step of an allocation schedule under model m, given
// the allocation scheme at the step.
func StepCost(m Model, st model.Step, scheme model.Set) float64 {
	return StepCounts(st, scheme).Price(m)
}

// TransitionCounts is the integer charge accounting of moving the
// allocation scheme from `from` to `to` outside any request — the price an
// adaptive controller pays to switch protocols. The accounting uses the
// same §3.2 primitives as StepCounts:
//
//   - every processor of to \ from must be installed: one request control
//     message, one transmission of the object, and one output at its local
//     database (exactly a remote saving-read's marginal charges);
//   - every processor of from \ to holds a copy that becomes obsolete: one
//     invalidate control message (exactly a write's invalidation charge).
//
// A transition within the same scheme (from == to) is free.
func TransitionCounts(from, to model.Set) Counts {
	installs := to.Diff(from).Size()
	invalidates := from.Diff(to).Size()
	return Counts{
		Control: installs + invalidates,
		Data:    installs,
		IO:      installs,
	}
}

// TotalCounts returns the total integer accounting of an allocation
// schedule executed from the given initial allocation scheme. COST(I, τ) of
// the paper is TotalCounts(...).Price(m).
func TotalCounts(a model.AllocSchedule, initial model.Set) Counts {
	return scheduleCounts(a, initial, nil)
}

// ScheduleCounts is TotalCounts together with the per-step counts, for the
// callers that look at the steps.
func ScheduleCounts(a model.AllocSchedule, initial model.Set) (total Counts, perStep []Counts) {
	perStep = make([]Counts, len(a))
	return scheduleCounts(a, initial, perStep), perStep
}

// scheduleCounts sums the steps' counts, keeping each in perStep when that
// is not nil.
func scheduleCounts(a model.AllocSchedule, initial model.Set, perStep []Counts) (total Counts) {
	scheme := initial
	for i, st := range a {
		c := StepCounts(st, scheme)
		if perStep != nil {
			perStep[i] = c
		}
		total = total.Add(c)
		scheme = model.NextScheme(scheme, st)
	}
	return total
}

// ScheduleCost prices a whole allocation schedule under model m: the sum of
// the costs of its requests (§3.2's COST(I, τ)).
func ScheduleCost(m Model, a model.AllocSchedule, initial model.Set) float64 {
	return TotalCounts(a, initial).Price(m)
}
