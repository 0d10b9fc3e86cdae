package adaptive

import (
	"fmt"
	"math"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// Controller is the online adaptive allocation algorithm. It delegates
// every request to the protocol currently in charge (a fresh dom.Static or
// dom.Dynamic instance) and, after servicing it, re-evaluates the sliding
// window; a switch takes effect before the next request and is billed via
// cost.TransitionCounts.
//
// Controller implements dom.Algorithm, dom.Transitioner and
// dom.MixReporter. Like every Algorithm it is single-use and not safe for
// concurrent use; the server gives each object its own instance.
type Controller struct {
	spec    Spec
	model   cost.Model
	initial model.Set
	t       int

	inner  dom.Algorithm
	pinned bool
	steps  int

	// Sliding window: a ring of the last spec.Window accesses plus the
	// decayed read/write mass per processor. With Decay = 0 the masses
	// are plain counts of the ring's contents.
	ring      []access
	head      int
	readMass  map[model.ProcessorID]float64
	writeMass map[model.ProcessorID]float64
	departing float64 // weight of the oldest entry when it leaves: (1−decay)^window

	streak int
	trans  []dom.Transition
}

type access struct {
	read bool
	p    model.ProcessorID
}

// New creates a Controller for one object. The cost model decides the
// region test and prices the window estimates; initial is the object's
// initial allocation scheme (SA's fixed Q, DA's F ∪ {p}); t is the
// availability threshold. The spec is normalized here, so the zero Spec is
// valid.
func New(m cost.Model, spec Spec, initial model.Set, t int) (*Controller, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{spec: spec, model: m, initial: initial, t: t}

	region := cost.RegionUnknown
	if !spec.IgnoreRegion {
		region = m.Region()
	}
	start := spec.Start
	if start == "auto" {
		switch region {
		case cost.RegionSASuperior:
			start = "sa"
		default:
			// DA wherever the bounds do not hand the point to SA: the
			// paper's recommendation (DA is competitive, SA is not in
			// general).
			start = "da"
		}
	}
	// Pin when the spec disables switching or the paper's bounds already
	// decide the point; a pinned controller is the pure protocol.
	c.pinned = spec.Pinned() ||
		(region == cost.RegionSASuperior && start == "sa") ||
		(region == cost.RegionDASuperior && start == "da")

	var err error
	if c.inner, err = c.protocol(start); err != nil {
		return nil, err
	}
	if !c.pinned {
		c.ring = make([]access, 0, spec.Window)
		c.readMass = make(map[model.ProcessorID]float64)
		c.writeMass = make(map[model.ProcessorID]float64)
		c.departing = math.Pow(1-spec.Decay, float64(spec.Window))
	}
	return c, nil
}

// Factory returns a dom.Factory that creates a Controller per run, the
// form the multi-object directory and the server consume.
func Factory(m cost.Model, spec Spec) dom.Factory {
	return func(initial model.Set, t int) (dom.Algorithm, error) {
		return New(m, spec, initial, t)
	}
}

// protocol creates a fresh instance of the named protocol starting from
// the controller's canonical initial scheme.
func (c *Controller) protocol(name string) (dom.Algorithm, error) {
	switch name {
	case "sa":
		return dom.NewStatic(c.initial, c.t)
	case "da":
		return dom.NewDynamic(c.initial, c.t)
	default:
		return nil, fmt.Errorf("adaptive: unknown protocol %q", name)
	}
}

// Name implements dom.Algorithm; it names the protocol currently in
// charge, e.g. "ADAPT(DA)".
func (c *Controller) Name() string { return "ADAPT(" + c.inner.Name() + ")" }

// Scheme implements dom.Algorithm.
func (c *Controller) Scheme() model.Set { return c.inner.Scheme() }

// Transitions implements dom.Transitioner.
func (c *Controller) Transitions() []dom.Transition { return c.trans }

// Protocol names the protocol currently in force ("SA" or "DA") — the
// value request tracing stamps on spans so a traced adaptive run shows
// which protocol actually serviced each request.
func (c *Controller) Protocol() string { return c.inner.Name() }

// WindowStat implements dom.MixReporter.
func (c *Controller) WindowStat() dom.WindowStat {
	st := dom.WindowStat{Protocol: c.Protocol(), Adapting: !c.pinned}
	for _, v := range c.readMass {
		st.Reads += v
	}
	for _, v := range c.writeMass {
		st.Writes += v
	}
	return st
}

// Step implements dom.Algorithm: the current protocol services the request
// unchanged, then the controller updates the window and, when the estimate
// has favored the other protocol for Hysteresis consecutive requests over
// a full window, switches. The switch happens after the step, so the
// scheme a caller captured before Step prices this step correctly; the
// transition's own counts are surfaced via Transitions.
func (c *Controller) Step(q model.Request) model.Step {
	st := c.inner.Step(q)
	c.steps++
	if c.pinned {
		return st
	}
	c.observe(q)
	c.maybeSwitch()
	return st
}

// observe pushes the request into the sliding window, decaying what is
// already there and expiring the oldest entry once the window is full.
func (c *Controller) observe(q model.Request) {
	if c.spec.Decay > 0 {
		keep := 1 - c.spec.Decay
		for p, v := range c.readMass {
			c.readMass[p] = v * keep
		}
		for p, v := range c.writeMass {
			c.writeMass[p] = v * keep
		}
	}
	if len(c.ring) == c.spec.Window {
		old := c.ring[c.head]
		if old.read {
			c.readMass[old.p] -= c.departing
		} else {
			c.writeMass[old.p] -= c.departing
		}
		c.ring[c.head] = access{read: q.IsRead(), p: q.Processor}
		c.head = (c.head + 1) % c.spec.Window
	} else {
		c.ring = append(c.ring, access{read: q.IsRead(), p: q.Processor})
	}
	if q.IsRead() {
		c.readMass[q.Processor]++
	} else {
		c.writeMass[q.Processor]++
	}
}

// maybeSwitch applies the hysteresis rule and performs the protocol
// switch, recording the transition with its paper-model cost.
func (c *Controller) maybeSwitch() {
	if len(c.ring) < c.spec.Window {
		// Not enough evidence yet: the estimates only become comparable
		// across time once the window is full.
		return
	}
	sa, da := c.Estimates()
	var better string
	switch {
	case sa < da:
		better = "SA"
	case da < sa:
		better = "DA"
	default:
		better = c.inner.Name()
	}
	if better == c.inner.Name() {
		c.streak = 0
		return
	}
	c.streak++
	if c.streak < c.spec.Hysteresis {
		return
	}
	c.streak = 0
	from := c.inner.Scheme()
	fromName := c.inner.Name()
	next, err := c.protocol(map[string]string{"SA": "sa", "DA": "da"}[better])
	if err != nil {
		// Both protocols were constructible at New time; a failure here
		// is a programming error.
		panic(err)
	}
	c.inner = next
	c.trans = append(c.trans, dom.Transition{
		Step:   c.steps,
		From:   fromName,
		To:     better,
		Counts: cost.TransitionCounts(from, next.Scheme()),
	})
}

// Estimates prices the current window under both protocols with the exact
// §3.2 per-request charges and returns (sa, da). SA is memoryless — every
// window entry is priced against the fixed scheme Q — while DA's price
// uses the saving-read accounting: an outsider's reads cost one
// saving-read (request + transmission + two I/Os, plus the amortized
// invalidate a later write sends it) per write-separated run, and local
// I/O otherwise. Exported for tests and the regret harness's diagnostics.
func (c *Controller) Estimates() (sa, da float64) {
	m := c.model
	home := c.initial
	q := float64(home.Size())
	t := float64(c.t)

	var writes float64
	for _, w := range c.writeMass {
		writes += w
	}
	for p, r := range c.readMass {
		if r <= 0 {
			continue
		}
		if home.Contains(p) {
			// Local read under both protocols: one input.
			sa += r * m.CIO
			da += r * m.CIO
			continue
		}
		// SA: every outsider read is remote — request, transmission,
		// input at the server.
		sa += r * (m.CC + m.CD + m.CIO)
		// DA: the first read after each invalidating write is a
		// saving-read (request + transmission + input + the save
		// output), and the copy costs one invalidate when the next
		// write arrives; the remaining reads are local inputs.
		saving := math.Min(r, writes+1)
		da += saving*(2*m.CC+m.CD+2*m.CIO) + (r-saving)*m.CIO
	}
	for p, w := range c.writeMass {
		if w <= 0 {
			continue
		}
		// SA: write executes at Q (read-one-write-all).
		if home.Contains(p) {
			sa += w * ((q-1)*m.CD + q*m.CIO)
		} else {
			sa += w * (q*m.CD + q*m.CIO)
		}
		// DA: write executes at F ∪ {p} or F ∪ {writer}, size t; an
		// outsider write additionally invalidates the designated
		// processor it evicts.
		if home.Contains(p) {
			da += w * ((t-1)*m.CD + t*m.CIO)
		} else {
			da += w * ((t-1)*m.CD + t*m.CIO + m.CC)
		}
	}
	return sa, da
}

// RunCost executes a schedule through an algorithm and returns the total
// paper-model cost including protocol-transition charges, the integer
// accounting, and the number of switches. It is the pricing loop the
// regret harness uses; cost.ScheduleCost cannot be used for a
// dom.Transitioner because transitions move the allocation scheme between
// steps.
func RunCost(m cost.Model, alg dom.Algorithm, sched model.Schedule) (total float64, counts cost.Counts, switches int) {
	tr, _ := alg.(dom.Transitioner)
	seen := 0
	for _, q := range sched {
		scheme := alg.Scheme()
		st := alg.Step(q)
		counts = counts.Add(cost.StepCounts(st, scheme))
		if tr != nil {
			ts := tr.Transitions()
			for ; seen < len(ts); seen++ {
				counts = counts.Add(ts[seen].Counts)
				switches++
			}
		}
	}
	return counts.Price(m), counts, switches
}
