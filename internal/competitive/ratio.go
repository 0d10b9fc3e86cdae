// Package competitive implements the paper's evaluation methodology (§2,
// §4.1): measuring how far an online DOM algorithm strays from the optimal
// offline algorithm, in the worst case, over families of schedules.
//
// The paper proves competitiveness bounds; this package reproduces them
// empirically. For an algorithm A and a schedule ψ it computes
// COST_A(I, ψ) / COST_OPT(I, ψ) with the exact offline optimum of package
// opt, takes worst cases over schedule batteries (random mixes plus the
// nemesis families of package adversary, plus hill-climbing adversarial
// search), and sweeps the (cd, cc) plane to regenerate the superiority
// region maps of the paper's figures 1 and 2.
package competitive

import (
	"context"
	"fmt"
	"math"
	"sync"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
)

// Measurement is the outcome of comparing one algorithm run against the
// offline optimum on one schedule.
type Measurement struct {
	// AlgCost is COST_A(I, ψ).
	AlgCost float64
	// OptCost is COST_OPT(I, ψ).
	OptCost float64
	// Ratio is AlgCost / OptCost; 1 when both are zero, +Inf when only
	// OptCost is zero.
	Ratio float64
}

// prepared is a schedule battery measured once. SA and DA are
// cost-oblivious — dom.RunFactory takes no cost model — so an algorithm's
// allocation schedule, and with it its integer cost.Counts, is the same
// under every model; and opt.Compile's Plan holds everything about the OPT
// instance that is model-independent. What is left per model is one OPT
// cost per schedule (Plan.Cost, or Plan.Costs for many models at once) and
// one Counts.Price per (algorithm, schedule). cost.ScheduleCost is
// TotalCounts(...).Price(m), so pricing the stored counts yields the
// very float a fresh run would.
//
// The battery is measured a schedule at a time (measureSchedule), each
// call filling only its own index, so the schedules may be measured
// concurrently; a measured schedule is read-only from then on but for its
// plan, which is compiled on first use (plan) — a schedule the sweep never
// prices is never compiled.
type prepared struct {
	factories []dom.Factory
	scheds    []model.Schedule
	initial   model.Set
	t         int
	// counts[f][i] is the accounting of factory f's run on scheds[i].
	counts [][]cost.Counts
	// bounds[i] is scheds[i]'s closed-form lower bound on the optimum.
	bounds []opt.Bound
	plans  []lazyPlan
}

// lazyPlan is a schedule's Plan, compiled by whichever task first needs it.
type lazyPlan struct {
	once sync.Once
	plan *opt.Plan
	err  error
}

// newPrepared allocates the battery's tables; nothing is measured yet.
func newPrepared(factories []dom.Factory, scheds []model.Schedule, initial model.Set, t int) (*prepared, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("competitive: empty schedule battery")
	}
	b := &prepared{
		factories: factories, scheds: scheds, initial: initial, t: t,
		counts: make([][]cost.Counts, len(factories)),
		bounds: make([]opt.Bound, len(scheds)),
		plans:  make([]lazyPlan, len(scheds)),
	}
	for f := range b.counts {
		b.counts[f] = make([]cost.Counts, len(scheds))
	}
	return b, nil
}

// measureSchedule runs every factory on schedule i, checking each step the
// algorithm takes as model.AllocSchedule.Validate would and adding up its
// counts as cost.TotalCounts would — without holding the allocation
// schedule, of which only the total is kept — and takes the schedule's
// lower bound, which refuses what opt.Compile would refuse.
func (b *prepared) measureSchedule(i int) error {
	for f, factory := range b.factories {
		alg, err := factory(b.initial, b.t)
		if err != nil {
			return err
		}
		if v := model.CheckInitial(b.initial, b.t); v != nil {
			return invalidSchedule(v)
		}
		var total cost.Counts
		scheme := b.initial
		for k, q := range b.scheds[i] {
			st := alg.Step(q)
			next, v := model.CheckStep(k, st, scheme, b.t)
			if v != nil {
				return invalidSchedule(v)
			}
			total = total.Add(cost.StepCounts(st, scheme))
			scheme = next
		}
		b.counts[f][i] = total
	}
	var err error
	b.bounds[i], err = opt.NewBound(b.scheds[i], b.initial, b.t)
	return err
}

// measureAll measures the battery on the pool. A failure is that of the
// first failing schedule in battery order, whichever one the pool reached
// first: measuring takes no context and is deterministic, so unless the
// run was cancelled the battery is re-measured in order up to it.
func (b *prepared) measureAll(ctx context.Context, parallelism int, ob obs.Observer) error {
	err := engine.MapObserved(ctx, len(b.scheds), parallelism, ob, func(_ context.Context, i int) error {
		return b.measureSchedule(i)
	})
	if err != nil && ctx.Err() == nil {
		for i := range b.scheds {
			if err := b.measureSchedule(i); err != nil {
				return err
			}
		}
	}
	return err
}

// plan returns measured schedule i's Plan, compiling it on the first call.
func (b *prepared) plan(i int) (*opt.Plan, error) {
	lp := &b.plans[i]
	lp.once.Do(func() { lp.plan, lp.err = opt.Compile(b.scheds[i], b.initial, b.t) })
	return lp.plan, lp.err
}

func invalidSchedule(v *model.Violation) error {
	return fmt.Errorf("competitive: algorithm produced invalid schedule: %w", v)
}

// measure prices factory f's run on schedule i against that schedule's
// optimum cost under m.
func (b *prepared) measure(f, i int, m cost.Model, optCost float64) Measurement {
	algCost := b.counts[f][i].Price(m)
	return Measurement{AlgCost: algCost, OptCost: optCost, Ratio: ratioOf(algCost, optCost)}
}

// worst reduces factory f's measurements in battery order with a strict
// comparison: the first schedule attaining the maximum is the witness. A
// NaN optimum marks a schedule left unpriced, which the reduction skips.
func (b *prepared) worst(f int, m cost.Model, optCosts []float64) Worst {
	var w Worst
	w.Ratio = -1
	for i, oc := range optCosts {
		if math.IsNaN(oc) {
			continue
		}
		if meas := b.measure(f, i, m, oc); meas.Ratio > w.Ratio {
			w.Measurement = meas
			w.Schedule = b.scheds[i]
		}
	}
	return w
}

// saDA is the pair of algorithms the paper compares, in the order the
// sweep and the crossover prepare them.
var saDA = []dom.Factory{dom.StaticFactory, dom.DynamicFactory}

func ratioOf(alg, optimal float64) float64 {
	switch {
	case optimal > 0:
		return alg / optimal
	case alg == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// Ratio runs the algorithm produced by the factory on the schedule,
// validates the resulting allocation schedule, and compares its cost
// against the exact offline optimum.
func Ratio(m cost.Model, f dom.Factory, sched model.Schedule, initial model.Set, t int) (Measurement, error) {
	return RatioContext(context.Background(), m, f, sched, initial, t)
}

// RatioContext is Ratio with cancellation: the dominating cost — the
// offline-optimum DP — checks the context per request, so even a single
// long measurement aborts promptly with ctx.Err(). It is the
// one-schedule battery.
func RatioContext(ctx context.Context, m cost.Model, f dom.Factory, sched model.Schedule, initial model.Set, t int) (Measurement, error) {
	b, optCosts, err := priced(ctx, m, f, []model.Schedule{sched}, initial, t)
	if err != nil {
		return Measurement{}, err
	}
	return b.measure(0, 0, m, optCosts[0]), nil
}

// priced is the one-factory, one-model use of a battery: measure each
// schedule and solve its optimum under m. The DP polls the context per
// request, so cancelling aborts mid-battery.
func priced(ctx context.Context, m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (*prepared, []float64, error) {
	b, err := newPrepared([]dom.Factory{f}, scheds, initial, t)
	if err != nil {
		return nil, nil, err
	}
	optCosts := make([]float64, len(scheds))
	for i := range scheds {
		if err := b.measureSchedule(i); err != nil {
			return nil, nil, err
		}
		p, err := b.plan(i)
		if err != nil {
			return nil, nil, err
		}
		if optCosts[i], err = p.Cost(ctx, m); err != nil {
			return nil, nil, err
		}
	}
	return b, optCosts, nil
}

// Worst is the worst-case measurement over a battery of schedules.
type Worst struct {
	Measurement
	// Schedule is the schedule that attained the worst ratio.
	Schedule model.Schedule
}

// WorstRatio measures the algorithm on every schedule and returns the
// maximum ratio together with the witness schedule.
func WorstRatio(m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (Worst, error) {
	return WorstRatioContext(context.Background(), m, f, scheds, initial, t)
}

// WorstRatioContext is WorstRatio with cancellation threaded into every
// OPT solve (the DP checks the context per request).
func WorstRatioContext(ctx context.Context, m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (Worst, error) {
	b, optCosts, err := priced(ctx, m, f, scheds, initial, t)
	if err != nil {
		return Worst{}, err
	}
	return b.worst(0, m, optCosts), nil
}

// MeanRatio measures the algorithm on every schedule and returns the mean
// ratio — the average-case view used by experiment E12.
func MeanRatio(m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (float64, error) {
	b, optCosts, err := priced(context.Background(), m, f, scheds, initial, t)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, oc := range optCosts {
		sum += b.measure(0, i, m, oc).Ratio
	}
	return sum / float64(len(scheds)), nil
}
