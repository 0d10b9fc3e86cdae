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
	"objalloc/internal/model"
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

// lane is one algorithm's side of a battery, measured once. SA and DA are
// cost-oblivious — dom.RunFactory takes no cost model — so an algorithm's
// allocation schedule, and with it its integer cost.Counts, is the same
// under every model; what is left per model is one OPT cost per schedule
// (opt.Plan.Cost, or Plan.Costs for many models at once) and one
// Counts.Price. cost.ScheduleCost is TotalCounts(...).Price(m), so pricing
// the stored counts yields the very float a fresh run would.
//
// A sweep runs one lane per algorithm (see lanes). Its battery is measured
// by whichever of its tasks starts first (measured), as the schedules land;
// from then on counts and bounds are read-only.
type lane struct {
	factory dom.Factory
	slots   *slots
	scheds  []model.Schedule // the slots' schedules: read one once it has landed
	initial model.Set
	t       int
	// counts[i] is the accounting of the algorithm's run on scheds[i].
	counts []cost.Counts
	// bounds[i] is scheds[i]'s lower bound on the optimum; a task prices
	// its own copies (see pairBounds).
	bounds []opt.Bound
	once   sync.Once
	err    error // the first failure of measuring, in landing order
}

// newLane allocates a lane's tables over a battery; nothing is measured
// yet.
func newLane(factory dom.Factory, b *slots, initial model.Set, t int) (*lane, error) {
	if len(b.scheds) == 0 {
		return nil, fmt.Errorf("competitive: empty schedule battery")
	}
	return &lane{
		factory: factory, slots: b, scheds: b.scheds, initial: initial, t: t,
		counts: make([]cost.Counts, len(b.scheds)),
		bounds: make([]opt.Bound, len(b.scheds)),
	}, nil
}

// measure runs the algorithm on schedule i in one loop that checks each
// step it takes as model.AllocSchedule.Validate would, adds up its counts
// as cost.TotalCounts would — without holding the allocation schedule, of
// which only the total is kept — and counts what the schedule's lower
// bound needs, which then refuses what opt.Compile would refuse.
func (l *lane) measure(i int) error {
	alg, err := l.factory(l.initial, l.t)
	if err != nil {
		return err
	}
	if v := model.CheckInitial(l.initial, l.t); v != nil {
		return invalidSchedule(v)
	}
	var total cost.Counts
	var procs model.Set
	reads, scheme := 0, l.initial
	for k, q := range l.scheds[i] {
		st := alg.Step(q)
		next, v := model.CheckStep(k, st, scheme, l.t)
		if v != nil {
			return invalidSchedule(v)
		}
		total = total.Add(cost.StepCounts(st, scheme))
		scheme = next
		procs = procs.Add(q.Processor)
		if q.IsRead() {
			reads++
		}
	}
	l.counts[i] = total
	l.bounds[i], err = opt.BoundOf(l.scheds[i], l.initial, l.t, procs, reads)
	return err
}

// measured measures the battery in landing order on its first call, each
// schedule as soon as it has landed, and returns the first failure in that
// order, or the context's error; later calls, from the lane's other tasks,
// wait for the first and return what it returned.
func (l *lane) measured(ctx context.Context) error {
	l.once.Do(func() {
		for k := range l.scheds {
			if l.err = l.slots.wait(ctx, k); l.err != nil {
				return
			}
			if l.err = l.measure(l.slots.slot(k)); l.err != nil {
				return
			}
		}
	})
	return l.err
}

func invalidSchedule(v *model.Violation) error {
	return fmt.Errorf("competitive: algorithm produced invalid schedule: %w", v)
}

// measurement prices the algorithm's run on schedule i against that
// schedule's optimum cost under m.
func (l *lane) measurement(i int, m cost.Model, optCost float64) Measurement {
	algCost := l.counts[i].Price(m)
	return Measurement{AlgCost: algCost, OptCost: optCost, Ratio: ratioOf(algCost, optCost)}
}

// worst reduces the algorithm's measurements in battery order with a
// strict comparison: the first schedule attaining the maximum is the
// witness. A NaN optimum marks a schedule left unpriced, which the
// reduction skips.
func (l *lane) worst(m cost.Model, optCosts []float64) Worst {
	var w Worst
	w.Ratio = -1
	for i, oc := range optCosts {
		if math.IsNaN(oc) {
			continue
		}
		if meas := l.measurement(i, m, oc); meas.Ratio > w.Ratio {
			w.Measurement = meas
			w.Schedule = l.scheds[i]
		}
	}
	return w
}

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
	l, optCosts, err := priced(ctx, m, f, []model.Schedule{sched}, initial, t)
	if err != nil {
		return Measurement{}, err
	}
	return l.measurement(0, m, optCosts[0]), nil
}

// priced is the one-model use of a lane: measure each schedule and solve
// its optimum under m. The DP polls the context per request, so
// cancelling aborts mid-battery.
func priced(ctx context.Context, m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (*lane, []float64, error) {
	l, err := newLane(f, landedSlots(scheds), initial, t)
	if err != nil {
		return nil, nil, err
	}
	optCosts := make([]float64, len(scheds))
	for i, s := range scheds {
		if err := l.measure(i); err != nil {
			return nil, nil, err
		}
		p, err := opt.Compile(s, initial, t)
		if err != nil {
			return nil, nil, err
		}
		if optCosts[i], err = p.Cost(ctx, m); err != nil {
			return nil, nil, err
		}
	}
	return l, optCosts, nil
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
	l, optCosts, err := priced(ctx, m, f, scheds, initial, t)
	if err != nil {
		return Worst{}, err
	}
	return l.worst(m, optCosts), nil
}

// MeanRatio measures the algorithm on every schedule and returns the mean
// ratio — the average-case view used by experiment E12.
func MeanRatio(m cost.Model, f dom.Factory, scheds []model.Schedule, initial model.Set, t int) (float64, error) {
	l, optCosts, err := priced(context.Background(), m, f, scheds, initial, t)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, oc := range optCosts {
		sum += l.measurement(i, m, oc).Ratio
	}
	return sum / float64(len(scheds)), nil
}
