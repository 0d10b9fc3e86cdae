package competitive

import (
	"context"
	"math"
	"slices"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/model"
	"objalloc/internal/opt"
)

// boundMargin deflates a schedule's lower bound on the optimum before it
// divides. A sweep prices every cell it can at whole prices (pricing),
// where the DP's sums and the relaxation's are exact and the margin only
// costs a little pruning. At a cell left at float prices the DP sums its
// charges in floating point, at most n+1 roundings per request over n
// processors, and the interval relaxation fewer; the one may land that
// many ulps per request below its exact value and the other above, and
// the exact bound is at most the exact optimum. A relative 1e-9 covers
// both for schedules of up to ~250 000 requests even at opt.MaxUniverse,
// so a pair's computed ratio never exceeds its computed bound.
const boundMargin = 1 - 1e-9

// saDA is the pair of algorithms the paper compares, in the order the
// sweep reports them.
var saDA = [2]dom.Factory{dom.StaticFactory, dom.DynamicFactory}

// lanes are the two algorithms' lanes over one battery, SA's and DA's in
// a sweep.
type lanes [2]*lane

func newLanes(factories [2]dom.Factory, b *slots, initial model.Set, t int) (lanes, error) {
	var ls lanes
	for f, factory := range factories {
		var err error
		if ls[f], err = newLane(factory, b, initial, t); err != nil {
			return lanes{}, err
		}
	}
	return ls, nil
}

// worst returns, at every model of a list, SA's and DA's worst ratio over
// the battery — the value each lane's worst takes over every schedule —
// and the number of distinct (schedule, model) pairs the offline DP ran
// for to find them.
//
// It is one engine run: the build, then (algorithm, model-chunk) tasks,
// chunk models at most, DA's first: DA's nemesis is the battery's longest
// pass. Task 0 builds the battery (slots.fill; nothing when it has
// landed). Each other task measures its lane's battery as it lands if no
// task of the lane has yet (lane.measured) and then searches its
// algorithm's worst case at its models alone (see lane.price), writing only
// its own models' rows, so dispatch order cannot change a byte. A task
// waits only for the build, and the engine starts tasks in index order, so
// a serial run never waits. A pair both lanes price is priced twice and
// counted once.
//
// A failure is that of the first failing schedule in battery order, SA's
// before DA's on the same schedule, whichever task failed first and
// whichever schedule landed first: the engine skips the tasks that had not
// started, so unless the run was cancelled the battery — landed whole, as
// a task fails only on a schedule that landed and the build runs to its
// end — is re-measured in that order. Cancelling the context aborts the
// passes in flight and returns ctx.Err().
func (ls lanes) worst(ctx context.Context, models []cost.Model, chunk, parallelism int) (worst [2][]float64, priced int, err error) {
	nSched, nModels := len(ls[0].scheds), len(models)
	chunks := max(1, (nModels+chunk-1)/chunk) // a lane with no models still measures
	var optCosts [2][]float64                 // per lane, [model][schedule]: NaN until priced
	for f := range ls {
		worst[f] = make([]float64, nModels)
		optCosts[f] = make([]float64, nModels*nSched)
		for i := range optCosts[f] {
			optCosts[f][i] = math.NaN()
		}
	}
	err = engine.Map(ctx, 1+len(ls)*chunks, parallelism, func(ctx context.Context, i int) error {
		if i == 0 {
			ls[0].slots.fill()
			return nil
		}
		i--
		f, lo := len(ls)-1-i/chunks, i%chunks*chunk
		hi := min(lo+chunk, nModels)
		return ls[f].price(ctx, models[lo:hi], optCosts[f][lo*nSched:hi*nSched], worst[f][lo:hi])
	})
	if err != nil {
		if ctx.Err() == nil {
			for i := range nSched {
				for _, l := range ls {
					if err := l.measure(i); err != nil {
						return [2][]float64{}, 0, err
					}
				}
			}
		}
		return [2][]float64{}, 0, err
	}
	for k := range optCosts[0] {
		if !math.IsNaN(optCosts[0][k]) || !math.IsNaN(optCosts[1][k]) {
			priced++
		}
	}
	return worst, priced, nil
}

// price sets worst to the lane's worst ratio at each of models, filling
// optCosts, the models' rows of a [model][schedule] matrix of OPT costs,
// NaN where a pair is left unpriced.
//
// It prices by branch and bound, in two rounds. Round 1 prices, at every
// model, the schedule with the largest finite ratio bound (see
// pairBounds.lead) and every schedule whose bound is +Inf, which no
// incumbent can prune; the largest of their ratios is the model's
// incumbent. Round 2 prices every other pair whose bound reaches the
// incumbent. A pair left out has a ratio at most its bound, so strictly
// below the worst ratio: it can neither set it nor be the first schedule
// in battery order to attain it, and leaving it out changes no value and
// no witness. What is priced depends on the lane's own bounds and
// round-1 values alone, so it is the same at every parallelism.
//
// A round calls the offline DP once per schedule, at the models that want
// it, and the task compiles each schedule it prices itself.
func (l *lane) price(ctx context.Context, models []cost.Model, optCosts, worst []float64) error {
	if err := l.measured(ctx); err != nil {
		return err
	}
	nSched := len(l.scheds)
	x := l.newPairBounds(models)
	plans := make([]*opt.Plan, nSched)
	cells := make([]int, 0, len(models)) // the models that want schedule s
	sub := make([]cost.Model, 0, len(models))
	round := func(want func(s, j int) bool) error {
		for s := range nSched {
			cells, sub = cells[:0], sub[:0]
			for j, m := range models {
				if want(s, j) {
					cells, sub = append(cells, j), append(sub, m)
				}
			}
			if len(cells) == 0 {
				continue
			}
			if plans[s] == nil {
				p, err := opt.Compile(l.scheds[s], l.initial, l.t)
				if err != nil {
					return err
				}
				plans[s] = p
			}
			costs, err := plans[s].Costs(ctx, sub)
			if err != nil {
				return err
			}
			for k, j := range cells {
				optCosts[j*nSched+s] = costs[k]
			}
		}
		for j, m := range models {
			worst[j] = l.worst(m, optCosts[j*nSched:(j+1)*nSched]).Ratio
		}
		return nil
	}

	lead := make([]int, len(models))
	for j := range models {
		lead[j] = x.lead(j)
	}
	if err := round(func(s, j int) bool { return s == lead[j] || x.unbounded(s, j) }); err != nil {
		return err
	}
	return round(func(s, j int) bool {
		return math.IsNaN(optCosts[j*nSched+s]) && !x.under(s, j, worst[j])
	})
}

// pairBounds holds one task's lower bounds on the optimum of each
// (schedule, model) pair in two strengths: opt.Bound.Floor, a closed form
// that costs nothing, and opt.Bound.Price, the interval relaxation, which
// is never below it and is computed only where the floor cannot decide,
// once per pair. A smaller lower bound gives a larger ratio bound, so
// wherever the floor prunes a pair the relaxation would too. The task
// prices its own copies of the lane's bounds, each building its signature
// on its first Price, so no task waits on another.
type pairBounds struct {
	l      *lane
	bounds []opt.Bound
	models []cost.Model
	tight  []float64 // [model][schedule]: Price, NaN until first asked
}

func (l *lane) newPairBounds(models []cost.Model) pairBounds {
	x := pairBounds{l: l, bounds: slices.Clone(l.bounds), models: models, tight: make([]float64, len(models)*len(l.scheds))}
	for i := range x.tight {
		x.tight[i] = math.NaN()
	}
	return x
}

func (x *pairBounds) floor(s, j int) float64 { return x.bounds[s].Floor(x.models[j]) }

func (x *pairBounds) price(s, j int) float64 {
	lb := &x.tight[j*len(x.bounds)+s]
	if math.IsNaN(*lb) {
		*lb = x.bounds[s].Price(x.models[j])
	}
	return *lb
}

// ratio is an upper bound on the lane's ratio on schedule s under model j:
// the algorithm's cost over lb, a lower bound on the optimum, deflated. A
// zero lower bound bounds nothing, so the ratio bound is +Inf, never a 0/0
// (unbounded says where).
func (x *pairBounds) ratio(s, j int, lb float64) float64 {
	lb *= boundMargin
	if lb <= 0 {
		return math.Inf(1)
	}
	return x.l.counts[s].Price(x.models[j]) / lb
}

// unbounded reports whether pair (s, j) has no finite ratio bound, which
// no incumbent can prune. The floor is positive almost everywhere, so the
// relaxation is asked only where it is 0.
func (x *pairBounds) unbounded(s, j int) bool {
	return x.floor(s, j)*boundMargin <= 0 && x.price(s, j)*boundMargin <= 0
}

// under reports whether pair (s, j)'s ratio bound is strictly below the
// incumbent, asking the relaxation only when the floor's bound is not.
func (x *pairBounds) under(s, j int, incumbent float64) bool {
	return x.ratio(s, j, x.floor(s, j)) < incumbent || x.ratio(s, j, x.price(s, j)) < incumbent
}

// lead returns the schedule with the largest finite ratio bound over the
// relaxation at model j — the first in battery order on a tie — or -1. It
// walks the battery backwards, nemesis families first, and prices the
// relaxation only for a schedule whose floor's ratio bound, never below
// the relaxation's, could still reach the best found.
func (x *pairBounds) lead(j int) int {
	best, lead := -1.0, -1
	for s := len(x.bounds) - 1; s >= 0; s-- {
		if x.ratio(s, j, x.floor(s, j)) < best {
			continue
		}
		if bd := x.ratio(s, j, x.price(s, j)); bd >= best && !math.IsInf(bd, 1) {
			best, lead = bd, s
		}
	}
	return lead
}
