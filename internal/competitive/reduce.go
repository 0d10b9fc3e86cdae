package competitive

import (
	"context"
	"math"
	"sort"

	"objalloc/internal/cost"
	"objalloc/internal/engine"
	"objalloc/internal/obs"
)

// boundMargin deflates a schedule's lower bound on the optimum before it
// divides. The DP sums its charges in floating point, at most n+1 roundings
// per request over n processors, and the interval relaxation fewer; the
// one may land that many ulps per request below its exact value and the
// other above, and the exact bound is at most the exact optimum. A
// relative 1e-9 covers both for schedules of up to ~250 000 requests even
// at opt.MaxUniverse, so a pair's computed ratio never exceeds its
// computed bound.
const boundMargin = 1 - 1e-9

// pairBounds holds a sweep's lower bounds on the optimum of each (schedule,
// model) pair in two strengths: opt.Bound.Floor, a closed form that costs
// nothing, and opt.Bound.Price, the interval relaxation, which is never
// below it and is computed only where the floor cannot decide, once per
// pair. A smaller lower bound gives a larger ratio bound, so wherever the
// floor prunes a pair the relaxation would too.
type pairBounds struct {
	b      *prepared
	models []cost.Model
	tight  []float64 // [model][schedule]: Price, NaN until first asked
}

func (b *prepared) newPairBounds(models []cost.Model) pairBounds {
	x := pairBounds{b: b, models: models, tight: make([]float64, len(models)*len(b.scheds))}
	for i := range x.tight {
		x.tight[i] = math.NaN()
	}
	return x
}

func (x *pairBounds) floor(s, j int) float64 { return x.b.bounds[s].Floor(x.models[j]) }

func (x *pairBounds) price(s, j int) float64 {
	lb := &x.tight[j*len(x.b.scheds)+s]
	if math.IsNaN(*lb) {
		*lb = x.b.bounds[s].Price(x.models[j])
	}
	return *lb
}

// ratio is an upper bound on factory f's ratio on measured schedule s
// under model j: the algorithm's cost over lb, a lower bound on the
// optimum, deflated. A zero lower bound bounds nothing, so the ratio bound
// is +Inf, never a 0/0 (unbounded says where).
func (x *pairBounds) ratio(f, s, j int, lb float64) float64 {
	lb *= boundMargin
	if lb <= 0 {
		return math.Inf(1)
	}
	return x.b.counts[f][s].Price(x.models[j]) / lb
}

// unbounded reports whether pair (s, j) has no finite ratio bound, which
// no incumbent can prune. The floor is positive almost everywhere, so the
// relaxation is asked only where it is 0.
func (x *pairBounds) unbounded(s, j int) bool {
	return x.floor(s, j)*boundMargin <= 0 && x.price(s, j)*boundMargin <= 0
}

// below reports whether both of pair (s, j)'s ratio bounds are strictly
// below the incumbents sa and da, asking the relaxation only when the
// floor's bounds are not.
func (x *pairBounds) below(s, j int, sa, da float64) bool {
	under := func(lb float64) bool { return x.ratio(0, s, j, lb) < sa && x.ratio(1, s, j, lb) < da }
	return under(x.floor(s, j)) || under(x.price(s, j))
}

// lead returns the schedule with factory f's largest finite ratio bound
// over the relaxation at model j — the first in battery order on a tie —
// or -1. It walks the battery backwards, nemesis families first, and
// prices the relaxation only for a schedule whose floor's ratio bound,
// never below the relaxation's, could still reach the best found.
func (x *pairBounds) lead(f, j int) int {
	best, lead := -1.0, -1
	for s := len(x.b.scheds) - 1; s >= 0; s-- {
		if x.ratio(f, s, j, x.floor(s, j)) < best {
			continue
		}
		if bd := x.ratio(f, s, j, x.price(s, j)); bd >= best && !math.IsInf(bd, 1) {
			best, lead = bd, s
		}
	}
	return lead
}

// worstSADA returns, at every model of a list, SA's and DA's worst ratio
// over a battery measured with saDA — the value worst's reduction takes
// over every schedule — and the number of (schedule, model) pairs it ran
// the offline DP for to find them.
//
// It prices by branch and bound, in two rounds. Round 1 prices, at every
// model, the schedule with the largest finite SA bound and the one with
// the largest finite DA bound (see pairBounds.lead), and every schedule
// whose bound is +Inf, which no incumbent can prune; the largest of their
// ratios are the model's incumbents. Round 2 prices every other pair unless both
// its bounds are strictly below the incumbents. A pair left out has ratios
// at most its bounds, so strictly below the worst ratios: it can neither
// set one nor be the first schedule in battery order to attain one, and
// leaving it out changes no value and no witness. The bounds are asked
// serially, before each round's tasks start, and what is priced depends
// on round-1 values alone, so it is the same at every parallelism.
//
// A round is one engine run of (schedule, model-chunk) tasks, chunk models
// at most, longest schedule first: the nemesis families are several times
// the length of the random mixes and the battery lists them last, where
// one of them would be the tail a lone worker finishes. A task compiles
// its schedule on first use and fills its cells of a [model][schedule]
// matrix by index; each model's column is reduced in battery order once
// the round is done, so dispatch order cannot change a byte. Cancelling
// the context aborts the passes in flight and returns ctx.Err().
func (b *prepared) worstSADA(ctx context.Context, models []cost.Model, chunk, parallelism int, ob obs.Observer) (sa, da []float64, priced int, err error) {
	nSched, nModels := len(b.scheds), len(models)
	optCosts := make([]float64, nModels*nSched) // NaN until priced
	for i := range optCosts {
		optCosts[i] = math.NaN()
	}
	order := make([]int, nSched)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return len(b.scheds[order[x]]) > len(b.scheds[order[y]]) })

	// price runs the DP for every pair (s, j) want selects — asked about
	// every pair before the first task starts — dealing each schedule's
	// cells in at least spread tasks, and reduces every model's column.
	var tasks []struct{ s, lo, hi int }
	cells := make([]int, 0, nSched*nModels) // a task's models are models[cells[lo:hi]]
	sa, da = make([]float64, nModels), make([]float64, nModels)
	price := func(spread int, want func(s, j int) bool) error {
		tasks, cells = tasks[:0], cells[:0]
		for _, s := range order {
			lo := len(cells)
			for j := range models {
				if want(s, j) {
					cells = append(cells, j)
				}
			}
			step := min(chunk, (len(cells)-lo+spread-1)/spread)
			for ; lo < len(cells); lo += step {
				tasks = append(tasks, struct{ s, lo, hi int }{s, lo, min(lo+step, len(cells))})
			}
		}
		ms := make([]cost.Model, len(cells))
		for k, j := range cells {
			ms[k] = models[j]
		}
		err := engine.MapObserved(ctx, len(tasks), parallelism, ob, func(ctx context.Context, i int) error {
			t := tasks[i]
			p, err := b.plan(t.s)
			if err != nil {
				return err
			}
			costs, err := p.Costs(ctx, ms[t.lo:t.hi])
			if err != nil {
				return err
			}
			for k, c := range costs {
				optCosts[cells[t.lo+k]*nSched+t.s] = c
			}
			return nil
		})
		if err != nil {
			return err
		}
		for j, m := range models {
			column := optCosts[j*nSched : (j+1)*nSched]
			sa[j], da[j] = b.worst(0, m, column).Ratio, b.worst(1, m, column).Ratio
		}
		return nil
	}

	// lead[2j+f] is the schedule with factory f's largest finite bound at
	// model j, or -1.
	x := b.newPairBounds(models)
	lead := make([]int, 2*nModels)
	for j := range models {
		for f := range 2 {
			lead[2*j+f] = x.lead(f, j)
		}
	}
	// Round 1 is a few schedules at many models — at the figures' grids
	// the DA nemesis, by far the longest pass, at every cell — so its
	// schedules are spread over the workers; round 2 deals whole ones.
	workers := parallelism
	if workers <= 0 {
		workers = engine.DefaultParallelism()
	}
	if err := price(workers, func(s, j int) bool {
		return s == lead[2*j] || s == lead[2*j+1] || x.unbounded(s, j)
	}); err != nil {
		return nil, nil, 0, err
	}
	if err := price(1, func(s, j int) bool {
		return math.IsNaN(optCosts[j*nSched+s]) && !x.below(s, j, sa[j], da[j])
	}); err != nil {
		return nil, nil, 0, err
	}
	for _, oc := range optCosts {
		if !math.IsNaN(oc) {
			priced++
		}
	}
	return sa, da, priced, nil
}
