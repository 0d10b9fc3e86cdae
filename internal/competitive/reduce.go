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
// per request over n processors, and may land that many ulps per request
// below the bound's exact value; a relative 1e-9 covers it for schedules of
// up to ~500 000 requests even at opt.MaxUniverse, so a pair's computed
// ratio never exceeds its computed bound.
const boundMargin = 1 - 1e-9

// bound is an upper bound on factory f's ratio on measured schedule s
// under m: the algorithm's cost over the schedule's deflated opt.Bound.
// A zero lower bound (the mobile model's reads, or t = 1 there) bounds
// nothing, so the ratio bound is +Inf and the pair is never pruned.
func (b *prepared) bound(f, s int, m cost.Model) float64 {
	lb := b.bounds[s].Price(m) * boundMargin
	if lb <= 0 {
		return math.Inf(1)
	}
	return b.counts[f][s].Price(m) / lb
}

// worstSADA returns, at every model of a list, SA's and DA's worst ratio
// over a battery measured with saDA — the value worst's reduction takes
// over every schedule — and the number of (schedule, model) pairs it ran
// the offline DP for to find them.
//
// It prices by branch and bound, in two rounds. Round 1 prices, at every
// model, the schedule with the largest finite SA bound and the one with
// the largest finite DA bound (see bound), and every schedule whose bound
// is +Inf, which no incumbent can prune; the largest of their ratios are
// the model's incumbents. Round 2 prices every other pair unless both its
// bounds are strictly below the incumbents. A pair left out has ratios at
// most its bounds, so strictly below the worst ratios: it can neither set
// one nor be the first schedule in battery order to attain one, and
// leaving it out changes no value and no witness. What is priced depends
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
	lead := make([]int, 2*nModels)
	for j, m := range models {
		for f := range 2 {
			best := -1.0
			lead[2*j+f] = -1
			for s := range b.scheds {
				if bd := b.bound(f, s, m); bd > best && !math.IsInf(bd, 1) {
					best, lead[2*j+f] = bd, s
				}
			}
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
		return s == lead[2*j] || s == lead[2*j+1] || math.IsInf(b.bound(0, s, models[j]), 1)
	}); err != nil {
		return nil, nil, 0, err
	}
	if err := price(1, func(s, j int) bool {
		m := models[j]
		return math.IsNaN(optCosts[j*nSched+s]) && !(b.bound(0, s, m) < sa[j] && b.bound(1, s, m) < da[j])
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
